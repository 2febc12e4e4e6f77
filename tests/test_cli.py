import contextlib
import csv
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duomatch import analysis, cli
from duomatch.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from duomatch.core import (DuoGraph, Edge, Matching, StringInstance, compatible,
                           partition_from_matching)
from duomatch.exact import BudgetExceededError, exact_max_matching
from duomatch.fileio import format_instance

from conftest import DEMO_TEXT, FIXTURES_DIR, STALL_TEXT, balanced_pair


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.duo"
    path.write_text(DEMO_TEXT + "\n")
    return str(path)


@pytest.fixture
def stall_file(tmp_path):
    path = tmp_path / "stall.duo"
    path.write_text(STALL_TEXT + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- solve

def test_solve_demo(capsys, demo_file):
    code, out, _ = run(capsys, "solve", demo_file)
    assert code == EXIT_OK
    assert out == (
        "2 1\n3 2\n5 5\n"
        "preserved 3\n"
        "partition: a | b c d | a b | c\n"
    )


@st.composite
def partition_cases(draw):
    """A string pair and the size its rho-1 matching must have, or None:
    a shuffle over multi-character symbols (repeats allowed), an identity
    pair of distinct symbols (every duo kept), or distinct symbols against
    their reverse (no duo kept)."""
    kind = draw(st.sampled_from(["shuffle", "identity", "reversed"]))
    n = draw(st.integers(2, 12))
    if kind == "shuffle":
        a = draw(st.lists(st.sampled_from(["s0", "s1", "ab", "x", "s10"]), min_size=n, max_size=n))
        return a, draw(st.permutations(a)), None
    a = [f"s{t}" for t in draw(st.permutations(range(n)))]
    return (a, a, n - 1) if kind == "identity" else (a, a[::-1], 0)


@settings(max_examples=80, deadline=None)
@given(partition_cases())
def test_solve_partition_line_is_the_library_partition(case):
    """solve's partition line is partition_from_matching's blocks of the
    matching it printed, joined, on multi-character symbols and on the
    empty and the full matching."""
    a, b, size = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pair.duo")
        with open(path, "w") as fh:
            fh.write(" ".join(a) + "\n" + " ".join(b) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["solve", path, "--rho", "1"]) == EXIT_OK
    *edge_lines, preserved, partition = out.getvalue().splitlines()
    matching = Matching(Edge(*map(int, ln.split())) for ln in edge_lines)
    assert preserved == f"preserved {len(matching)}"
    assert size is None or len(matching) == size
    blocks = partition_from_matching(StringInstance(tuple(a), tuple(b)), matching)
    assert partition == "partition: " + " | ".join(" ".join(blk) for blk in blocks)


def test_solve_graph_input_has_no_partition(capsys, tmp_path, demo_file):
    code, out, _ = run(capsys, "exact", demo_file)
    graph_path = tmp_path / "demo.mcbm"
    # rebuild the same graph in the bare-edge format
    from duomatch.core import DuoGraph, parse_instance
    from duomatch.fileio import format_graph

    g = DuoGraph.from_strings(parse_instance(DEMO_TEXT))
    graph_path.write_text(format_graph(g))
    capsys.readouterr()
    code, out, _ = run(capsys, "solve", str(graph_path))
    assert code == EXIT_OK
    assert out == "2 1\n3 2\n5 5\npreserved 3\n"


def test_solve_trace(capsys, tmp_path, demo_file):
    trace_path = tmp_path / "trace.jsonl"
    code, _, _ = run(capsys, "solve", demo_file, "--trace", str(trace_path))
    assert code == EXIT_OK
    lines = trace_path.read_text().splitlines()
    steps = [json.loads(ln) for ln in lines]
    assert [s["phase"] for s in steps] == ["greedy", "replace", "terminate"]
    assert list(steps[0]) == [
        "iter", "phase", "size_before", "size_after",
        "singletons_before", "singletons_after", "out", "in",
    ]
    assert steps[1]["out"] == [[1, 5]]
    assert sorted(steps[1]["in"]) == [[2, 1], [5, 5]]


def test_solve_deterministic(capsys, demo_file):
    first = run(capsys, "solve", demo_file, "--rho", "3")
    second = run(capsys, "solve", demo_file, "--rho", "3")
    assert first == second


# ---------------------------------------------------------------- exact

def test_exact_demo(capsys, demo_file):
    code, out, _ = run(capsys, "exact", demo_file)
    assert code == EXIT_OK
    assert out == "value 3\n2 1\n3 2\n5 5\n"


def test_exact_budget_exhausted(capsys, stall_file):
    code, out, _ = run(capsys, "exact", stall_file, "--budget", "1")
    assert code == EXIT_BUDGET
    assert out.startswith("budget-exceeded lower-bound ")


def test_exact_budget_zero_stops_at_the_root(capsys, demo_file):
    """The search starts from the rho-1 local search's matching, which a
    budget of 0 prints; on the demo pair it is optimal, and the root proves
    it, so a budget of 1 finishes."""
    assert run(capsys, "exact", demo_file, "--budget", "0") == (
        EXIT_BUDGET, "budget-exceeded lower-bound 3\n2 1\n3 2\n5 5\n", "")
    assert run(capsys, "exact", demo_file, "--budget", "1") == (
        EXIT_OK, "value 3\n2 1\n3 2\n5 5\n", "")


def test_exact_negative_budget_is_a_usage_error(capsys, demo_file):
    assert run(capsys, "exact", demo_file, "--budget", "-5") == (
        EXIT_USAGE, "", "error: --budget must be >= 0, got -5\n")


def test_solve_iteration_cap_exits_3(capsys, demo_file):
    assert run(capsys, "solve", demo_file, "--max-iterations", "0") == (
        EXIT_BUDGET, "", "error: iteration cap hit at size 0\n")


@pytest.fixture
def identity_2000(tmp_path):
    """A == B over 2000 distinct symbols: 1999 pairwise compatible edges,
    one level of search per edge."""
    path = tmp_path / "identity_n2000.duo"
    line = " ".join(f"x{t}" for t in range(2000))
    path.write_text(f"{line}\n{line}\n")
    return str(path)


def test_exact_large_identity(capsys, identity_2000):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "exact", identity_2000)
    assert time.perf_counter() - t0 < 20.0
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "value 1999"
    assert lines[1:] == [f"{i} {i}" for i in range(1, 2000)]


def test_bench_large_identity(capsys, tmp_path, identity_2000, monkeypatch):
    monkeypatch.setenv("DUO_THREADS", "1")
    csv_path = tmp_path / "out.csv"
    t0 = time.perf_counter()
    code, _, _ = run(capsys, "bench", identity_2000, "--rho", "1", "--with-exact",
                     "--csv", str(csv_path))
    assert time.perf_counter() - t0 < 20.0
    assert code == EXIT_OK
    assert strip_ms(csv_path.read_text())[1:] == [
        ["identity_n2000", "2000", "1", "1999", "1", "1999", "1999", "1/1", "1"],
    ]


def test_balanced_n200_smoke(capsys, tmp_path):
    """Balanced pair (200, 8), seed 2017: solve's matching verifies as a
    rho-5 local optimum, and a budgeted exact stops with a lower bound whose
    edges verify as a compatible matching: the 86 edges of the rho-1 local
    search the branch and bound starts from."""
    inst = balanced_pair(200, 8, 2017)
    g = DuoGraph.from_strings(inst)
    assert len(g.edges) == 618
    with pytest.raises(BudgetExceededError) as exc:
        exact_max_matching(g, budget=5000)
    assert exc.value.best.value == 86
    pair = tmp_path / "balanced.duo"
    pair.write_text(format_instance(inst))

    code, out, _ = run(capsys, "solve", str(pair))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-2] == "preserved 101"
    mfile = tmp_path / "solve.matching"
    mfile.write_text("\n".join(lines[:-2]) + "\n")
    code, out, _ = run(capsys, "verify", str(pair), str(mfile), "--local-opt")
    assert code == EXIT_OK and json.loads(out)["local_optimum"]

    code, out, _ = run(capsys, "exact", str(pair), "--budget", "5000")
    assert code == EXIT_BUDGET
    first, *edge_lines = out.splitlines()
    assert first == "budget-exceeded lower-bound 86" and len(edge_lines) == 86
    efile = tmp_path / "exact.matching"
    efile.write_text("\n".join(edge_lines) + "\n")
    code, out, _ = run(capsys, "verify", str(pair), str(efile))
    assert code == EXIT_OK and json.loads(out)["compatible"]


# ---------------------------------------------------------------- verify

def test_verify_passes(capsys, tmp_path, demo_file):
    mfile = tmp_path / "m.txt"
    mfile.write_text("2 1\n3 2\n5 5\n")
    code, out, _ = run(capsys, "verify", demo_file, str(mfile), "--local-opt")
    verdict = json.loads(out)
    assert code == EXIT_OK
    assert verdict["passed"] and verdict["local_optimum"] and verdict["maximal"]
    assert verdict["size"] == 3
    assert verdict["violations"] == []


def test_verify_conflict(capsys, tmp_path, demo_file):
    mfile = tmp_path / "m.txt"
    mfile.write_text("2 1\n3 1\n")
    code, out, _ = run(capsys, "verify", demo_file, str(mfile))
    verdict = json.loads(out)
    assert code == EXIT_CHECK_FAILED
    assert not verdict["passed"]
    assert {"kind": "missing-edge", "edge": [3, 1]} in verdict["violations"]
    # (2,1) and (3,1) share a right position
    assert {"kind": "conflict", "edges": [[2, 1], [3, 1]]} in verdict["violations"]


def test_verify_not_maximal(capsys, tmp_path, demo_file):
    mfile = tmp_path / "m.txt"
    mfile.write_text("2 1\n")
    code, out, _ = run(capsys, "verify", demo_file, str(mfile), "--local-opt")
    verdict = json.loads(out)
    assert code == EXIT_CHECK_FAILED
    assert verdict["in_graph"] and verdict["compatible"]
    assert not verdict["maximal"] and not verdict["local_optimum"]
    assert verdict["violations"][0]["kind"] == "not-maximal"


def test_verify_improvable(capsys, tmp_path, demo_file):
    # maximal but not width-5 optimal: greedy's stall point
    mfile = tmp_path / "m.txt"
    mfile.write_text("1 5\n3 2\n")
    code, out, _ = run(capsys, "verify", demo_file, str(mfile), "--local-opt")
    verdict = json.loads(out)
    assert code == EXIT_CHECK_FAILED
    assert verdict["maximal"] and not verdict["local_optimum"]
    assert {"kind": "improvable"} in verdict["violations"]


@pytest.mark.parametrize("lines", ["2 1\n4 4\n", "2 1\n6 1\n"], ids=["missing", "conflict"])
def test_verify_local_opt_of_a_non_matching(capsys, tmp_path, demo_file, lines):
    """A matching file with an edge off the graph, or two conflicting
    edges, is neither maximal nor a local optimum, and the local search's
    checks do not run on it."""
    mfile = tmp_path / "m.txt"
    mfile.write_text(lines)
    code, out, _ = run(capsys, "verify", demo_file, str(mfile), "--local-opt")
    verdict = json.loads(out)
    assert code == EXIT_CHECK_FAILED
    assert verdict["maximal"] is False and verdict["local_optimum"] is False
    assert not verdict["passed"]
    assert {v["kind"] for v in verdict["violations"]} <= {"missing-edge", "conflict"}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.builds(Edge, st.integers(1, 6), st.integers(1, 6)), max_size=10, unique=True),
    st.lists(st.builds(Edge, st.integers(0, 7), st.integers(0, 7)), max_size=6),
    st.data(),
)
def test_verify_lists_every_conflict_in_file_order(graph_edges, strays, data):
    """verify reports the same conflicts, in the same order, as a scan of
    every pair of matching lines, with repeated lines and lines naming
    edges outside the graph."""
    pool = graph_edges + strays
    listed = data.draw(st.lists(st.sampled_from(pool), max_size=12) if pool else st.just([]))
    with tempfile.TemporaryDirectory() as tmp:
        gfile, mfile = os.path.join(tmp, "g.mcbm"), os.path.join(tmp, "m.txt")
        with open(gfile, "w") as fh:
            fh.write("6\n" + "".join(f"{e}\n" for e in graph_edges))
        with open(mfile, "w") as fh:
            fh.write("".join(f"{e}\n" for e in listed))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", gfile, mfile])
    verdict = json.loads(out.getvalue())
    expected = [
        [[a.i, a.j], [b.i, b.j]]
        for t, a in enumerate(listed)
        for b in listed[t + 1:]
        if not compatible(a, b)
    ]
    got = [v["edges"] for v in verdict["violations"] if v["kind"] == "conflict"]
    assert got == expected
    assert verdict["compatible"] == (not expected)
    assert code == (EXIT_OK if verdict["in_graph"] and not expected else EXIT_CHECK_FAILED)


# ---------------------------------------------------------------- tokens

def test_tokens_on_gap_fixture(capsys, tmp_path):
    opt_file = tmp_path / "opt.txt"
    from duomatch.core import DuoGraph, parse_instance
    from duomatch.exact import exact_max_matching

    g = DuoGraph.from_strings(
        parse_instance((FIXTURES_DIR / "string_gap.duo").read_text())
    )
    opt = exact_max_matching(g).witness
    opt_file.write_text("".join(f"{e.i} {e.j}\n" for e in opt))
    code, out, _ = run(
        capsys,
        "tokens",
        str(FIXTURES_DIR / "string_gap.duo"),
        str(FIXTURES_DIR / "string_gap.matching"),
        str(opt_file),
    )
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["passed"] and report["conservation"]
    assert report["total"] == "10/1"
    assert report["max_total"] == "11/6"
    assert report["per_sol_edge"]["2 7"] == "11/6"
    # the lex-least optimum here is the identity diagonal
    assert report["per_opt_edge"]["1 1"] == 2
    assert report["per_opt_edge"]["3 3"] == 6
    assert all(report["checks"].values())


def test_tokens_builds_one_report(capsys, monkeypatch, tmp_path):
    calls = []
    real = analysis.token_report

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "token_report", counting)
    opt = tmp_path / "opt.txt"
    opt.write_text("".join(f"{i} {i}\n" for i in range(1, 11)))
    code, out, _ = run(
        capsys,
        "tokens",
        str(FIXTURES_DIR / "string_gap.duo"),
        str(FIXTURES_DIR / "string_gap.matching"),
        str(opt),
    )
    assert code == EXIT_OK and json.loads(out)["passed"]
    assert len(calls) == 1


def test_tokens_prints_sixth_and_fifth_shares(capsys, tmp_path):
    from duomatch.fileio import format_graph

    receivers = [Edge(4, 8), Edge(5, 9), Edge(6, 10), Edge(8, 4), Edge(9, 5), Edge(10, 6)]
    opt = tmp_path / "opt.txt"
    opt.write_text("5 5\n")
    for r, share in ((6, "1/6"), (5, "1/5")):
        graph, matching = tmp_path / f"g{r}.mcbm", tmp_path / f"m{r}.txt"
        graph.write_text(format_graph(DuoGraph(10, [Edge(5, 5), *receivers[:r]])))
        matching.write_text("".join(f"{e}\n" for e in receivers[:r]))
        code, out, _ = run(capsys, "tokens", str(graph), str(matching), str(opt))
        report = json.loads(out)
        assert code == EXIT_OK and report["passed"]
        assert report["per_opt_edge"] == {"5 5": r}
        assert report["per_sol_edge"] == {str(e): share for e in receivers[:r]}
        assert report["total"] == "1/1" and report["max_total"] == share


def test_tokens_rejects_conflicting_matching(capsys, tmp_path, demo_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n3 1\n")
    opt = tmp_path / "opt.txt"
    opt.write_text("2 1\n3 2\n5 5\n")
    code, out, err = run(capsys, "tokens", demo_file, str(bad), str(opt))
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert "matching" in json.loads(err)["error"]


def test_tokens_optimum_edge_without_a_receiver(capsys, tmp_path, demo_file):
    """(5,5) shares no position with (2,1), so its tokens have nowhere to
    go: the non-maximal matching is reported on stderr alone."""
    matching, opt = tmp_path / "m.txt", tmp_path / "opt.txt"
    matching.write_text("2 1\n")
    opt.write_text("5 5\n")
    assert run(capsys, "tokens", demo_file, str(matching), str(opt)) == (
        EXIT_CHECK_FAILED, "",
        '{"error": "optimum edge 5 5 conflicts with no matching edge"}\n')


# ---------------------------------------------------------------- JSON writer

json_str_st = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\b\f\n\r\t", "é ☃ \u2028", "𝄞 \U0001f600", ""])
json_values_st = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.integers(-(10 ** 80), 10 ** 80)
    | json_str_st,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_str_st, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(json_values_st)
@example([])
@example({})
@example([[], {}, [[]]])
@example({"": {"": []}})
def test_json_text_is_indented_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [1.5, (1, 2), {1: "a"}, {"a": [0.0]}, {"a": {None: 1}},
                                 [{True: 1}]],
                         ids=["float", "tuple", "int-key", "nested-float", "none-key",
                              "bool-key"])
def test_json_text_rejects_what_json_would_convert(obj):
    """json.dumps writes these, turning a tuple into a list and a key into a
    string; the writer raises instead of quietly choosing."""
    with pytest.raises(TypeError):
        cli._json_text(obj)


# ---------------------------------------------------------------- gen

def test_gen_writes_instances_and_manifest(capsys, tmp_path):
    out_dir = tmp_path / "batch"
    code, out, _ = run(
        capsys, "gen", "--n", "8", "--k", "2", "--alphabet", "5",
        "--seed", "3", "--count", "2", "--out", str(out_dir),
    )
    assert code == EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text())
    ids = [e["id"] for e in manifest["instances"]]
    assert ids == ["kduo_n8_k2_a5_s3", "kduo_n8_k2_a5_s4"]
    for entry in manifest["instances"]:
        body = (out_dir / entry["file"]).read_text()
        assert len(body.splitlines()) == 2


def test_gen_deterministic(capsys, tmp_path):
    args = ["gen", "--n", "9", "--k", "3", "--alphabet", "4",
            "--seed", "11", "--count", "1"]
    run(capsys, *args, "--out", str(tmp_path / "a"))
    run(capsys, *args, "--out", str(tmp_path / "b"))
    name = "kduo_n9_k3_a4_s11.duo"
    assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


@pytest.mark.parametrize("flags, message", [
    (["--n", "1", "--k", "1", "--alphabet", "1"], "n must be >= 2, got 1"),
    (["--n", "10", "--k", "1", "--alphabet", "3"], "3 symbols at cap 1 cannot fill n=10"),
    (["--n", "8", "--k", "2", "--alphabet", "5", "--count", "-2"], "--count must be >= 0, got -2"),
])
def test_gen_bad_flags_exit_2(capsys, tmp_path, flags, message):
    out_dir = tmp_path / "batch"
    code, out, err = run(capsys, "gen", *flags, "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


# ---------------------------------------------------------------- bench

def strip_ms(text):
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["id", "n", "k", "E", "rho", "ls", "exact", "ratio", "iters", "ms"]
    return [row[:-1] for row in rows]


def test_bench_csv(capsys, tmp_path, demo_file, monkeypatch):
    monkeypatch.setenv("DUO_THREADS", "1")
    csv_path = tmp_path / "out.csv"
    code, out, _ = run(
        capsys, "bench", demo_file, "--rho", "1..2", "--with-exact",
        "--csv", str(csv_path),
    )
    assert code == EXIT_OK and out == ""
    rows = strip_ms(csv_path.read_text())
    assert rows[1:] == [
        ["demo", "7", "2", "5", "1", "3", "3", "1/1", "2"],
        ["demo", "7", "2", "5", "2", "3", "3", "1/1", "2"],
    ]


def test_bench_with_exact_on_an_edgeless_graph(capsys, tmp_path, monkeypatch):
    """With no edges the optimum is 0, and the ratio, which
    ``ratio_report`` would reject, reads 1/1."""
    monkeypatch.setenv("DUO_THREADS", "1")
    empty = tmp_path / "empty.mcbm"
    empty.write_text("3\n")
    code, out, _ = run(capsys, "bench", str(empty), "--rho", "1", "--with-exact")
    assert code == EXIT_OK
    assert strip_ms(out)[1:] == [["empty", "3", "", "0", "1", "0", "0", "1/1", "1"]]


def test_bench_parallel_matches_serial(capsys, tmp_path, monkeypatch):
    out_dir = tmp_path / "batch"
    run(capsys, "gen", "--n", "10", "--k", "2", "--alphabet", "5",
        "--seed", "0", "--count", "3", "--out", str(out_dir))
    results = {}
    for workers in ("1", "3"):
        monkeypatch.setenv("DUO_THREADS", workers)
        code, out, _ = run(capsys, "bench", str(out_dir), "--rho", "5", "--with-exact")
        assert code == EXIT_OK
        results[workers] = strip_ms(out)
    assert results["1"] == results["3"]
    assert len(results["1"]) == 4


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count asked
    for and runs the tasks in this process."""

    asked: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("threads, cpus, expected", [
    ("500", 64, [4]),   # capped by the 2 files x 2 widths
    ("500", 3, [3]),    # capped by the cores
    ("2", 64, [2]),
    ("1", 64, []),      # serial, no pool
])
def test_bench_bounds_worker_count(capsys, tmp_path, demo_file, monkeypatch,
                                   threads, cpus, expected):
    other = tmp_path / "other.duo"
    other.write_text(DEMO_TEXT + "\n")
    monkeypatch.setattr(RecordingPool, "asked", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("DUO_THREADS", threads)
    code, out, _ = run(capsys, "bench", demo_file, str(other), "--rho", "1,2")
    assert code == EXIT_OK
    assert RecordingPool.asked == expected
    assert len(strip_ms(out)) == 5


@pytest.mark.parametrize("threads", ["0", "-3", "two", "1.5", ""])
def test_bench_rejects_bad_thread_count(capsys, demo_file, monkeypatch, threads):
    monkeypatch.setattr(RecordingPool, "asked", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("DUO_THREADS", threads)
    code, out, err = run(capsys, "bench", demo_file)
    assert code == EXIT_USAGE and out == ""
    assert "DUO_THREADS" in err
    assert RecordingPool.asked == []


def test_bench_rejects_bad_rho(capsys, demo_file):
    code, _, err = run(capsys, "bench", demo_file, "--rho", "9")
    assert code == EXIT_USAGE
    assert "out of range" in err


def test_bench_no_inputs(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "bench", str(empty))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, threads, message", [
    (["bench", "{empty}"], None, "error: no input instances found"),
    (["bench", "{demo}", "--rho", "9"], None, "error: rho 9 out of range"),
    # a range is checked before it is listed: this one has 10^19 widths
    (["bench", "{demo}", "--rho", "1..10000000000000000000"], None, "error: rho 6 out of range"),
    (["bench", "{demo}"], "two", "error: DUO_THREADS must be a positive integer, got 'two'"),
], ids=["no-inputs", "rho", "huge-rho-range", "threads"])
def test_bench_usage_errors_carry_prefix(capsys, tmp_path, demo_file, monkeypatch,
                                         argv, threads, message):
    (tmp_path / "empty").mkdir()
    if threads is not None:
        monkeypatch.setenv("DUO_THREADS", threads)
    argv = [a.format(demo=demo_file, empty=tmp_path / "empty") for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == message + "\n"


@pytest.mark.parametrize("flags, message", [
    (["--exact-budget", "10"], "error: --exact-budget needs --with-exact"),
    (["--with-exact", "--exact-budget", "-1"], "error: --exact-budget must be >= 0, got -1"),
], ids=["without-exact", "negative"])
def test_bench_exact_budget_usage_errors(capsys, demo_file, flags, message):
    assert run(capsys, "bench", demo_file, *flags) == (EXIT_USAGE, "", message + "\n")


def test_bench_exact_budget_exhausted_rows(capsys, demo_file, monkeypatch):
    """A budget of 0 stops the exact search at its root: each row reads
    ``>=`` the local search's value and leaves the ratio empty."""
    monkeypatch.setenv("DUO_THREADS", "1")
    code, out, _ = run(capsys, "bench", demo_file, "--rho", "1..2", "--with-exact",
                       "--exact-budget", "0")
    assert code == EXIT_OK
    assert strip_ms(out)[1:] == [
        ["demo", "7", "2", "5", "1", "3", ">=3", "", "2"],
        ["demo", "7", "2", "5", "2", "3", ">=3", "", "2"],
    ]
    code, ample, _ = run(capsys, "bench", demo_file, "--rho", "1..2", "--with-exact",
                         "--exact-budget", "1000")
    assert code == EXIT_OK
    code, unbudgeted, _ = run(capsys, "bench", demo_file, "--rho", "1..2", "--with-exact")
    assert strip_ms(ample) == strip_ms(unbudgeted)


def test_bench_runs_the_exact_search_once_per_input(capsys, tmp_path, monkeypatch):
    """Every width of an input shares one exact search, seeded with the
    largest of its local-search matchings."""
    out_dir = tmp_path / "batch"
    run(capsys, "gen", "--n", "12", "--k", "3", "--alphabet", "4",
        "--seed", "0", "--count", "3", "--out", str(out_dir))
    monkeypatch.setenv("DUO_THREADS", "1")
    seeds = []
    value_search = cli.exact_max_value

    def spy(g, incumbent, budget):
        seeds.append(len(incumbent))
        return value_search(g, incumbent, budget)

    monkeypatch.setattr(cli, "exact_max_value", spy)
    code, out, _ = run(capsys, "bench", str(out_dir), "--rho", "1..5", "--with-exact")
    assert code == EXIT_OK
    rows = strip_ms(out)[1:]
    assert len(rows) == 15
    assert seeds == [max(int(r[5]) for r in rows[i:i + 5]) for i in range(0, 15, 5)]


def test_bench_csv_overwrites_a_longer_file(capsys, tmp_path, demo_file, monkeypatch):
    monkeypatch.setenv("DUO_THREADS", "1")
    csv_path = tmp_path / "out.csv"
    csv_path.write_text("stale\n" * 1000)
    code, _, _ = run(capsys, "bench", demo_file, "--with-exact", "--csv", str(csv_path))
    assert code == EXIT_OK
    text = csv_path.read_text()
    assert "stale" not in text
    assert strip_ms(text)[1:] == [["demo", "7", "2", "5", "5", "3", "3", "1/1", "2"]]


def test_bench_csv_to_dev_null(capsys, demo_file):
    assert run(capsys, "bench", demo_file, "--csv", os.devnull) == (EXIT_OK, "", "")


def test_bench_csv_to_a_pipe(capsys, demo_file):
    read_end, write_end = os.pipe()
    try:
        code, _, _ = run(capsys, "bench", demo_file, "--csv", f"/dev/fd/{write_end}")
    finally:
        os.close(write_end)
    with os.fdopen(read_end) as fh:
        text = fh.read()
    assert code == EXIT_OK
    assert strip_ms(text)[1:] == [["demo", "7", "2", "5", "5", "3", "", "", "2"]]


def test_bench_csv_through_a_symlink(capsys, tmp_path, demo_file):
    target = tmp_path / "real.csv"
    target.write_text("stale\n" * 100)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert run(capsys, "bench", demo_file, "--csv", str(link))[0] == EXIT_OK
    assert link.is_symlink()
    assert strip_ms(target.read_text())[1:] == [["demo", "7", "2", "5", "5", "3", "", "", "2"]]


def test_bench_csv_to_a_directory_is_a_usage_error(capsys, tmp_path, demo_file):
    code, out, err = run(capsys, "bench", demo_file, "--csv", str(tmp_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error:")


def test_solve_trace_overwrites_a_longer_file(capsys, tmp_path, demo_file):
    fresh, stale = tmp_path / "fresh.jsonl", tmp_path / "stale.jsonl"
    stale.write_text("{}\n" * 1000)
    for path in (fresh, stale):
        assert run(capsys, "solve", demo_file, "--trace", str(path))[0] == EXIT_OK
    assert stale.read_bytes() == fresh.read_bytes()


def test_gen_overwrites_longer_files(capsys, tmp_path):
    args = ["gen", "--n", "9", "--k", "3", "--alphabet", "4", "--seed", "11", "--count", "2"]
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    stale.mkdir()
    names = ["kduo_n9_k3_a4_s11.duo", "kduo_n9_k3_a4_s12.duo", "manifest.json"]
    for name in names:
        (stale / name).write_text("x" * 5000)
    for out_dir in (fresh, stale):
        assert run(capsys, *args, "--out", str(out_dir))[0] == EXIT_OK
    for name in names:
        assert (stale / name).read_bytes() == (fresh / name).read_bytes()


# ---------------------------------------------------------------- errors

def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/file.duo")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_malformed_instance_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.duo"
    bad.write_text("a b c\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == EXIT_USAGE


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_solve_rejects_bad_rho(capsys, demo_file):
    code, _, err = run(capsys, "solve", demo_file, "--rho", "0")
    assert code == EXIT_USAGE
    assert "rho" in err


@pytest.mark.parametrize("argv, reason", [
    (["bench", "{demo}", "--rho", "x"], "--rho takes"),
    (["bench", "{demo}", "--rho", "1.."], "--rho takes"),
    (["solve", "{demo}", "--max-iterations", "-1"], "max_iterations"),
    (["verify", "{demo}", "{opt}", "--local-opt", "--rho", "9"], "rho must be in 1..5"),
    (["solve", "{binary}"], "not UTF-8"),
    (["verify", "{demo}", "{binary}"], "not UTF-8"),
    (["bench", "{demo}", "--rho", "5..1"], "not '5..1'"),
    (["verify", "{demo}", "{far}", "--local-opt", "--rho", "0"], "rho must be in 1..5"),
])
def test_bad_flags_and_bytes_are_usage_errors(capsys, tmp_path, demo_file, argv, reason):
    binary = tmp_path / "binary.duo"
    binary.write_bytes(b"a b \xff\nb a\n")
    opt = tmp_path / "opt.txt"
    opt.write_text("2 1\n3 2\n5 5\n")
    far = tmp_path / "far.txt"
    far.write_text("99 99\n")
    argv = [a.format(demo=demo_file, binary=binary, opt=opt, far=far) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error:") and reason in err


@pytest.mark.parametrize("raised, code, message", [
    (MemoryError, EXIT_BUDGET, "out of memory"),
    (KeyboardInterrupt, 130, "interrupted"),
])
def test_memory_error_and_interrupt_exit_codes(capsys, demo_file, monkeypatch,
                                               raised, code, message):
    def failing(g, config):
        raise raised()

    monkeypatch.setattr(cli.localsearch, "local_search", failing)
    assert run(capsys, "solve", demo_file) == (code, "", f"error: {message}\n")


def test_internal_value_error_is_not_a_usage_error(capsys, demo_file, monkeypatch):
    # an exact value below the search's is a defect, which ratio_report
    # rejects with ValueError; it must not read as bad input
    monkeypatch.setenv("DUO_THREADS", "1")
    monkeypatch.setattr(cli, "exact_max_value", lambda g, incumbent, budget: (1, 0))
    with pytest.raises(ValueError, match="ls <= opt"):
        main(["bench", demo_file, "--rho", "1", "--with-exact"])


def test_parser_reused_across_calls(capsys, demo_file, stall_file):
    """The parser is built once per process; successive calls with other
    subcommands and a usage error in between see no state from each other."""
    first = [run(capsys, "solve", demo_file), run(capsys, "exact", demo_file)]
    with pytest.raises(SystemExit) as exc:
        main(["exact", demo_file, "--budget", "lots"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    assert run(capsys, "exact", stall_file, "--budget", "1")[0] == EXIT_BUDGET
    again = [run(capsys, "solve", demo_file), run(capsys, "exact", demo_file)]
    assert again == first
    assert first[0][0] == first[1][0] == EXIT_OK
    assert cli.build_parser() is cli.build_parser()


def test_token_conservation_failure_exits_1(capsys, tmp_path, demo_file, monkeypatch):
    class Overcounted(list):
        def __len__(self):
            return super().__len__() + 1

    receivers = analysis._receivers
    monkeypatch.setattr(analysis, "_receivers", lambda *a: Overcounted(receivers(*a)))
    opt = tmp_path / "opt.txt"
    opt.write_text("2 1\n3 2\n5 5\n")
    code, out, err = run(capsys, "tokens", demo_file, str(opt), str(opt))
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err.startswith("error: token conservation violated")


def test_generator_cap_failure_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(StringInstance, "occurrence_cap", lambda self: 99)
    code, _, err = run(capsys, "gen", "--n", "6", "--k", "2", "--alphabet", "3",
                       "--out", str(tmp_path / "out"))
    assert code == EXIT_CHECK_FAILED
    assert err.startswith("error: generated pair repeats a symbol 99 times")

import csv
import json
import time

import pytest

from duomatch import analysis, cli
from duomatch.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from duomatch.core import StringInstance

from conftest import DEMO_TEXT, FIXTURES_DIR


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.duo"
    path.write_text(DEMO_TEXT + "\n")
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


def test_exact_budget_exhausted(capsys, demo_file):
    code, out, _ = run(capsys, "exact", demo_file, "--budget", "1")
    assert code == EXIT_BUDGET
    assert out.startswith("budget-exceeded lower-bound ")


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


def test_tokens_rejects_conflicting_matching(capsys, tmp_path, demo_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n3 1\n")
    opt = tmp_path / "opt.txt"
    opt.write_text("2 1\n3 2\n5 5\n")
    code, out, err = run(capsys, "tokens", demo_file, str(bad), str(opt))
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert "matching" in json.loads(err)["error"]


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


def test_parser_reused_across_calls(capsys, demo_file):
    """The parser is built once per process; successive calls with other
    subcommands and a usage error in between see no state from each other."""
    first = [run(capsys, "solve", demo_file), run(capsys, "exact", demo_file)]
    with pytest.raises(SystemExit) as exc:
        main(["exact", demo_file, "--budget", "lots"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    assert run(capsys, "exact", demo_file, "--budget", "1")[0] == EXIT_BUDGET
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

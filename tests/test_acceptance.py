"""End-to-end acceptance checks.

Each test is one verdict line under ``pytest -v``: the worked example, the
shipped locality-gap fixtures, bulk invariant sweeps over seeded random
instances, solver-oracle agreement, deterministic output, and the budgeted
graph-family search.  Numeric claims are checked in exact rational
arithmetic; wall-clock limits follow each check's stated budget.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from duomatch.analysis import (
    GUARANTEE_RHO1,
    GUARANTEE_RHO5,
    MAX_TOKEN_TOTAL,
    check_full_token_uniqueness,
    check_heavy_singleton_parallel_support,
    check_parallel_pair_conflict_gap,
    check_parallel_token_bound,
    ratio_report,
    token_report,
)
from duomatch.cli import main
from duomatch.core import DuoGraph, Edge, Matching, parse_instance
from duomatch.exact import exact_max_matching, exact_max_value
from duomatch.instances import (
    GRAPH_GAP_CAPS,
    STRING_GAP_CAPS,
    GapSearchSpec,
    GeneratorSpec,
    SearchBudgetError,
    gen_random_kduo,
    search_gap_instance,
    string_gap_fixture,
    swap_resistance_checklist,
)
from duomatch.localsearch import SolverConfig, is_local_optimum, local_search

import reference_exact
from conftest import DEMO_OPT, DEMO_TEXT, edges
from test_exact import enumerate_optimum


def bulk_specs():
    """200 deterministic small instances: n in 6..12, per-symbol cap 1..3,
    alphabet as tight as the cap allows (repetitive strings, dense graphs)."""
    specs = []
    for seed in range(200):
        n = 6 + seed % 7
        k = 1 + seed % 3
        alpha = max(2, -(-n // k))
        specs.append(GeneratorSpec(n=n, k=k, alphabet_size=alpha, seed=seed))
    return specs


def adversarial_specs():
    """50 maximally repetitive instances: every symbol at its cap."""
    return [
        GeneratorSpec(n=12, k=3, alphabet_size=4, seed=seed)
        for seed in range(1000, 1050)
    ]


_BULK: list[tuple[DuoGraph, Matching, int]] = []


def bulk_results():
    if not _BULK:
        for spec in bulk_specs():
            g = DuoGraph.from_strings(gen_random_kduo(spec))
            m, _ = local_search(g, SolverConfig(rho=5))
            _BULK.append((g, m, exact_max_matching(g).value))
    return _BULK


def test_worked_example_roundtrip(demo_graph, demo_instance):
    t0 = time.perf_counter()
    opt = Matching(edges(DEMO_OPT))
    assert [(e.i, e.j) for e in demo_graph.edges] == [
        (1, 5), (2, 1), (3, 2), (5, 5), (6, 1)
    ]
    assert len(opt) == 3
    from duomatch.core import partition_from_matching

    blocks = partition_from_matching(demo_instance, opt)
    assert ["".join(b) for b in blocks] == ["a", "bcd", "ab", "c"]
    res = exact_max_matching(demo_graph)
    assert res.value == 3 and list(res.witness) == list(opt.edges)
    m, _ = local_search(demo_graph, SolverConfig(rho=5))
    assert len(m) == 3
    assert time.perf_counter() - t0 < 1.0


def test_string_gap_fixture_certificate():
    t0 = time.perf_counter()
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    assert is_local_optimum(g, m, SolverConfig(rho=5, use_reduce=True))
    opt = exact_max_matching(g)
    assert opt.value == 10
    rep = ratio_report(len(m), opt.value)
    assert rep.ratio == Fraction(5, 3) and rep.within_guarantee
    checklist = swap_resistance_checklist(g, m, opt.witness, caps=STRING_GAP_CAPS)
    assert checklist.passed
    assert time.perf_counter() - t0 < 10.0


def test_token_conservation_bulk():
    t0 = time.perf_counter()
    for g, m, _ in bulk_results():
        opt = exact_max_matching(g).witness
        rep = token_report(g, m, opt)
        assert rep.total == len(opt)
    assert time.perf_counter() - t0 < 300.0


def test_structural_invariants_bulk():
    for g, m, _ in bulk_results():
        opt = exact_max_matching(g).witness
        rep = token_report(g, m, opt)
        assert rep.max_total() <= MAX_TOKEN_TOTAL
        for fn in (
            check_full_token_uniqueness,
            check_parallel_pair_conflict_gap,
            check_parallel_token_bound,
            check_heavy_singleton_parallel_support,
        ):
            result = fn(g, m, opt)
            assert result.passed, (fn.__name__, result.violations)


def test_ratio_guarantees_bulk():
    wide = SolverConfig(rho=5, use_reduce=True)
    narrow = SolverConfig(rho=1, use_reduce=False)
    checked = 0
    for g, m, opt_value in bulk_results():
        if opt_value == 0:
            continue
        assert ratio_report(len(m), opt_value, guarantee=GUARANTEE_RHO5).within_guarantee
        m1, _ = local_search(g, narrow)
        assert ratio_report(len(m1), opt_value, guarantee=GUARANTEE_RHO1).within_guarantee
        checked += 1
    for spec in adversarial_specs():
        g = DuoGraph.from_strings(gen_random_kduo(spec))
        opt_value = exact_max_matching(g).value
        if opt_value == 0:
            continue
        m5, _ = local_search(g, wide)
        m1, _ = local_search(g, narrow)
        assert ratio_report(len(m5), opt_value, guarantee=GUARANTEE_RHO5).within_guarantee
        assert ratio_report(len(m1), opt_value, guarantee=GUARANTEE_RHO1).within_guarantee
        checked += 1
    assert checked > 150


def test_value_search_matches_both_exact_searches_bulk():
    """The value-only search, seeded with the rho-5 matching and with
    nothing, against the witness search and the recursive reference."""
    for g, m, opt_value in bulk_results():
        assert reference_exact.exact_max_matching(g).value == opt_value
        assert exact_max_value(g, m)[0] == opt_value
        assert exact_max_value(g, Matching())[0] == opt_value
    for spec in adversarial_specs():
        g = DuoGraph.from_strings(gen_random_kduo(spec))
        opt_value = exact_max_matching(g).value
        assert reference_exact.exact_max_matching(g).value == opt_value
        assert exact_max_value(g, local_search(g, SolverConfig(rho=5))[0])[0] == opt_value


def test_solver_matches_enumeration():
    t0 = time.perf_counter()
    for seed in range(100):
        rng = random.Random(seed)
        m = rng.randint(2, 8)
        universe = [
            Edge(i, j)
            for i in range(1, m + 1)
            for j in range(1, m + 1)
        ]
        rng.shuffle(universe)
        g = DuoGraph(m, universe[: rng.randint(0, 12)])
        value, witness = enumerate_optimum(g)
        res = exact_max_matching(g)
        assert res.value == value
        assert tuple(res.witness) == tuple(witness)
    assert time.perf_counter() - t0 < 60.0


def test_deterministic_output(capsys, tmp_path):
    inst_dir = tmp_path / "inst"
    main(["gen", "--n", "10", "--k", "2", "--alphabet", "5",
          "--seed", "0", "--count", "3", "--out", str(inst_dir)])
    capsys.readouterr()

    solve_args = ["solve", str(inst_dir / "kduo_n10_k2_a5_s0.duo"),
                  "--rho", "5", "--seed", "13"]
    runs = []
    for _ in range(2):
        assert main(list(solve_args)) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]

    bench_rows = []
    for _ in range(2):
        assert main(["bench", str(inst_dir), "--rho", "1..5", "--with-exact"]) == 0
        out = capsys.readouterr().out
        bench_rows.append([ln.rsplit(",", 1)[0] for ln in out.splitlines()])
    assert bench_rows[0] == bench_rows[1]


#: The last line of scripts/output_digest.py: one SHA-256 over every
#: deterministic output of the solvers on its seeded corpus.  A change that
#: alters an output on purpose re-pins it and says why in CHANGES.md.
OUTPUT_DIGEST_ALL = "97a0afe683459414580adacd0aadbacfb202e30a98922a22bfe3041fd2f5b426  all"


def test_output_digest_is_pinned():
    script = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == OUTPUT_DIGEST_ALL, (
        "solver outputs changed; to see which, compare per-output lines with the parent:\n"
        "  python3 scripts/output_digest.py > new.txt\n"
        "  python3 scripts/output_digest.py --src ../parent/src > old.txt\n"
        "  diff old.txt new.txt"
    )


def test_graph_gap_search_budgeted():
    t0 = time.perf_counter()
    try:
        found = search_gap_instance(GapSearchSpec(m=26))
    except SearchBudgetError:
        # acceptable outcome: the budget ran out before the space did
        assert time.perf_counter() - t0 < 600.0
        return
    assert time.perf_counter() - t0 < 600.0
    assert found is not None
    assert found.checklist.passed
    assert tuple(it.cap for it in found.checklist.items[2:]) == GRAPH_GAP_CAPS
    opt_value = exact_max_matching(found.graph).value
    rep = ratio_report(len(found.matching), opt_value)
    assert rep.ratio == Fraction(13, 6)

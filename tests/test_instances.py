import json
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duomatch import instances
from duomatch.core import DuoGraph, Edge, InvariantError, Matching, compatible, parse_instance
from duomatch.exact import exact_max_matching
from duomatch.fileio import parse_graph, parse_matching_edges
from duomatch.instances import (
    GRAPH_GAP_CAPS,
    STRING_GAP_CAPS,
    GapSearchSpec,
    GeneratorSpec,
    InfeasibleSpecError,
    SearchBudgetError,
    SubsetBudgetError,
    gen_random_kduo,
    search_gap_instance,
    string_gap_fixture,
    swap_resistance_checklist,
)
from duomatch.localsearch import is_local_optimum

import reference_gap as ref
from conftest import FIXTURES_DIR


# ---------------------------------------------------------------- generator

def test_spec_validation():
    GeneratorSpec(n=6, k=2, alphabet_size=3, seed=0)
    with pytest.raises(InfeasibleSpecError):
        GeneratorSpec(n=1, k=1, alphabet_size=1, seed=0)
    with pytest.raises(InfeasibleSpecError):
        GeneratorSpec(n=4, k=0, alphabet_size=4, seed=0)
    with pytest.raises(InfeasibleSpecError):
        GeneratorSpec(n=7, k=2, alphabet_size=3, seed=0)


def test_spec_id():
    spec = GeneratorSpec(n=10, k=2, alphabet_size=6, seed=41)
    assert spec.instance_id == "kduo_n10_k2_a6_s41"


def test_generator_deterministic():
    spec = GeneratorSpec(n=12, k=3, alphabet_size=5, seed=7)
    assert gen_random_kduo(spec) == gen_random_kduo(spec)
    other = gen_random_kduo(GeneratorSpec(n=12, k=3, alphabet_size=5, seed=8))
    assert gen_random_kduo(spec) != other


def test_generator_respects_cap_and_permutation():
    for seed in range(20):
        spec = GeneratorSpec(n=11, k=2, alphabet_size=8, seed=seed)
        inst = gen_random_kduo(spec)
        assert inst.n == 11
        assert sorted(inst.a) == sorted(inst.b)
        assert inst.occurrence_cap() <= 2
        assert inst.alphabet <= {f"s{i}" for i in range(8)}


def test_generator_tight_spec():
    # alphabet_size * k == n forces every symbol to its cap
    inst = gen_random_kduo(GeneratorSpec(n=6, k=2, alphabet_size=3, seed=5))
    assert all(inst.a.count(s) == 2 for s in inst.alphabet)


# ---------------------------------------------------------------- string fixture

def test_string_gap_fixture_shape():
    inst, m = string_gap_fixture()
    assert inst.a == tuple("abcdefbcdeg")
    assert inst.b == inst.a
    assert [(e.i, e.j) for e in m.edges] == [
        (2, 7), (3, 8), (4, 9), (7, 2), (8, 3), (9, 4)
    ]


def test_string_gap_fixture_gap():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    assert all(e in g.edge_set for e in m.edges)
    assert exact_max_matching(g).value == 10
    ok, cert = is_local_optimum(g, m)
    assert ok and cert.rho == 5


# ---------------------------------------------------------------- checklist

def test_checklist_on_string_fixture():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    report = swap_resistance_checklist(g, m, opt, caps=STRING_GAP_CAPS)
    assert report.passed
    assert [it.name for it in report.items] == [
        "maximal", "all-parallel", "swap-1", "swap-2", "swap-3", "swap-4", "swap-5"
    ]
    observed = tuple(report.item(f"swap-{t}").observed for t in range(1, 6))
    assert observed == STRING_GAP_CAPS


def test_checklist_flags_non_maximal():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    smaller = Matching(m.edges[:-1])
    report = swap_resistance_checklist(g, smaller, opt, caps=STRING_GAP_CAPS)
    assert not report.passed
    assert not report.item("maximal").passed


def test_checklist_trivial_when_matching_is_optimum(demo_graph):
    g = parse_graph((FIXTURES_DIR / "graph_gap_26.mcbm").read_text())
    diag = Matching(e for e in g.edges if e.i == e.j)
    report = swap_resistance_checklist(g, diag, diag)
    assert report.passed
    # removing t optimum edges lets exactly those t edges re-enter
    assert all(report.item(f"swap-{t}").observed == t for t in range(1, 6))


def test_checklist_budget():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    with pytest.raises(SubsetBudgetError):
        swap_resistance_checklist(g, m, opt, caps=STRING_GAP_CAPS, subset_budget=3)


# ---------------------------------------------------------------- gap search

def test_search_tiny_family():
    spec = GapSearchSpec(m=7, matching_size=2, anchors=(), caps=(1,))
    found = search_gap_instance(spec)
    assert found is not None
    assert [(e.i, e.j) for e in found.matching.edges] == [(2, 5), (3, 6)]
    assert [(e.i, e.j) for e in found.optimum.edges] == [(i, i) for i in range(1, 8)]
    assert found.checklist.passed
    assert len(found.graph.edges) == 9


def test_search_rejects_checklist_disagreement(monkeypatch):
    real = instances.swap_resistance_checklist

    def failing(*args, **kwargs):
        report = real(*args, **kwargs)
        return instances.ChecklistReport(
            tuple(replace(item, passed=False) for item in report.items)
        )

    monkeypatch.setattr(instances, "swap_resistance_checklist", failing)
    spec = GapSearchSpec(m=7, matching_size=2, anchors=(), caps=(1,))
    with pytest.raises(InvariantError, match="disagrees with the checklist"):
        search_gap_instance(spec)


def test_string_gap_fixture_rejects_singletons(monkeypatch):
    monkeypatch.setattr(instances, "singletons_of", lambda m: frozenset(m.edges[:1]))
    with pytest.raises(InvariantError, match="all parallel"):
        string_gap_fixture()


def test_search_infeasible_returns_none():
    spec = GapSearchSpec(m=5, matching_size=12, anchors=(), caps=(1,))
    assert search_gap_instance(spec) is None


def test_search_budget():
    with pytest.raises(SearchBudgetError):
        search_gap_instance(GapSearchSpec(m=26, max_nodes=50))


# ---------------------------------------------------------------- shipped files

def test_shipped_string_fixture_matches_source():
    inst, m = string_gap_fixture()
    assert parse_instance((FIXTURES_DIR / "string_gap.duo").read_text()) == inst
    got = parse_matching_edges((FIXTURES_DIR / "string_gap.matching").read_text())
    assert list(got) == list(m.edges)
    cert = json.loads((FIXTURES_DIR / "string_gap.json").read_text())
    assert cert["exact"] == 10
    assert cert["ratio"] == "5/3"
    assert cert["local_optimum_rho5"] is True


def test_shipped_graph_fixture_certified():
    g = parse_graph((FIXTURES_DIR / "graph_gap_26.mcbm").read_text())
    cert = json.loads((FIXTURES_DIR / "graph_gap_26.json").read_text())
    assert g.m == 26 and len(g.edges) == cert["edges"]
    matching = Matching(
        parse_matching_edges((FIXTURES_DIR / "graph_gap_26.matching").read_text())
    )
    assert len(matching) == 12
    assert exact_max_matching(g).value == 26
    diag = Matching(Edge(i, i) for i in range(1, 27))
    report = swap_resistance_checklist(g, matching, diag)
    assert report.passed
    observed = tuple(report.item(f"swap-{t}").observed for t in range(1, 6))
    assert observed == GRAPH_GAP_CAPS
    assert cert["ratio"] == "13/6"


# ---------------------------------------------------------------- against the reference

@st.composite
def checklist_cases(draw):
    """A graph plus a matching and an optimum drawn from all m x m edges,
    so either may hold edges outside the graph."""
    m = draw(st.integers(2, 9))
    pool = [Edge(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    g = DuoGraph(m, draw(st.lists(st.sampled_from(pool), max_size=20, unique=True)))

    def matching():
        chosen: list[Edge] = []
        for e in draw(st.lists(st.sampled_from(list(g.edges) + pool), max_size=12, unique=True)):
            if all(compatible(e, f) for f in chosen):
                chosen.append(e)
        return Matching(chosen)

    caps = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)))
    return g, matching(), matching(), caps


@settings(max_examples=150, deadline=None)
@given(checklist_cases())
def test_checklist_matches_reference(case):
    g, matching, optimum, caps = case
    got = swap_resistance_checklist(g, matching, optimum, caps)
    assert got == ref.swap_resistance_checklist(g, matching, optimum, caps)


def test_checklist_matches_reference_on_fixtures():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    for matching in (m, Matching(m.edges[:-1]), opt):
        got = swap_resistance_checklist(g, matching, opt, STRING_GAP_CAPS)
        assert got == ref.swap_resistance_checklist(g, matching, opt, STRING_GAP_CAPS)


def test_checklist_counts_one_entrant_scan_per_subset(monkeypatch):
    calls = []
    real = instances._entrants

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(instances, "_entrants", counting)
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    swap_resistance_checklist(g, m, exact_max_matching(g).witness, STRING_GAP_CAPS)
    assert len(calls) == sum(comb(len(m), t) for t in range(1, 6))


@pytest.mark.parametrize("m", range(2, 13))
def test_run_table_rows_match_runs_compatible(m):
    runs = instances._candidate_runs(m, 3)
    table = instances._RunTable(runs, m)
    assert table.all == (1 << len(runs)) - 1
    for k, r in enumerate(runs):
        expected = sum(1 << x for x, s in enumerate(runs) if instances._runs_compatible(r, s))
        assert table.row(k) == expected
    # anchor runs of any length need not be in the table
    for i, j in combinations(range(1, m + 1), 2):
        for a, b in ((i, j), (j, i)):
            for ell in (1, 4):
                if max(a, b) + ell - 1 > m:
                    continue
                r = instances._Run(a, b, ell, m)
                expected = sum(
                    1 << x for x, s in enumerate(runs) if instances._runs_compatible(r, s)
                )
                assert table.compatible_mask(r) == expected


def assert_search_matches_reference(spec):
    """Same result, same leaf tests and the same node count as the search
    as first written; node counts are compared through the budget."""
    stats: dict = {}
    expected = ref.search_gap_instance(spec, stats)
    verdicts = []
    real = instances._diag_caps_hold

    def counting(*args):
        verdicts.append(1)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instances, "_diag_caps_hold", counting)
        got = search_gap_instance(spec)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.matching == expected.matching
        assert got.optimum == expected.optimum
        assert (got.graph.m, got.graph.edges) == (expected.graph.m, expected.graph.edges)
        assert got.checklist == expected.checklist
    assert len(verdicts) == stats["verdicts"]
    nodes = stats["nodes"]
    for budget in sorted({1, nodes // 3, nodes // 2, nodes - 1, nodes, nodes + 1} - {-1, 0}):
        budgeted = replace(spec, max_nodes=budget)
        outcomes = []
        for search in (search_gap_instance, ref.search_gap_instance):
            try:
                search(budgeted)
                outcomes.append(False)
            except SearchBudgetError:
                outcomes.append(True)
        assert outcomes == [budget < nodes] * 2


GAP_CASES = [
    GapSearchSpec(m=7, matching_size=2, anchors=(), caps=(1,)),
    GapSearchSpec(m=10, matching_size=4, anchors=(), caps=(1, 2)),
    GapSearchSpec(m=10, matching_size=6, anchors=(Edge(2, 5),), caps=(1, 2), max_run_length=3),
    GapSearchSpec(m=12, matching_size=6, anchors=(Edge(2, 5), Edge(3, 6)), caps=(1, 2, 3)),
    GapSearchSpec(m=12, matching_size=7, anchors=(), caps=(0, 2, 2), max_run_length=3),
    GapSearchSpec(m=12, matching_size=6, anchors=(Edge(1, 5), Edge(2, 6), Edge(6, 1), Edge(7, 2)),
                  caps=(1, 2)),
    GapSearchSpec(m=14, matching_size=7, anchors=(Edge(2, 6), Edge(3, 7)), caps=(1, 2),
                  max_run_length=3),
    GapSearchSpec(m=14, matching_size=6, anchors=(Edge(2, 8), Edge(3, 9)), caps=(1, 2, 3)),
    GapSearchSpec(m=14, matching_size=4, anchors=(Edge(2, 6), Edge(3, 7), Edge(6, 2), Edge(7, 3)),
                  caps=(1, 2, 3)),
    GapSearchSpec(m=9, matching_size=12, anchors=(), caps=(1,)),
]


@pytest.mark.parametrize("spec", GAP_CASES, ids=lambda s: f"m{s.m}-size{s.matching_size}-"
                         f"a{len(s.anchors)}-L{s.max_run_length}")
def test_gap_search_matches_reference(spec):
    assert_search_matches_reference(spec)


@st.composite
def gap_specs(draw):
    m = draw(st.integers(6, 12))
    anchors: list[Edge] = []
    # up to two anchor runs; a run of one edge makes the spec infeasible
    for _ in range(draw(st.integers(0, 2))):
        ell = draw(st.integers(1, 3))
        i, j = draw(st.tuples(st.integers(1, m - ell + 1), st.integers(1, m - ell + 1)))
        anchors += [Edge(i + t, j + t) for t in range(ell)]
    return GapSearchSpec(
        m=m,
        # fewer than m/4 edges cannot cover the diagonal
        matching_size=draw(st.integers((m + 3) // 4, 7)),
        anchors=tuple(anchors),
        caps=tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))),
        max_run_length=draw(st.sampled_from((2, 3))),
    )


@settings(max_examples=40, deadline=None)
@given(gap_specs())
def test_gap_search_matches_reference_on_random_specs(spec):
    assert_search_matches_reference(spec)

import json
from dataclasses import replace

import pytest

from duomatch import instances
from duomatch.core import DuoGraph, Edge, InvariantError, Matching, parse_instance
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

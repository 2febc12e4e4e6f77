import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duomatch.core import DuoGraph, Edge, Matching, compatible, parse_instance
from duomatch.exact import (
    BudgetExceededError,
    exact_max_matching,
    exact_min_partition_size,
)

import reference_exact as ref
from conftest import DEMO_OPT, edges
from test_core import graphs, string_pairs


def enumerate_optimum(g: DuoGraph):
    """2^|E| reference: optimum value and the lex-least maximum matching."""
    best_value = 0
    best_sets = [()]
    for r in range(1, len(g.edges) + 1):
        found = [
            s for s in itertools.combinations(g.edges, r)
            if all(compatible(a, b) for a, b in itertools.combinations(s, 2))
        ]
        if found:
            best_value = r
            best_sets = found
    return best_value, min(best_sets) if best_value else ()


def test_demo_exact(demo_graph):
    res = exact_max_matching(demo_graph)
    assert res.value == 3
    assert res.witness == Matching(edges(DEMO_OPT))
    assert res.nodes_explored > 0


def test_empty_graph():
    res = exact_max_matching(DuoGraph(3, []))
    assert res.value == 0 and len(res.witness) == 0


def test_single_edge():
    res = exact_max_matching(DuoGraph(2, [Edge(1, 2)]))
    assert res.value == 1


@settings(max_examples=60, deadline=None)
@given(graphs(max_m=6, max_edges=12))
def test_matches_subset_enumeration(g):
    value, lex_least = enumerate_optimum(g)
    res = exact_max_matching(g)
    assert res.value == value
    assert res.witness.edges == tuple(lex_least)


def assert_same_as_reference(g):
    res, want = exact_max_matching(g), ref.exact_max_matching(g)
    assert res.value == want.value
    assert res.witness == want.witness
    assert res.nodes_explored <= want.nodes_explored


@settings(max_examples=150, deadline=None)
@given(graphs(max_m=9, max_edges=30))
def test_graph_matches_reference(g):
    assert_same_as_reference(g)


@settings(max_examples=100, deadline=None)
@given(string_pairs(max_n=12))
def test_string_pair_matches_reference(inst):
    assert_same_as_reference(DuoGraph.from_strings(inst))


@settings(max_examples=60, deadline=None)
@given(graphs(max_m=8, max_edges=24), st.data())
def test_budget_transparent_or_valid_incumbent(g, data):
    full = exact_max_matching(g)
    budget = data.draw(st.integers(0, full.nodes_explored + 3))
    if budget >= full.nodes_explored:
        assert exact_max_matching(g, budget=budget) == full
        return
    with pytest.raises(BudgetExceededError) as exc:
        exact_max_matching(g, budget=budget)
    best = exc.value.best
    assert exc.value.budget == budget
    assert best.nodes_explored == budget + 1
    assert best.value == len(best.witness) <= full.value
    assert all(e in g for e in best.witness)


def test_clique_bound_cuts_conflict_clique():
    """Edges sharing one A-position pairwise conflict, so one clique covers
    them: after the first leaf no sibling can beat 1."""
    g = DuoGraph(6, [Edge(1, j) for j in range(1, 7)])
    res = exact_max_matching(g)
    assert res.value == 1 and res.witness == Matching([Edge(1, 1)])
    assert res.nodes_explored == 2
    assert ref.exact_max_matching(g).nodes_explored == 6


def test_budget_exhaustion(demo_graph):
    with pytest.raises(BudgetExceededError) as exc:
        exact_max_matching(demo_graph, budget=2)
    best = exc.value.best
    assert 0 <= best.value <= 3
    assert len(best.witness) == best.value


def test_negative_budget_rejected(demo_graph):
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        exact_max_matching(demo_graph, budget=-1)


def test_budget_large_enough_is_transparent(demo_graph):
    res = exact_max_matching(demo_graph, budget=10_000)
    assert res.value == 3


def test_min_partition_demo(demo_instance):
    assert exact_min_partition_size(demo_instance) == 4


def test_min_partition_identical_strings():
    assert exact_min_partition_size(parse_instance("ab\nab")) == 1
    assert exact_min_partition_size(parse_instance("ab\nba")) == 2


@settings(max_examples=40, deadline=None)
@given(string_pairs(max_n=7))
def test_min_partition_in_range(inst):
    blocks = exact_min_partition_size(inst)
    assert 1 <= blocks <= inst.n

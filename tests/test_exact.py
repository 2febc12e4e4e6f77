import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duomatch.core import (
    DuoGraph,
    Edge,
    EdgeNotInGraphError,
    Matching,
    StringInstance,
    compatible,
    parse_instance,
)
from duomatch.exact import (
    BudgetExceededError,
    ExactResult,
    exact_max_matching,
    exact_max_value,
)
from duomatch.localsearch import SolverConfig, local_search

import reference_exact as ref
from conftest import DEMO_OPT, STALL_TEXT, balanced_graph, edges
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


def test_greedy_seed_ends_a_conflict_clique_at_the_root():
    """Edges sharing one A-position pairwise conflict, so one clique covers
    them: the seed, the rho-1 local search's greedy matching, already holds
    one edge, the lowest, and no candidate can beat it."""
    g = DuoGraph(6, [Edge(1, j) for j in range(1, 7)])
    res = exact_max_matching(g)
    assert res.value == 1 and res.witness == Matching([Edge(1, 1)])
    assert res.nodes_explored == 1
    assert ref.exact_max_matching(g).nodes_explored == 6


def test_budget_exhaustion():
    """The search starts from the rho-1 local search's matching, so a budget
    of 0 stops at the root with it, and larger budgets keep it until the
    search beats it."""
    g = DuoGraph.from_strings(parse_instance(STALL_TEXT))
    rho1 = local_search(g, SolverConfig(rho=1))[0]
    assert rho1 == Matching(edges([(1, 2), (2, 3)]))
    for budget in range(4):
        with pytest.raises(BudgetExceededError) as exc:
            exact_max_matching(g, budget=budget)
        assert exc.value.best == ExactResult(2, rho1, budget + 1)
    assert exact_max_matching(g, budget=4) == exact_max_matching(g)


def test_negative_budget_rejected(demo_graph):
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        exact_max_matching(demo_graph, budget=-1)


def test_budget_large_enough_is_transparent(demo_graph):
    res = exact_max_matching(demo_graph, budget=10_000)
    assert res.value == 3


# ------------------------------------------------------- value-only search

@st.composite
def graphs_with_incumbents(draw, max_m=6, max_edges=12):
    """A small graph with a matching drawn from its lex-least optimum."""
    g = draw(graphs(max_m=max_m, max_edges=max_edges))
    _, lex_least = enumerate_optimum(g)
    return g, Matching(draw(st.lists(st.sampled_from(lex_least), unique=True))
                       if lex_least else ())


@settings(max_examples=80, deadline=None)
@given(graphs_with_incumbents())
def test_value_matches_subset_enumeration(case):
    g, incumbent = case
    value, nodes = exact_max_value(g, incumbent)
    assert value == enumerate_optimum(g)[0]
    assert nodes >= 1


@settings(max_examples=100, deadline=None)
@given(string_pairs(max_n=12))
def test_value_matches_reference_from_empty_and_local_search(inst):
    g = DuoGraph.from_strings(inst)
    want = ref.exact_max_matching(g).value
    assert exact_max_value(g, Matching())[0] == want
    assert exact_max_value(g, local_search(g, SolverConfig(rho=1))[0])[0] == want


DENSE_PAIRS = [(24, 1), (24, 2), (28, 2), (32, 3), (36, 4), (40, 7), (44, 5), (48, 6), (48, 2)]


@pytest.mark.parametrize("n, seed", DENSE_PAIRS)
def test_value_matches_exact_on_dense_pairs(n, seed):
    """Dense alphabet-4 pairs, seeded with nothing and with the rho-1 local
    search; the recursive reference runs only at n=24, where it takes well
    under a second (n=36 takes minutes)."""
    g = balanced_graph(n, 4, seed)
    want = exact_max_matching(g).value
    if n == 24:
        assert ref.exact_max_matching(g).value == want
    assert exact_max_value(g, Matching())[0] == want
    assert exact_max_value(g, local_search(g, SolverConfig(rho=1))[0])[0] == want


def test_value_takes_one_node_when_the_incumbent_is_a_diagonal():
    """Identity n=2000: 1999 pairwise compatible edges, so one clique per
    edge, and the local search's matching of all of them ends the search
    at the root."""
    ident = tuple(f"x{t}" for t in range(2000))
    g = DuoGraph.from_strings(StringInstance(ident, ident))
    m, _ = local_search(g, SolverConfig(rho=1))
    assert exact_max_value(g, m) == (1999, 1)


def test_value_search_is_not_bound_by_the_recursion_limit():
    """From the empty matching the identity pair takes one level per edge,
    past Python's default recursion limit of 1000."""
    ident = tuple(f"x{t}" for t in range(1100))
    g = DuoGraph.from_strings(StringInstance(ident, ident))
    assert exact_max_value(g, Matching()) == (1099, 1100)


@settings(max_examples=60, deadline=None)
@given(graphs_with_incumbents(max_m=8, max_edges=20), st.data())
def test_value_budget_transparent_or_carries_a_compatible_witness(case, data):
    g, incumbent = case
    value, nodes = exact_max_value(g, incumbent)
    budget = data.draw(st.integers(0, nodes + 3))
    if budget >= nodes:
        assert exact_max_value(g, incumbent, budget) == (value, nodes)
        return
    with pytest.raises(BudgetExceededError) as exc:
        exact_max_value(g, incumbent, budget)
    best = exc.value.best
    assert exc.value.budget == budget
    assert best.nodes_explored == budget + 1
    assert len(incumbent) <= best.value == len(best.witness) <= value
    assert Matching(best.witness) == best.witness
    assert all(e in g for e in best.witness)


def test_value_budget_on_a_dense_pair_carries_a_better_witness():
    g = balanced_graph(48, 4, 9)
    m, _ = local_search(g, SolverConfig(rho=1))
    with pytest.raises(BudgetExceededError) as exc:
        exact_max_value(g, m, budget=500)
    best = exc.value.best
    assert best.nodes_explored == 501
    assert len(m) < best.value == len(best.witness) <= 26
    assert Matching(best.witness) == best.witness and all(e in g for e in best.witness)


def test_value_budget_zero_returns_the_incumbent(demo_graph):
    incumbent = Matching([Edge(2, 1)])
    with pytest.raises(BudgetExceededError) as exc:
        exact_max_value(demo_graph, incumbent, 0)
    assert exc.value.best == ExactResult(1, incumbent, 1)


def test_value_rejects_bad_arguments(demo_graph):
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        exact_max_value(demo_graph, Matching(), -1)
    # the budget is checked before the incumbent
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        exact_max_value(demo_graph, Matching([Edge(4, 4)]), -1)
    with pytest.raises(EdgeNotInGraphError):
        exact_max_value(demo_graph, Matching([Edge(4, 4)]), None)


@pytest.mark.parametrize("n, alphabet, seed", [
    (60, 4, 7), (64, 4, 5), (80, 8, 1), (100, 8, 2), (120, 10, 3), (120, 12, 5),
])
def test_value_matches_milp(n, alphabet, seed):
    """Balanced pairs up to n=120 against an integer program."""
    pytest.importorskip("scipy")
    from milp_oracle import milp_max_matching

    g = balanced_graph(n, alphabet, seed)
    optimum = milp_max_matching(g)
    assert all(e in g for e in optimum)
    assert exact_max_value(g, local_search(g, SolverConfig(rho=1))[0])[0] == len(optimum)


def test_value_search_beats_the_witness_search_on_dense_n24():
    """The 150 dense n=24 pairs of the bench-exact benchmark corpus build
    (alphabet 4, edge count fixed at 33): seeded with the rho-1 matching,
    the value search explores fewer nodes in total than the lex-least
    witness search."""
    rng = random.Random("bench-exact:1")
    value_nodes = matching_nodes = 0
    for _ in range(150):
        while True:
            a = [chr(ord("a") + t % 4) for t in range(24)]
            rng.shuffle(a)
            b = a.copy()
            rng.shuffle(b)
            g = DuoGraph.from_strings(StringInstance(tuple(a), tuple(b)))
            if len(g.edges) == 33:
                break
        full = exact_max_matching(g)
        value, nodes = exact_max_value(g, local_search(g, SolverConfig(rho=1))[0])
        assert value == full.value
        value_nodes += nodes
        matching_nodes += full.nodes_explored
    assert value_nodes < matching_nodes


# ------------------------------------------------- witness past n = 50

PINNED_WITNESSES = {
    # the lex-least maximum matchings returned by the include-first
    # depth-first search this module ran before the colour-ordered one
    (40, 7): [(1, 18), (3, 31), (4, 32), (6, 9), (7, 10), (8, 11), (10, 21), (12, 39),
              (14, 29), (17, 23), (19, 27), (22, 36), (23, 37), (26, 25), (28, 5), (30, 1),
              (31, 2), (33, 15), (34, 16), (37, 13), (39, 7)],
    (48, 9): [(1, 4), (3, 29), (4, 30), (5, 31), (8, 34), (10, 12), (11, 13), (13, 18),
              (14, 19), (16, 15), (17, 16), (19, 26), (21, 36), (23, 6), (24, 7), (25, 8),
              (27, 23), (30, 41), (31, 42), (35, 47), (37, 10), (39, 39), (41, 21), (43, 44),
              (44, 45), (46, 1)],
}


@pytest.mark.parametrize("n, seed", sorted(PINNED_WITNESSES))
def test_witness_on_dense_pairs_is_pinned(n, seed):
    res = exact_max_matching(balanced_graph(n, 4, seed))
    assert [(e.i, e.j) for e in res.witness] == PINNED_WITNESSES[n, seed]
    assert res.value == len(res.witness)


@pytest.mark.parametrize("n, seed, nodes", [(52, 7, 4968), (60, 7, 53529)])
def test_witness_past_n50_matches_milp(n, seed, nodes):
    """Dense alphabet-4 pairs the include-first search needed 539k and more
    than 2M nodes for."""
    g = balanced_graph(n, 4, seed)
    res = exact_max_matching(g)
    assert res.nodes_explored == nodes
    assert Matching(res.witness) == res.witness and all(e in g for e in res.witness)
    pytest.importorskip("scipy")
    from milp_oracle import milp_max_matching

    assert res.value == len(res.witness) == len(milp_max_matching(g))


def test_budget_in_the_witness_phase_carries_an_optimum():
    """On (48, 4, 9) the optimum is known after 29,628 of the 47,265 nodes,
    so a budget of 40,000 runs out while the witness is being fixed and
    reports a maximum matching."""
    g = balanced_graph(48, 4, 9)
    with pytest.raises(BudgetExceededError) as exc:
        exact_max_matching(g, budget=40_000)
    best = exc.value.best
    assert best.value == len(best.witness) == 26 and best.nodes_explored == 40_001
    assert Matching(best.witness) == best.witness and all(e in g for e in best.witness)

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_analysis

from duomatch.analysis import (
    GUARANTEE_RHO1,
    GUARANTEE_RHO5,
    HEAVY_SHARE_COMBINATIONS,
    MAX_TOKEN_TOTAL,
    TokenReport,
    check_full_token_uniqueness,
    check_heavy_singleton_parallel_support,
    check_parallel_pair_conflict_gap,
    check_parallel_token_bound,
    format_rational,
    ratio_report,
    token_profile,
    token_report,
)
from duomatch.core import DuoError, DuoGraph, Edge, EdgeNotInGraphError, Matching
from duomatch.exact import exact_max_matching
from duomatch.instances import string_gap_fixture
from duomatch.localsearch import NotMaximalError, SolverConfig, greedy_maximal, local_search

from conftest import DEMO_OPT, edges
from test_core import graphs, greedy_matching_of


def diagonal(m):
    return Matching(Edge(i, i) for i in range(1, m + 1))


def with_diagonal(m, extra):
    return DuoGraph(m, list(diagonal(m).edges) + list(extra))


# ---------------------------------------------------------------- report

def test_identity_tokens(demo_graph):
    opt = Matching(edges(DEMO_OPT))
    rep = token_report(demo_graph, opt, opt)
    assert rep.total == 3
    assert all(v == 1 for v in rep.per_sol_edge.values())
    assert all(c == 1 for c in rep.per_opt_edge.values())


def test_string_gap_fixture_tokens():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    rep = token_report(g, m, opt)
    assert rep.total == 10
    assert [rep.per_opt_edge[e] for e in opt.edges] == [2, 4, 6, 4, 2, 2, 4, 6, 4, 2]
    assert rep.per_sol_edge[Edge(2, 7)] == Fraction(11, 6)
    assert rep.max_total() == Fraction(11, 6)


def test_not_maximal_matching_rejected(demo_graph):
    with pytest.raises(NotMaximalError):
        token_report(demo_graph, Matching([Edge(2, 1)]), Matching(edges(DEMO_OPT)))


def test_non_optimal_reference_allowed(demo_graph):
    """The reference matching need not be optimal or maximal on its own;
    totals still conserve against its size."""
    m = Matching(edges(DEMO_OPT))
    rep = token_report(demo_graph, m, Matching([Edge(1, 5)]))
    assert rep.total == 1
    assert rep.per_sol_edge[Edge(2, 1)] == Fraction(1, 2)
    assert rep.per_sol_edge[Edge(5, 5)] == Fraction(1, 2)
    assert rep.per_sol_edge[Edge(3, 2)] == 0


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_conservation_on_search_terminals(g):
    if not g.edges:
        return
    m, _ = local_search(g)
    opt = exact_max_matching(g).witness
    rep = token_report(g, m, opt)
    assert rep.total == len(opt)
    assert sum(len(v) for v in rep.shares.values()) >= len(
        [e for e in opt.edges if e not in set(m.edges)]
    )


# ---------------------------------------------------------------- combinations

def test_heavy_combination_totals():
    totals = sorted(sum(c) for c in HEAVY_SHARE_COMBINATIONS)
    assert totals == sorted(
        [Fraction(3), Fraction(3), Fraction(3), Fraction(91, 30),
         Fraction(37, 12), Fraction(19, 6), Fraction(13, 4), Fraction(10, 3)]
    )
    assert max(totals) == MAX_TOKEN_TOTAL
    assert all(len(c) == 6 for c in HEAVY_SHARE_COMBINATIONS)


# ---------------------------------------------------------------- checks

def test_checks_pass_on_string_gap_fixture():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    assert check_full_token_uniqueness(g, m, opt)
    assert check_parallel_pair_conflict_gap(g, m, opt)
    assert check_parallel_token_bound(g, m, opt)
    assert check_heavy_singleton_parallel_support(g, m, opt)
    prof = token_profile(token_report(g, m, opt))
    assert prof.max_ok and prof.combos_ok and not prof.heavy


def test_full_token_uniqueness_violation():
    # both reference edges give their whole token to the same matching edge;
    # a width-1 replace would trade it for the two of them
    g = DuoGraph(5, [Edge(3, 3), Edge(2, 4), Edge(4, 2)])
    m = Matching([Edge(3, 3)])
    opt = Matching([Edge(2, 4), Edge(4, 2)])
    res = check_full_token_uniqueness(g, m, opt)
    assert not res.passed
    assert res.violations[0][0] == Edge(3, 3)
    # and the search indeed escapes that matching
    terminal, _ = local_search(g)
    assert len(terminal) == 2


def test_overloaded_singleton_violations():
    # a lone matching edge soaking up six whole tokens trips the singleton
    # support check, the uniqueness check, and the total bound at once
    g = with_diagonal(6, [Edge(2, 5)])
    m = Matching([Edge(2, 5)])
    opt = diagonal(6)
    rep = token_report(g, m, opt)
    assert rep.per_sol_edge[Edge(2, 5)] == 6
    assert not check_heavy_singleton_parallel_support(g, m, opt)
    assert not check_full_token_uniqueness(g, m, opt)
    prof = token_profile(rep)
    assert not prof.max_ok
    assert prof.bad_combos


def test_parallel_token_bound_violation():
    # two stacked parallel edges absorbing seven tokens: 7/2 each
    g = with_diagonal(7, [Edge(2, 5), Edge(3, 6)])
    m = Matching([Edge(2, 5), Edge(3, 6)])
    opt = diagonal(7)
    rep = token_report(g, m, opt)
    assert rep.per_sol_edge[Edge(2, 5)] == Fraction(7, 2)
    res = check_parallel_token_bound(g, m, opt)
    assert not res.passed
    prof = token_profile(rep)
    assert not prof.max_ok and prof.bad_combos


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_checks_pass_on_width5_terminals(g):
    if not g.edges:
        return
    m, _ = local_search(g, SolverConfig(rho=5))
    opt = exact_max_matching(g).witness
    assert check_full_token_uniqueness(g, m, opt)
    assert check_parallel_pair_conflict_gap(g, m, opt)
    assert check_parallel_token_bound(g, m, opt)
    assert check_heavy_singleton_parallel_support(g, m, opt)


CHECKS = (check_full_token_uniqueness, check_parallel_pair_conflict_gap,
          check_parallel_token_bound, check_heavy_singleton_parallel_support)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_checks_reuse_a_given_report(g):
    m, _ = local_search(g, SolverConfig(rho=1, use_reduce=False))
    opt = exact_max_matching(g).witness
    report = token_report(g, m, opt)
    for check in CHECKS:
        assert check(g, m, opt, report=report) == check(g, m, opt)


def test_checks_read_the_given_report():
    # a report claiming the parallel pair got 3 tokens each trips the bound
    # even though the real report would not
    g = with_diagonal(7, [Edge(2, 5), Edge(3, 6)])
    m = Matching([Edge(2, 5), Edge(3, 6)])
    opt = Matching([Edge(1, 1)])
    real = token_report(g, m, opt)
    assert check_parallel_token_bound(g, m, opt, report=real)
    doctored = TokenReport(real.per_opt_edge, {e: Fraction(3) for e in m.edges},
                           real.shares, real.total)
    assert not check_parallel_token_bound(g, m, opt, report=doctored)


def test_parallel_pair_gap_reads_the_given_report():
    # the real receiver counts of consecutive diagonal edges differ by at
    # most 1; a report raising (3, 3)'s count by 3 opens a gap of 3 to both
    # of its parallel neighbours, under both matching edges that conflict
    # with each pair
    g = with_diagonal(7, [Edge(2, 5), Edge(3, 6)])
    m = Matching([Edge(2, 5), Edge(3, 6)])
    opt = diagonal(7)
    real = token_report(g, m, opt)
    assert check_parallel_pair_conflict_gap(g, m, opt, report=real)
    per_opt = {**real.per_opt_edge, Edge(3, 3): real.per_opt_edge[Edge(3, 3)] + 3}
    doctored = TokenReport(per_opt, real.per_sol_edge, real.shares, real.total)
    res = check_parallel_pair_conflict_gap(g, m, opt, report=doctored)
    assert not res.passed
    assert res.violations == tuple(
        (k, Edge(f, f), Edge(f + 1, f + 1), 3) for k in m.edges for f in (2, 3))


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and text of the package error it
    raises."""
    try:
        return fn(*args, **kwargs)
    except DuoError as exc:
        return type(exc), str(exc)


@st.composite
def diagonal_graphs(draw):
    """A diagonal optimum plus off-diagonal edges, where few matching edges
    can collect many tokens."""
    m = draw(st.integers(4, 10))
    pool = [Edge(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
    return with_diagonal(m, draw(st.lists(st.sampled_from(pool), max_size=12, unique=True)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(), diagonal_graphs()), st.integers(0, 1000))
def test_analysis_matches_reference(g, seed):
    """Reports, check results and errors equal those of the edge-set
    reference, for rho 1 and rho 5 terminals, a seeded greedy matching and
    a non-maximal one against the exact witness, in both role orders."""
    witness = exact_max_matching(g).witness
    greedy = greedy_maximal(g, config=SolverConfig(seed=seed))
    rivals = [local_search(g, SolverConfig(rho=rho))[0] for rho in (1, 5)]
    rivals += [greedy, Matching(greedy.edges[1:])]
    for rival in rivals:
        for m, opt in ((rival, witness), (witness, rival)):
            assert outcome(token_report, g, m, opt) == outcome(
                reference_analysis.token_report, g, m, opt)
            for check, reference in zip(CHECKS, reference_analysis.CHECKS):
                assert outcome(check, g, m, opt) == outcome(reference, g, m, opt)


#: Two parallel runs around (5, 5): one on rows 4-6, one on columns 4-6, so
#: all six conflict with (5, 5), the most receivers one token can have.
SIX_RECEIVERS = [Edge(4, 8), Edge(5, 9), Edge(6, 10), Edge(8, 4), Edge(9, 5), Edge(10, 6)]

#: Consecutive optimum edges (5, 5) and (6, 6) with 3 and 1 receivers, both
#: charged against (5, 10): the gap check's bound of 2 is reached.
GAP_OF_TWO = (DuoGraph(10, [Edge(4, 9), Edge(5, 10), Edge(9, 4), Edge(5, 5), Edge(6, 6)]),
              [(4, 9), (5, 10), (9, 4)], [(5, 5), (6, 6)])

BOUNDARY_CASES = [
    # a parallel pair at a token total of exactly 3
    (with_diagonal(9, [Edge(2, 4), Edge(3, 5), Edge(3, 8), Edge(5, 9), Edge(8, 6), Edge(9, 8)]),
     [(2, 4), (3, 5), (7, 7), (8, 8), (9, 9)], diagonal(9).edges),
    (with_diagonal(6, [Edge(2, 5)]), [(2, 5)], diagonal(6).edges),
    (with_diagonal(7, [Edge(2, 5), Edge(3, 6)]), [(2, 5), (3, 6)], diagonal(7).edges),
    (DuoGraph(5, [Edge(3, 3), Edge(2, 4), Edge(4, 2)]), [(3, 3)], [(2, 4), (4, 2)]),
    # an optimum edge split six and five ways: the largest share denominators
    (DuoGraph(10, [Edge(5, 5), *SIX_RECEIVERS]), SIX_RECEIVERS, [(5, 5)]),
    (DuoGraph(10, [Edge(5, 5), *SIX_RECEIVERS[:5]]), SIX_RECEIVERS[:5], [(5, 5)]),
    GAP_OF_TWO,
]


@pytest.mark.parametrize("g, m_edges, opt_edges", BOUNDARY_CASES)
def test_analysis_matches_reference_on_hand_made_cases(g, m_edges, opt_edges):
    m, opt = Matching(m_edges), Matching(opt_edges)
    for a, b in ((m, opt), (opt, m)):
        assert outcome(token_report, g, a, b) == outcome(reference_analysis.token_report, g, a, b)
        for check, reference in zip(CHECKS, reference_analysis.CHECKS):
            assert outcome(check, g, a, b) == outcome(reference, g, a, b)


def test_largest_share_denominators():
    for receivers in (SIX_RECEIVERS, SIX_RECEIVERS[:5]):
        r = len(receivers)
        g = DuoGraph(10, [Edge(5, 5), *receivers])
        m, opt = Matching(receivers), Matching([Edge(5, 5)])
        rep = token_report(g, m, opt)
        assert rep.per_opt_edge == {Edge(5, 5): r}
        assert rep.per_sol_edge == dict.fromkeys(receivers, Fraction(1, r))
        assert rep.shares == dict.fromkeys(receivers, (Fraction(1, r),))
        assert rep.total == 1
        swapped = token_report(g, opt, m)
        assert swapped.per_opt_edge == dict.fromkeys(receivers, 1)
        assert swapped.per_sol_edge == {Edge(5, 5): r}
        assert swapped.shares == {Edge(5, 5): (Fraction(1),) * r}
        assert swapped.total == r


@st.composite
def graph_matching_pairs(draw):
    """A graph and two maximal matchings of it, each grown greedily over its
    own drawn order of the edges.  Every other edge drawn by ``graphs`` gets
    its successor (i+1, j+1), so that parallel pairs occur."""
    drawn = draw(graphs())
    g = DuoGraph(drawn.m + 1, [*drawn.edges, *(Edge(i + 1, j + 1) for i, j in drawn.edges[::2])])
    m, opt = (Matching(greedy_matching_of(g, draw(st.permutations(g.edges))))
              for _ in range(2))
    return g, m, opt


@settings(max_examples=200, deadline=None)
@given(graph_matching_pairs())
def test_parallel_pair_conflict_gap_cannot_fail(gmo):
    """Parallel edges (i, j) and (i+1, j+1) outside a matching conflict
    with the same matching edges except those on row i-1 or column j-1
    against those on row i+2 or column j+2, at most two each, so their
    receiver counts differ by at most 2 for any matching, and the check
    passes on every report."""
    g, m, opt = gmo
    in_m = frozenset(m.edges)

    def receivers(e):
        return sum(f in in_m for f in g.conflict_set(e))

    for f in g.edges:
        s = Edge(f.i + 1, f.j + 1)
        if s in g and f not in in_m and s not in in_m:
            assert abs(receivers(f) - receivers(s)) <= 2
    assert check_parallel_pair_conflict_gap(g, m, opt)
    assert check_parallel_pair_conflict_gap(g, opt, m)


def test_parallel_pair_conflict_gap_bound_is_reached():
    g, m_edges, opt_edges = GAP_OF_TWO
    m, opt = Matching(m_edges), Matching(opt_edges)
    assert token_report(g, m, opt).per_opt_edge == {Edge(5, 5): 3, Edge(6, 6): 1}
    assert check_parallel_pair_conflict_gap(g, m, opt)


def test_edges_outside_the_graph_are_rejected():
    g = DuoGraph(8, [Edge(1, 1), Edge(2, 2), Edge(3, 3)])
    inside = Matching(g.edges)
    outside = Matching([*g.edges, Edge(7, 7)])
    report = token_report(g, inside, inside)
    for m, opt in ((outside, inside), (inside, outside)):
        with pytest.raises(EdgeNotInGraphError):
            token_report(g, m, opt)
        for check in CHECKS:
            with pytest.raises(EdgeNotInGraphError):
                check(g, m, opt)
            with pytest.raises(EdgeNotInGraphError):
                check(g, m, opt, report=report)


# ---------------------------------------------------------------- ratios

def test_ratio_values():
    assert ratio_report(6, 10).ratio == Fraction(5, 3)
    assert ratio_report(6, 10).within_guarantee
    assert ratio_report(12, 26).ratio == Fraction(13, 6)
    assert ratio_report(4, 4).ratio == 1
    r = ratio_report(1, 4)
    assert r.ratio == 4 and not r.within_guarantee


def test_ratio_infinite():
    r = ratio_report(0, 5)
    assert r.ratio is None and not r.within_guarantee


def test_ratio_guarantee_boundaries():
    assert ratio_report(12, 35).ratio == GUARANTEE_RHO5
    assert ratio_report(12, 35).within_guarantee
    assert not ratio_report(12, 36).within_guarantee
    assert ratio_report(2, 7, guarantee=GUARANTEE_RHO1).within_guarantee
    assert not ratio_report(2, 8, guarantee=GUARANTEE_RHO1).within_guarantee


def test_ratio_input_validation():
    for ls, opt in ((-1, 3), (4, 3), (0, 0), (3, 0)):
        with pytest.raises(ValueError):
            ratio_report(ls, opt)


def test_format_rational():
    assert format_rational(Fraction(5, 3)) == "5/3"
    assert format_rational(Fraction(10)) == "10/1"
    assert format_rational(None) == "inf"

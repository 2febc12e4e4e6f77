from fractions import Fraction

import pytest
from hypothesis import given, settings

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
from duomatch.core import DuoGraph, Edge, Matching
from duomatch.exact import exact_max_matching
from duomatch.instances import string_gap_fixture
from duomatch.localsearch import NotMaximalError, SolverConfig, local_search

from conftest import DEMO_OPT, edges
from test_core import graphs


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

"""Reference token accounting and structural checks, kept as the
differential oracle.

These are the analysis functions as they were before they moved onto the
graph's bitmasks: every rule is spelled out on edge sets.  An optimum edge
outside the matching hands its token to the matching edges in its
:meth:`~duomatch.core.DuoGraph.conflict_set`, parallels and singletons come
from :func:`singleton_partition`, and the optimum edges charged against a
matching edge are the optimum edges outside the matching that conflict
with it.  :mod:`duomatch.analysis` must give equal reports, check results
and exceptions on every pair of matchings of the graph.
"""

from __future__ import annotations

from fractions import Fraction

from duomatch.analysis import CheckResult, TokenReport
from duomatch.core import DuoGraph, Edge, InvariantError, Matching, singleton_partition
from duomatch.localsearch import NotMaximalError


def _conflicts_in(g: DuoGraph, e: Edge, among) -> list[Edge]:
    """The edges of ``among`` conflicting with ``e`` in lexicographic order;
    EdgeNotInGraphError when ``e`` is not a graph edge."""
    return [f for f in g.conflict_set(e) if f in among]


def token_report(g: DuoGraph, matching: Matching, optimum: Matching) -> TokenReport:
    m_set = frozenset(matching.edges)
    per_opt: dict[Edge, int] = {}
    share_lists: dict[Edge, list[Fraction]] = {e: [] for e in matching.edges}
    for e_opt in optimum.edges:
        recv = [e_opt] if e_opt in m_set else _conflicts_in(g, e_opt, m_set)
        if not recv:
            raise NotMaximalError(
                f"optimum edge {e_opt} conflicts with no matching edge"
            )
        per_opt[e_opt] = len(recv)
        share = Fraction(1, len(recv))
        for f in recv:
            share_lists[f].append(share)
    shares = {
        e: tuple(sorted(vals, reverse=True)) for e, vals in share_lists.items()
    }
    per_sol = {e: sum(vals, Fraction(0)) for e, vals in shares.items()}
    total = sum(per_sol.values(), Fraction(0))
    if total != len(optimum):
        raise InvariantError(
            f"token conservation violated: totals sum to {total}, |M*| = {len(optimum)}"
        )
    return TokenReport(per_opt, per_sol, shares, total)


def _charged(g: DuoGraph, matching: Matching, optimum: Matching, e: Edge) -> list[Edge]:
    """The optimum edges outside the matching that conflict with ``e``."""
    return _conflicts_in(g, e, frozenset(optimum.edges) - frozenset(matching.edges))


def check_full_token_uniqueness(g, matching, optimum, *, report=None) -> CheckResult:
    if report is None:
        report = token_report(g, matching, optimum)
    violations = []
    for e in matching.edges:
        sole = [f for f in _charged(g, matching, optimum, e) if report.per_opt_edge[f] == 1]
        if len(sole) > 1:
            violations.append((e, tuple(sole)))
    return CheckResult("full_token_uniqueness", not violations, tuple(violations))


def check_parallel_pair_conflict_gap(g, matching, optimum, *, report=None) -> CheckResult:
    if report is None:
        report = token_report(g, matching, optimum)
    violations = []
    for e in matching.edges:
        against = _charged(g, matching, optimum, e)
        for f in against:
            succ = Edge(f.i + 1, f.j + 1)
            if succ in against:
                gap = abs(report.per_opt_edge[f] - report.per_opt_edge[succ])
                if gap > 2:
                    violations.append((e, f, succ, gap))
    return CheckResult("parallel_pair_conflict_gap", not violations, tuple(violations))


def check_parallel_token_bound(g, matching, optimum, *, report=None) -> CheckResult:
    if report is None:
        report = token_report(g, matching, optimum)
    _, parallels = singleton_partition(matching.edges)
    violations = tuple(
        (e, report.per_sol_edge[e])
        for e in sorted(parallels)
        if report.per_sol_edge[e] >= 3
    )
    return CheckResult("parallel_token_bound", not violations, violations)


def check_heavy_singleton_parallel_support(g, matching, optimum, *,
                                           report=None) -> CheckResult:
    if report is None:
        report = token_report(g, matching, optimum)
    singletons, parallels = singleton_partition(matching.edges)
    violations = []
    for e in sorted(singletons):
        if report.per_sol_edge[e] < 3:
            continue
        supported = any(
            h in parallels
            for f in _charged(g, matching, optimum, e)
            for h in _conflicts_in(g, f, frozenset(matching.edges))
        )
        if not supported:
            violations.append((e, report.per_sol_edge[e]))
    return CheckResult(
        "heavy_singleton_parallel_support", not violations, tuple(violations)
    )


CHECKS = (check_full_token_uniqueness, check_parallel_pair_conflict_gap,
          check_parallel_token_bound, check_heavy_singleton_parallel_support)

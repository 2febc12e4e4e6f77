"""Charging-argument diagnostics for terminal matchings.

Let M be a maximal matching and M* a reference optimum.  Every edge of M*
holds one token and spreads it evenly over the M-edges it conflicts with (an
edge belonging to both keeps its own token).  The per-M-edge totals then sum
to exactly |M*|, so bounding every total bounds the approximation ratio.
All arithmetic is exact via fractions.Fraction.

The check_* functions verify structural facts that hold at every terminal
matching of the width-5 search with reduce enabled; on other matchings they
can and should fail, which makes them useful smoke detectors.  Each builds
its own token report unless one is passed as ``report=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DuoGraph,
    Edge,
    InvariantError,
    Matching,
    compatible,
    singleton_partition,
)
from .localsearch import NotMaximalError

#: Largest token total any single matching edge can end up with at a
#: width-5 terminal matching.
MAX_TOKEN_TOTAL = Fraction(10, 3)

#: Ratio guarantee of the width-5 search with reduce enabled.
GUARANTEE_RHO5 = Fraction(35, 12)

#: Ratio guarantee of the width-1 search without reduce.
GUARANTEE_RHO1 = Fraction(7, 2)

_H = Fraction(1, 2)
_T = Fraction(1, 3)
_Q = Fraction(1, 4)

#: The only share multisets (padded with zeros to six entries, sorted
#: descending) that can accompany a token total of 3 or more at a width-5
#: terminal matching.  Totals: 10/3, 13/4, 19/6, 37/12, 91/30, 3, 3, 3.
HEAVY_SHARE_COMBINATIONS: frozenset[tuple[Fraction, ...]] = frozenset(
    {
        (Fraction(1), _H, _H, _H, _H, _T),
        (Fraction(1), _H, _H, _H, _H, _Q),
        (Fraction(1), _H, _H, _H, _T, _T),
        (Fraction(1), _H, _H, _H, _T, _Q),
        (Fraction(1), _H, _H, _H, _T, Fraction(1, 5)),
        (Fraction(1), _H, _H, _H, _Q, _Q),
        (Fraction(1), _H, _H, _T, _T, _T),
        (Fraction(1), _H, _H, _H, _H, Fraction(0)),
    }
)


@dataclass(frozen=True)
class TokenReport:
    """Token flow from an optimum M* into a maximal matching M.

    per_opt_edge: for each M*-edge, how many M-edges split its token.
    per_sol_edge: the token total collected by each M-edge.
    shares:       the individual fractions behind each total, descending.
    total:        sum of all totals; always exactly |M*|.
    """

    per_opt_edge: dict[Edge, int]
    per_sol_edge: dict[Edge, Fraction]
    shares: dict[Edge, tuple[Fraction, ...]]
    total: Fraction

    def max_total(self) -> Fraction:
        return max(self.per_sol_edge.values(), default=Fraction(0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.passed


def _receivers(g: DuoGraph, m_set: frozenset[Edge], e_opt: Edge) -> list[Edge]:
    if e_opt in m_set:
        return [e_opt]
    return [f for f in g.conflict_set(e_opt) if f in m_set]


def token_report(g: DuoGraph, matching: Matching, optimum: Matching) -> TokenReport:
    """Distribute optimum tokens over the matching and tally the totals.

    Raises NotMaximalError if some optimum edge conflicts with no matching
    edge (and is not itself in the matching): its token would have nowhere
    to go, which is exactly a failure of maximality against that edge.
    """
    m_set = frozenset(matching.edges)
    per_opt: dict[Edge, int] = {}
    share_lists: dict[Edge, list[Fraction]] = {e: [] for e in matching.edges}
    for e_opt in optimum.edges:
        recv = _receivers(g, m_set, e_opt)
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


def _opt_conflicts(g: DuoGraph, optimum: Matching, e: Edge) -> list[Edge]:
    opt_set = set(optimum.edges)
    return [f for f in g.conflict_set(e) if f in opt_set]


def check_full_token_uniqueness(g: DuoGraph, matching: Matching,
                                optimum: Matching, *,
                                report: TokenReport | None = None) -> CheckResult:
    """No matching edge collects two whole tokens: among the optimum edges
    conflicting with it, at most one has conflict count exactly 1."""
    if report is None:
        report = token_report(g, matching, optimum)
    m_set = frozenset(matching.edges)
    violations = []
    for e in matching.edges:
        sole = [
            f for f in _opt_conflicts(g, optimum, e)
            if f not in m_set and report.per_opt_edge[f] == 1
        ]
        if len(sole) > 1:
            violations.append((e, tuple(sole)))
    return CheckResult("full_token_uniqueness", not violations, tuple(violations))


def check_parallel_pair_conflict_gap(g: DuoGraph, matching: Matching,
                                     optimum: Matching, *,
                                     report: TokenReport | None = None) -> CheckResult:
    """Consecutive optimum edges charged against the same matching edge have
    conflict counts within 2 of each other."""
    if report is None:
        report = token_report(g, matching, optimum)
    m_set = frozenset(matching.edges)
    violations = []
    for e in matching.edges:
        against = [f for f in _opt_conflicts(g, optimum, e) if f not in m_set]
        against_set = set(against)
        for f in against:
            succ = Edge(f.i + 1, f.j + 1)
            if succ in against_set:
                gap = abs(report.per_opt_edge[f] - report.per_opt_edge[succ])
                if gap > 2:
                    violations.append((e, f, succ, gap))
    return CheckResult("parallel_pair_conflict_gap", not violations, tuple(violations))


def check_parallel_token_bound(g: DuoGraph, matching: Matching,
                               optimum: Matching, *,
                               report: TokenReport | None = None) -> CheckResult:
    """Parallel matching edges stay strictly below a token total of 3."""
    if report is None:
        report = token_report(g, matching, optimum)
    _, parallels = singleton_partition(matching.edges)
    violations = tuple(
        (e, report.per_sol_edge[e])
        for e in sorted(parallels)
        if report.per_sol_edge[e] >= 3
    )
    return CheckResult("parallel_token_bound", not violations, violations)


def check_heavy_singleton_parallel_support(g: DuoGraph, matching: Matching,
                                           optimum: Matching, *,
                                           report: TokenReport | None = None) -> CheckResult:
    """Every singleton with token total >= 3 has a parallel matching edge
    within two conflict hops: some matching edge that conflicts with one of
    the optimum edges charged against the singleton."""
    if report is None:
        report = token_report(g, matching, optimum)
    singletons, parallels = singleton_partition(matching.edges)
    m_set = frozenset(matching.edges)
    violations = []
    for e in sorted(singletons):
        if report.per_sol_edge[e] < 3:
            continue
        two_hop: set[Edge] = set()
        for f in _opt_conflicts(g, optimum, e):
            if f in m_set:
                continue
            two_hop.update(x for x in g.conflict_set(f) if x in m_set)
        if not (two_hop & parallels):
            violations.append((e, report.per_sol_edge[e]))
    return CheckResult(
        "heavy_singleton_parallel_support", not violations, tuple(violations)
    )


@dataclass(frozen=True)
class TokenProfile:
    """Shape summary of a token report: the extreme total, every edge at
    total >= 3 with its zero-padded share multiset, and which of those
    multisets fall outside the known feasible combinations."""

    max_total: Fraction
    heavy: tuple[tuple[Edge, tuple[Fraction, ...]], ...]
    max_ok: bool
    combos_ok: bool
    bad_combos: tuple[tuple[Edge, tuple[Fraction, ...]], ...]


def token_profile(report: TokenReport) -> TokenProfile:
    """Summarize a report against the width-5 terminal-shape expectations.

    Violations are reported, never raised: profiles of matchings that are
    not width-5 terminal are legitimately out of shape.
    """
    heavy = []
    bad = []
    for e in sorted(report.per_sol_edge):
        if report.per_sol_edge[e] < 3:
            continue
        vals = list(report.shares[e])
        while len(vals) < 6:
            vals.append(Fraction(0))
        multiset = tuple(sorted(vals, reverse=True))
        heavy.append((e, multiset))
        if multiset not in HEAVY_SHARE_COMBINATIONS:
            bad.append((e, multiset))
    max_total = report.max_total()
    return TokenProfile(
        max_total=max_total,
        heavy=tuple(heavy),
        max_ok=max_total <= MAX_TOKEN_TOTAL,
        combos_ok=not bad,
        bad_combos=tuple(bad),
    )


@dataclass(frozen=True)
class RatioReport:
    """Optimum-to-heuristic ratio as an exact rational; ``ratio`` is None
    when the heuristic value is 0 (infinite ratio)."""

    ls_value: int
    opt_value: int
    ratio: Fraction | None
    within_guarantee: bool
    guarantee: Fraction


def ratio_report(ls_value: int, opt_value: int,
                 guarantee: Fraction = GUARANTEE_RHO5) -> RatioReport:
    if not 0 <= ls_value <= opt_value or opt_value < 1:
        raise ValueError(
            f"need 0 <= ls <= opt and opt >= 1, got ls={ls_value} opt={opt_value}"
        )
    if ls_value == 0:
        return RatioReport(ls_value, opt_value, None, False, guarantee)
    ratio = Fraction(opt_value, ls_value)
    return RatioReport(ls_value, opt_value, ratio, ratio <= guarantee, guarantee)


def format_rational(x: Fraction | None) -> str:
    return "inf" if x is None else f"{x.numerator}/{x.denominator}"

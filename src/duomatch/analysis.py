"""Charging-argument diagnostics for terminal matchings.

Let M be a maximal matching and M* a reference optimum.  Every edge of M*
holds one token and spreads it evenly over the M-edges it conflicts with (an
edge belonging to both keeps its own token).  The per-M-edge totals then sum
to exactly |M*|, so bounding every total bounds the approximation ratio.
An optimum edge has at most six receivers (one matching edge on each of
three rows and three columns), so every share is a whole number of
sixtieths.  :func:`token_report` tallies integer sixtieths and builds each
``Fraction`` it reports once, so the arithmetic stays exact without any
``Fraction`` arithmetic in its loops, and the checks read conflicts off
the graph's conflict masks.

The check_* functions verify structural facts that hold at every terminal
matching of the width-5 search with reduce enabled; on other matchings they
can and should fail, which makes them useful smoke detectors.  Each builds
its own token report unless one is passed as ``report=``.

M and M* must be matchings of the graph (EdgeNotInGraphError otherwise); all
work runs on their masks over its conflict index.  The optimum edges
charged against a matching edge are its conflicts among the optimum edges
outside the matching.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .core import (DuoGraph, Edge, InvariantError, Matching, NotMaximalError, _lonely, _mask,
                   _positions, _union)

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


#: The share 1/r of a token split r ways, indexed by r = 1..6.
_SHARE = (None, *(Fraction(1, r) for r in range(1, 7)))


@functools.cache
def _sixtieths(n: int) -> Fraction:
    """``Fraction(n, 60)``, built once per n; a token total is at most six
    whole tokens, so n stays at most 360."""
    return Fraction(n, 60)


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


def _receivers(g: DuoGraph, m_mask: int, k: int) -> tuple[int, ...]:
    """The bit positions of the matching edges sharing the token of optimum
    edge ``g.edges[k]``: k itself when the matching holds it, else the
    matching edges it conflicts with."""
    if m_mask >> k & 1:
        return (k,)
    return tuple(_positions(g.index.conf[k] & m_mask))


def token_report(g: DuoGraph, matching: Matching, optimum: Matching) -> TokenReport:
    """Distribute optimum tokens over the matching and tally the totals.

    An optimum edge has at most six receivers: the matching holds at most
    one edge per A-position and per B-position, and the conflicts of (i, j)
    lie on rows i-1..i+1 and columns j-1..j+1.  So every share 1/r is a
    whole number 60 // r of sixtieths, the totals are summed and checked
    for conservation as integers, and each public Fraction is built once.

    Raises NotMaximalError if some optimum edge conflicts with no matching
    edge (and is not itself in the matching): its token would have nowhere
    to go, which is exactly a failure of maximality against that edge.
    """
    m_mask = _mask(g, matching)
    edges = g.edges
    per_opt: dict[Edge, int] = {}
    counts: dict[int, list[int]] = {k: [] for k in _positions(m_mask)}
    for k in _positions(_mask(g, optimum)):
        recv = _receivers(g, m_mask, k)
        r = len(recv)
        if not r:
            raise NotMaximalError(
                f"optimum edge {edges[k]} conflicts with no matching edge"
            )
        per_opt[edges[k]] = r
        for f in recv:
            counts[f].append(r)
    sixtieths = {k: sum([60 // r for r in rs]) for k, rs in counts.items()}
    total = sum(sixtieths.values())
    if total != 60 * len(optimum):
        raise InvariantError(
            f"token conservation violated: totals sum to {Fraction(total, 60)}, "
            f"|M*| = {len(optimum)}"
        )
    per_sol = {edges[k]: _sixtieths(t) for k, t in sixtieths.items()}
    shares = {edges[k]: tuple([_SHARE[r] for r in sorted(rs)]) for k, rs in counts.items()}
    return TokenReport(per_opt, per_sol, shares, Fraction(len(optimum)))


def _masks_and_report(g: DuoGraph, matching: Matching, optimum: Matching,
                      report: TokenReport | None) -> tuple[int, int, TokenReport]:
    """The masks of both matchings over ``g`` (EdgeNotInGraphError for an
    edge outside g) and the given report, or a fresh one when none is."""
    m_mask, opt_mask = _mask(g, matching), _mask(g, optimum)
    if report is None:
        report = token_report(g, matching, optimum)
    return m_mask, opt_mask, report


def check_full_token_uniqueness(g: DuoGraph, matching: Matching,
                                optimum: Matching, *,
                                report: TokenReport | None = None) -> CheckResult:
    """No matching edge collects two whole tokens: among the optimum edges
    charged against it, at most one has conflict count exactly 1."""
    m_mask, opt_mask, report = _masks_and_report(g, matching, optimum, report)
    edges, per_opt = g.edges, report.per_opt_edge
    sole = 0
    for f in _positions(opt_mask & ~m_mask):
        if per_opt[edges[f]] == 1:
            sole |= 1 << f
    conf = g.index.conf
    violations = []
    for k in _positions(m_mask):
        hit = conf[k] & sole
        if hit & (hit - 1):
            violations.append((edges[k], tuple([edges[f] for f in _positions(hit)])))
    return CheckResult("full_token_uniqueness", not violations, tuple(violations))


def check_parallel_pair_conflict_gap(g: DuoGraph, matching: Matching,
                                     optimum: Matching, *,
                                     report: TokenReport | None = None) -> CheckResult:
    """Consecutive optimum edges charged against the same matching edge have
    conflict counts within 2 of each other.

    This cannot fail on a correct report: (i, j) and (i+1, j+1) conflict
    with the same rows and columns except row i-1 and column j-1 against
    row i+2 and column j+2, each of which holds at most one matching edge,
    so their receiver counts differ by at most 2.  It stays as a check of
    the report it is given.  The gap of a pair does not depend on the
    matching edge, so the pairs more than 2 apart are found first and then
    matched against each matching edge's conflicts.
    """
    m_mask, opt_mask, report = _masks_and_report(g, matching, optimum, report)
    charged = opt_mask & ~m_mask
    edges, per_opt = g.edges, report.per_opt_edge
    conf, par = g.index.conf, g.index.par
    wide = []
    for f in _positions(charged):
        s = par[f].bit_length() - 1  # (i+1, j+1) is the higher parallel bit
        if s > f and charged >> s & 1:
            gap = abs(per_opt[edges[f]] - per_opt[edges[s]])
            if gap > 2:
                wide.append((f, s, gap))
    violations = tuple((edges[k], edges[f], edges[s], gap)
                       for k in _positions(m_mask) for f, s, gap in wide
                       if conf[k] >> f & conf[k] >> s & 1)
    return CheckResult("parallel_pair_conflict_gap", not violations, violations)


def check_parallel_token_bound(g: DuoGraph, matching: Matching,
                               optimum: Matching, *,
                               report: TokenReport | None = None) -> CheckResult:
    """Parallel matching edges stay strictly below a token total of 3."""
    m_mask, _, report = _masks_and_report(g, matching, optimum, report)
    parallels = [g.edges[k] for k in _positions(m_mask & ~_lonely(g.index.par, m_mask, m_mask))]
    totals = [(e, report.per_sol_edge[e]) for e in parallels]
    violations = tuple((e, x) for e, x in totals if x.numerator >= 3 * x.denominator)
    return CheckResult("parallel_token_bound", not violations, violations)


def check_heavy_singleton_parallel_support(g: DuoGraph, matching: Matching,
                                           optimum: Matching, *,
                                           report: TokenReport | None = None) -> CheckResult:
    """Every singleton with token total >= 3 has a parallel matching edge
    within two conflict hops: some matching edge that conflicts with one of
    the optimum edges charged against the singleton."""
    m_mask, opt_mask, report = _masks_and_report(g, matching, optimum, report)
    par_mask = m_mask & ~_lonely(g.index.par, m_mask, m_mask)
    charged = opt_mask & ~m_mask
    conf = g.index.conf
    violations = []
    for k in _positions(m_mask & ~par_mask):
        e = g.edges[k]
        x = report.per_sol_edge[e]
        if x.numerator < 3 * x.denominator:
            continue
        if not _union(conf, conf[k] & charged) & par_mask:
            violations.append((e, x))
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
    for e, x in sorted(report.per_sol_edge.items()):
        if x.numerator < 3 * x.denominator:
            continue
        multiset = report.shares[e] + (Fraction(0),) * (6 - len(report.shares[e]))
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

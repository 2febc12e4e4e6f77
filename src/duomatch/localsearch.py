"""Local search over compatible matchings.

The solver repeats three moves until none applies:

1. greedily extend the matching to a maximal one, scanning edges in a fixed
   order;
2. *replace*: swap up to rho matching edges for rho + 1 pairwise-compatible
   edges (a strict size gain);
3. *reduce*: swap exactly rho edges for rho new ones that strictly lower the
   number of singleton edges at equal size.

Size can never decrease and, at fixed size, the singleton count strictly
drops on every reduce, so termination is guaranteed without any iteration
cap.  With identical configuration and input the whole run is deterministic:
subsets are scanned in lexicographic order over the ordered matching,
replacements take the first improvement found, and the incoming edge set is
the lexicographically first one the backtracking reaches.

All moves run as integer bitmask operations over the graph's shared
:class:`~duomatch.core.ConflictIndex`, and replace and reduce share one swap
enumerator.  For a rho-subset X of the matching, the entrants are the
non-matching edges whose conflicts with the matching are non-empty and lie
inside X; a subset with too few entrants to make the move is skipped
without a search.  The scan order is the one stated above, so every trace
is the same as that of a plain scan that tests each graph edge against
each kept edge.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import DuoError, DuoGraph, Edge, EdgeNotInGraphError, Matching

PHASE_GREEDY = "greedy"
PHASE_REPLACE = "replace"
PHASE_REDUCE = "reduce"
PHASE_TERMINATE = "terminate"

SCAN_LEX = "lex"
SCAN_REVERSE_LEX = "reverse-lex"

MAX_RHO = 5


class IterationCapError(DuoError):
    """Raised in diagnostic mode when max_iterations passes complete without
    termination; carries the matching and trace reached so far."""

    def __init__(self, matching: Matching, trace: "SearchTrace"):
        super().__init__(f"iteration cap hit at size {len(matching)}")
        self.matching = matching
        self.trace = trace


class NotMaximalError(DuoError):
    """A maximal matching was required but an extension exists."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`local_search`.

    rho bounds the swap width (1..5; the analysis machinery in
    :mod:`duomatch.analysis` is calibrated for 5).  ``use_reduce`` toggles
    the singleton-lowering move; switching it off with rho=1 gives the
    plain hill climber.  ``seed`` randomizes only the greedy extension
    order; subset scans stay ordered so runs remain reproducible.
    """

    rho: int = 5
    use_reduce: bool = True
    scan_order: str = SCAN_LEX
    max_iterations: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.rho <= MAX_RHO:
            raise ValueError(f"rho must be in 1..{MAX_RHO}, got {self.rho}")
        if self.scan_order not in (SCAN_LEX, SCAN_REVERSE_LEX):
            raise ValueError(f"unknown scan order {self.scan_order!r}")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


@dataclass(frozen=True)
class TraceStep:
    iteration: int
    phase: str
    size_before: int
    size_after: int
    singletons_before: int
    singletons_after: int
    removed: tuple[Edge, ...]
    added: tuple[Edge, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "iter": self.iteration,
                "phase": self.phase,
                "size_before": self.size_before,
                "size_after": self.size_after,
                "singletons_before": self.singletons_before,
                "singletons_after": self.singletons_after,
                "out": [[e.i, e.j] for e in self.removed],
                "in": [[e.i, e.j] for e in self.added],
            }
        )


@dataclass(frozen=True)
class SearchTrace:
    steps: tuple[TraceStep, ...]

    def to_json_lines(self) -> str:
        return "".join(s.to_json() + "\n" for s in self.steps)

    @property
    def iterations(self) -> int:
        return self.steps[-1].iteration + 1 if self.steps else 0


@dataclass(frozen=True)
class LocalOptCertificate:
    """Evidence of a completed neighborhood scan around a matching."""

    rho: int
    use_reduce: bool
    size: int
    singletons: int
    exhaustive: bool
    replace_subsets_scanned: int
    reduce_subsets_scanned: int


def _ordered(items, scan_order: str) -> list:
    return sorted(items, reverse=(scan_order == SCAN_REVERSE_LEX))


def _mask(g: DuoGraph, edges) -> int:
    """Bitmask of ``edges`` over ``g.edges`` positions."""
    pos = g.index.pos
    try:
        return sum(1 << pos[e] for e in edges)
    except KeyError as exc:
        raise EdgeNotInGraphError(f"edge {exc.args[0]} not in graph") from None


def _positions(mask: int):
    """Set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _singletons(g: DuoGraph, mask: int) -> int:
    """Number of edges in ``mask`` with no parallel neighbour in ``mask``."""
    par = g.index.par
    return sum(1 for k in _positions(mask) if not par[k] & mask)


def _matching_of(g: DuoGraph, mask: int) -> Matching:
    return Matching(g.edges[k] for k in _positions(mask))


def greedy_maximal(g: DuoGraph, matching: Matching | None = None,
                   config: SolverConfig = SolverConfig()) -> Matching:
    """Extend ``matching`` to a maximal one, adding edges in scan order.

    With a seeded config the scan order is a reproducible shuffle instead.
    Idempotent once the matching is maximal.  Every edge of ``matching``
    must belong to ``g`` (EdgeNotInGraphError otherwise).
    """
    conf = g.index.conf
    taken = _mask(g, matching.edges) if matching is not None else 0
    if config.seed is not None:
        order = list(range(len(g.edges)))
        random.Random(config.seed).shuffle(order)
    else:
        order = _ordered(range(len(g.edges)), config.scan_order)
    for k in order:
        bit = 1 << k
        if not (conf[k] | bit) & taken:
            taken |= bit
    return _matching_of(g, taken)


def _first_subset(pool: int, conf, width: int, base: int, accept,
                  reverse: bool) -> int | None:
    """First pairwise-compatible ``width``-subset of the edges in ``pool``
    whose union with ``base`` passes ``accept``; returns that union.

    Subsets come in lexicographic order over the pool in scan order (lowest
    position first, or highest with ``reverse``).  ``avail`` holds the pool
    edges after the last pick that are compatible with every pick, so a
    branch ends as soon as too few of them remain.
    """

    def rec(avail: int, need: int, chosen: int) -> int | None:
        while avail.bit_count() >= need:
            k = avail.bit_length() - 1 if reverse else (avail & -avail).bit_length() - 1
            bit = 1 << k
            avail ^= bit
            if need == 1:
                if accept(base | chosen | bit):
                    return base | chosen | bit
            else:
                found = rec(avail & ~conf[k], need - 1, chosen | bit)
                if found is not None:
                    return found
        return None

    return rec(pool, width, 0)


def _first_swap(g: DuoGraph, matching: Matching, rho: int, scan_order: str,
                size: int, accept) -> tuple[Matching | None, int]:
    """The swap enumerator behind replace and reduce.

    Returns the first matching of ``size`` edges within swap distance rho of
    ``matching`` that passes ``accept`` (a test on its mask), together with
    the number of rho-subsets of the matching visited.  When the matching
    has at most rho edges every compatible ``size``-subset of the graph is a
    candidate and the count is 0.  Otherwise each rho-subset X is visited in
    scan order; its entrants are the non-matching edges whose conflicts
    with the matching are non-empty and lie inside X (for a maximal
    matching no other edge can enter).  Every entrant displaces at least one
    edge of X, so a subset with no entrant (reduce) or fewer than two
    (replace) is skipped without a search; else the pool X plus entrants is
    searched in scan order for the incoming edges.
    """
    conf = g.index.conf
    reverse = scan_order == SCAN_REVERSE_LEX
    if len(matching) <= rho:
        found = _first_subset((1 << len(g.edges)) - 1, conf, size, 0, accept, reverse)
        return (None if found is None else _matching_of(g, found)), 0
    m_mask = _mask(g, matching.edges)
    entrants = []
    for k, c in enumerate(conf):
        inside = c & m_mask
        if inside and not m_mask >> k & 1 and inside.bit_count() <= rho:
            entrants.append((1 << k, inside))
    if not entrants:
        return None, comb(len(matching), rho)
    m_pos = _ordered(_positions(m_mask), scan_order)
    width = size - len(matching) + rho
    scanned = 0
    for removed in combinations([1 << k for k in m_pos], rho):
        scanned += 1
        x = sum(removed)
        entering = sum(bit for bit, inside in entrants if not inside & ~x)
        # a net gain of width - rho edges needs more than width - rho entrants
        if entering.bit_count() <= width - rho:
            continue
        found = _first_subset(x | entering, conf, width, m_mask & ~x, accept, reverse)
        if found is not None:
            return _matching_of(g, found), scanned
    return None, scanned


def _grows(mask: int) -> bool:
    return True


def _lowers_singletons(g: DuoGraph, matching: Matching):
    """Acceptance test of the reduce move, or None when the matching has
    no singleton to lose."""
    base = _singletons(g, _mask(g, matching.edges))
    if base == 0:
        return None
    return lambda mask: _singletons(g, mask) < base


def replace_step(g: DuoGraph, matching: Matching, rho: int = 5,
                 scan_order: str = SCAN_LEX) -> Matching | None:
    """First-improvement size gain, or None when no rho-swap grows the
    matching.

    When the matching has at most rho edges the whole graph is searched for
    any matching one edge larger.  Otherwise every rho-subset X of the
    matching is scanned in order and the pool X plus its eligible entrants
    is searched for rho + 1 pairwise-compatible edges; keeping some of X in
    the replacement realizes every narrower swap, so widths below rho need
    no separate pass.
    """
    return _first_swap(g, matching, rho, scan_order, len(matching) + 1, _grows)[0]


def reduce_step(g: DuoGraph, matching: Matching, rho: int = 5,
                scan_order: str = SCAN_LEX) -> Matching | None:
    """Equal-size swap that strictly lowers the singleton count, or None.

    Mirrors :func:`replace_step`: an exhaustive same-size search when the
    matching has at most rho edges, otherwise rho-for-rho swaps drawn from
    each dropped subset's entrant pool.
    """
    accept = _lowers_singletons(g, matching)
    if accept is None:
        return None
    return _first_swap(g, matching, rho, scan_order, len(matching), accept)[0]


def local_search(g: DuoGraph, config: SolverConfig = SolverConfig()) -> tuple[Matching, SearchTrace]:
    """Run the full loop from the empty matching; returns the terminal
    matching and a step-by-step trace.

    Each iteration re-extends greedily (recorded only when it adds edges),
    then tries replace, then reduce if enabled, and terminates when neither
    applies.  Raises IterationCapError only when ``config.max_iterations``
    is set and reached.
    """
    steps: list[TraceStep] = []
    current = Matching()
    iteration = 0

    def record(phase: str, before: Matching, after: Matching) -> None:
        before_set, after_set = set(before.edges), set(after.edges)
        steps.append(
            TraceStep(
                iteration=iteration,
                phase=phase,
                size_before=len(before),
                size_after=len(after),
                singletons_before=_singletons(g, _mask(g, before.edges)),
                singletons_after=_singletons(g, _mask(g, after.edges)),
                removed=tuple(sorted(before_set - after_set)),
                added=tuple(sorted(after_set - before_set)),
            )
        )

    while True:
        if config.max_iterations is not None and iteration >= config.max_iterations:
            raise IterationCapError(current, SearchTrace(tuple(steps)))
        extended = greedy_maximal(g, current, config)
        if len(extended) > len(current):
            record(PHASE_GREEDY, current, extended)
        current = extended
        swapped = replace_step(g, current, config.rho, config.scan_order)
        if swapped is not None:
            record(PHASE_REPLACE, current, swapped)
            current = swapped
            iteration += 1
            continue
        if config.use_reduce:
            swapped = reduce_step(g, current, config.rho, config.scan_order)
            if swapped is not None:
                record(PHASE_REDUCE, current, swapped)
                current = swapped
                iteration += 1
                continue
        record(PHASE_TERMINATE, current, current)
        return current, SearchTrace(tuple(steps))


def is_local_optimum(g: DuoGraph, matching: Matching,
                     config: SolverConfig = SolverConfig()) -> tuple[bool, LocalOptCertificate]:
    """Check that no configured move applies to ``matching``.

    Raises NotMaximalError if some graph edge extends the matching, since
    the moves are only meaningful on maximal matchings.  The certificate
    reports how many rho-subsets each scan visited before it found a move
    or ran out: 0 with the exhaustive whole-graph branch (flagged
    separately), and 0 for reduce when it was not run or the matching has
    no singletons.
    """
    conf = g.index.conf
    m_mask = _mask(g, matching.edges)
    for k, e in enumerate(g.edges):
        if not (conf[k] | 1 << k) & m_mask:
            raise NotMaximalError(f"edge {e} extends the matching")
    rho, order = config.rho, config.scan_order
    swapped, replace_scanned = _first_swap(g, matching, rho, order, len(matching) + 1, _grows)
    reduce_scanned = 0
    if swapped is None and config.use_reduce:
        accept = _lowers_singletons(g, matching)
        if accept is not None:
            swapped, reduce_scanned = _first_swap(g, matching, rho, order, len(matching), accept)
    return swapped is None, LocalOptCertificate(
        rho, config.use_reduce, len(matching), _singletons(g, m_mask),
        len(matching) <= rho, replace_scanned, reduce_scanned,
    )

"""Instance generation and locality-gap fixtures.

Besides the seeded random generator this module carries the two worst-case
constructions that pin the locality gap of the search:

* a length-11 string pair whose all-parallel 6-edge matching resists every
  width-5 move while the optimum preserves 10 duos (ratio 5/3), shipped as
  a hand-written fixture and re-validated by the checklist; and
* a graph-only family on m positions whose optimum is the m consecutive
  diagonal edges, reconstructed by :func:`search_gap_instance` rather than
  hardcoded, and certified by the same checklist (ratio 13/6 at m=26).

The checklist itself quantifies swap resistance: after removing any t
matching edges, how many optimum edges fit alongside the remainder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import (
    DuoError,
    DuoGraph,
    Edge,
    InvariantError,
    Matching,
    StringInstance,
    compatible,
    singleton_partition,
)

#: Per-removal-width caps certifying that width-5 moves cannot improve the
#: matching: the graph family tolerates up to t entrants after removing t
#: edges, the string fixture strictly fewer.
GRAPH_GAP_CAPS: tuple[int, ...] = (1, 2, 3, 4, 5)
STRING_GAP_CAPS: tuple[int, ...] = (0, 2, 2, 4, 4)


class InfeasibleSpecError(DuoError):
    """Generator parameters that no string can satisfy."""


class SubsetBudgetError(DuoError):
    """Checklist subset scan would exceed the allowed work."""


class SearchBudgetError(DuoError):
    """Gap-instance search exhausted its node budget before a verdict."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one random string pair: length n, per-symbol
    occurrence cap k, alphabet size, and RNG seed."""

    n: int
    k: int
    alphabet_size: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InfeasibleSpecError(f"n must be >= 2, got {self.n}")
        if self.k < 1 or self.alphabet_size < 1:
            raise InfeasibleSpecError("k and alphabet_size must be >= 1")
        if self.alphabet_size * self.k < self.n:
            raise InfeasibleSpecError(
                f"{self.alphabet_size} symbols at cap {self.k} cannot fill n={self.n}"
            )

    @property
    def instance_id(self) -> str:
        return f"kduo_n{self.n}_k{self.k}_a{self.alphabet_size}_s{self.seed}"


def gen_random_kduo(spec: GeneratorSpec) -> StringInstance:
    """Draw A uniformly among capped sequences position by position, then
    shuffle a copy into B.  Fully determined by the seed."""
    rng = random.Random(spec.seed)
    remaining = {f"s{t}": spec.k for t in range(spec.alphabet_size)}
    symbols: list[str] = []
    for _ in range(spec.n):
        available = [s for s in sorted(remaining) if remaining[s] > 0]
        pick = rng.choice(available)
        remaining[pick] -= 1
        symbols.append(pick)
    shuffled = symbols.copy()
    rng.shuffle(shuffled)
    inst = StringInstance(tuple(symbols), tuple(shuffled))
    if inst.occurrence_cap() > spec.k:
        raise InvariantError(
            f"generated pair repeats a symbol {inst.occurrence_cap()} times, cap {spec.k}"
        )
    return inst


def string_gap_fixture() -> tuple[StringInstance, Matching]:
    """The length-11 worst case: A == B == a b c d e f b c d e g.

    The returned all-parallel matching pairs the two bcde runs with each
    other in both directions, preserving 6 duos; the identity matching
    preserves 10.  No width-5 move improves it (see STRING_GAP_CAPS).
    """
    symbols = tuple("abcdefbcdeg")
    inst = StringInstance(symbols, symbols)
    matching = Matching(
        [Edge(2, 7), Edge(7, 2), Edge(3, 8), Edge(8, 3), Edge(4, 9), Edge(9, 4)]
    )
    if singletons_of(matching):
        raise InvariantError("string gap fixture matching must be all parallel")
    return inst, matching


def singletons_of(matching: Matching) -> frozenset[Edge]:
    return singleton_partition(matching.edges)[0]


@dataclass(frozen=True)
class ChecklistItem:
    name: str
    passed: bool
    observed: int
    cap: int
    witness: tuple[Edge, ...]


@dataclass(frozen=True)
class ChecklistReport:
    items: tuple[ChecklistItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def item(self, name: str) -> ChecklistItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def _entrants(blockers: list[int], kept: int) -> int:
    """Optimum edges that fit alongside the ``kept`` matching edges: those
    whose blocker mask (see :func:`swap_resistance_checklist`) misses
    ``kept``."""
    return [b & kept for b in blockers].count(0)


def _shut_out(g: DuoGraph, f: Edge) -> int:
    """Mask over ``g.edges`` of the edges a matching holding ``f`` cannot
    take: f itself and the edges conflicting with it.  ``f`` need not
    belong to g."""
    index = g.index
    k = index.pos.get(f)
    if k is not None:
        return index.conf[k] | 1 << k
    return sum(1 << k for k, e in enumerate(g.edges) if not compatible(e, f))


def swap_resistance_checklist(g: DuoGraph, matching: Matching, optimum: Matching,
                              caps=GRAPH_GAP_CAPS,
                              subset_budget: int = 2_000_000) -> ChecklistReport:
    """Certify that ``matching`` resists improvement from ``optimum``.

    Items: the matching is maximal in g; it has no singleton edge; and for
    each removal width t the worst-case number of optimum edges compatible
    with the remainder stays within caps[t-1].  At most ``subset_budget``
    subsets are scanned in total, else SubsetBudgetError.

    Both scans run on bitmasks.  The blocking edges are the graph edges
    that are neither matching edges nor in a matching edge's conflict mask
    of ``g.index``.  For the swap items each optimum edge gets, once per
    call, a blocker mask: bit x stands for the x-th matching edge in lex
    order and is set when that edge equals or conflicts with the optimum
    edge.  After removing X, the optimum edge enters iff its blocker mask
    lies inside X.  Matching and optimum edges need not belong to g.
    """
    items: list[ChecklistItem] = []

    taken = 0
    for f in matching.edges:
        taken |= _shut_out(g, f)
    blocking = tuple(e for k, e in enumerate(g.edges) if not taken >> k & 1)
    items.append(ChecklistItem("maximal", not blocking, len(blocking), 0, blocking[:3]))

    singles = tuple(sorted(singletons_of(matching)))
    items.append(ChecklistItem("all-parallel", not singles, len(singles), 0, singles[:3]))

    widths = [t for t in range(1, len(caps) + 1) if t <= len(matching)]
    total_subsets = sum(comb(len(matching), t) for t in widths)
    if total_subsets > subset_budget:
        raise SubsetBudgetError(
            f"{total_subsets} subsets exceed budget {subset_budget}"
        )
    m_edges = matching.edges
    full = (1 << len(m_edges)) - 1
    blockers = [
        sum(1 << x for x, f in enumerate(m_edges) if f == e or not compatible(e, f))
        for e in optimum.edges
    ]
    bits = [1 << x for x in range(len(m_edges))]
    for t in widths:
        worst = -1
        worst_picked: tuple[int, ...] = ()
        for picked in combinations(bits, t):
            count = _entrants(blockers, full ^ sum(picked))
            if count > worst:
                worst = count
                worst_picked = picked
        worst_removed = tuple(m_edges[b.bit_length() - 1] for b in worst_picked)
        items.append(
            ChecklistItem(f"swap-{t}", worst <= caps[t - 1], worst, caps[t - 1], worst_removed)
        )
    return ChecklistReport(tuple(items))


@dataclass(frozen=True)
class GapSearchSpec:
    """Search parameters for the graph-family reconstruction.

    The matching is assembled from runs of consecutive parallel edges (so it
    has no singletons by construction) off the diagonal, must contain the
    anchor edges as runs, cover every diagonal position, and pass the
    checklist against the diagonal optimum.  ``max_run_length`` bounds the
    candidate runs; the family this reconstructs consists of parallel pairs,
    so the default keeps the space small, and raising it widens the search
    at a steep cost.
    """

    m: int
    matching_size: int = 12
    anchors: tuple[Edge, ...] = (Edge(2, 8), Edge(3, 9), Edge(18, 24), Edge(19, 25))
    caps: tuple[int, ...] = GRAPH_GAP_CAPS
    max_run_length: int = 2
    max_nodes: int = 5_000_000


@dataclass(frozen=True)
class GapInstance:
    graph: DuoGraph
    matching: Matching
    optimum: Matching
    checklist: ChecklistReport


class _Run:
    """ell consecutive parallel edges starting at (i, j), with its edge list
    and diagonal-coverage bitmask (bit p set iff edge (p, p) conflicts with
    the run) precomputed once."""

    __slots__ = ("i", "j", "ell", "edges", "cover_mask")

    def __init__(self, i: int, j: int, ell: int, m: int):
        self.i = i
        self.j = j
        self.ell = ell
        self.edges = tuple(Edge(i + t, j + t) for t in range(ell))
        mask = 0
        for a in (i, j):
            for p in range(max(1, a - 1), min(m, a + ell) + 1):
                mask |= 1 << p
        self.cover_mask = mask

    def __repr__(self) -> str:
        return f"_Run({self.i},{self.j},x{self.ell})"


def _runs_compatible(r: _Run, s: _Run) -> bool:
    """Whether two runs may coexist as distinct maximal runs of one
    matching: no shared edge, no head-to-tail continuation (the merged run
    is its own candidate), and all cross pairs compatible."""
    if (s.i == r.i + r.ell and s.j == r.j + r.ell) or \
            (r.i == s.i + s.ell and r.j == s.j + s.ell):
        return False
    return all(e != f and compatible(e, f) for e in r.edges for f in s.edges)


def _anchor_runs(anchors: tuple[Edge, ...], m: int) -> list[_Run]:
    runs: list[_Run] = []
    pending = sorted(anchors)
    while pending:
        head = pending.pop(0)
        ell = 1
        while Edge(head.i + ell, head.j + ell) in pending:
            pending.remove(Edge(head.i + ell, head.j + ell))
            ell += 1
        runs.append(_Run(head.i, head.j, ell, m))
    return runs


def _candidate_runs(m: int, longest: int) -> list[_Run]:
    """Every off-diagonal run of 2 to ``longest`` edges inside 1..m, in
    lexicographic (i, j, length) order."""
    runs: list[_Run] = []
    for i in range(1, m):
        for j in range(1, m):
            if i == j:
                continue
            for ell in range(2, longest + 1):
                if i + ell - 1 > m or j + ell - 1 > m:
                    break
                runs.append(_Run(i, j, ell, m))
    return runs


class _RunTable:
    """Candidate runs numbered in list order, with compatibility rows.

    ``row(k)`` is the mask of runs s with ``_runs_compatible(runs[k], s)``,
    built on first use.  Two runs whose spans lie at least two positions
    apart on both sides are always compatible (every cross pair has
    |di|, |dj| >= 2), so a row calls :func:`_runs_compatible` only on the
    runs that come within one position of the run on some side.
    """

    def __init__(self, runs: list[_Run], m: int):
        self.runs = runs
        self.all = (1 << len(runs)) - 1
        by_i = [0] * (m + 2)
        by_j = [0] * (m + 2)
        for k, r in enumerate(runs):
            for t in range(r.ell):
                by_i[r.i + t] |= 1 << k
                by_j[r.j + t] |= 1 << k
        self._by_i = by_i
        self._by_j = by_j
        self._rows: list[int | None] = [None] * len(runs)

    def compatible_mask(self, r: _Run) -> int:
        """Mask of the table's runs compatible with ``r``, which need not be
        one of them."""
        near = 0
        for p in range(r.i - 1, r.i + r.ell + 1):
            near |= self._by_i[p]
        for q in range(r.j - 1, r.j + r.ell + 1):
            near |= self._by_j[q]
        mask = self.all & ~near
        while near:
            low = near & -near
            if _runs_compatible(r, self.runs[low.bit_length() - 1]):
                mask |= low
            near ^= low
        return mask

    def row(self, k: int) -> int:
        row = self._rows[k]
        if row is None:
            row = self._rows[k] = self.compatible_mask(self.runs[k])
        return row


def _diag_caps_hold(m_edges: list[Edge], m: int, caps) -> bool:
    """Swap caps against the diagonal optimum, via coverage multiplicities.

    An off-diagonal edge (a, b) conflicts with diagonal edge (p, p) exactly
    when p lies in {a-1, a, a+1, b-1, b, b+1}, so after removing X the
    diagonal entrants are precisely the positions whose whole covering edge
    set sits inside X.  That turns each cap into bitmask counting, orders of
    magnitude cheaper than the generic checklist scan.  The verdict does not
    depend on the order of ``m_edges``.
    """
    ne = len(m_edges)
    pos_cover = [0] * (m + 1)
    for idx, e in enumerate(m_edges):
        for p in (e.i - 1, e.i, e.i + 1, e.j - 1, e.j, e.j + 1):
            if 1 <= p <= m:
                pos_cover[p] |= 1 << idx
    covers = [c for c in pos_cover[1:] if c]
    bits = [1 << idx for idx in range(ne)]
    for t in range(1, min(len(caps), ne) + 1):
        cap = caps[t - 1]
        # a cover inside a t-subset has at most t bits
        small = [c for c in covers if c.bit_count() <= t]
        if len(small) <= cap:
            continue
        for picked in combinations(bits, t):
            rest = ~sum(picked)
            count = 0
            for c in small:
                if not c & rest:
                    count += 1
                    if count > cap:
                        return False
    return True


def search_gap_instance(spec: GapSearchSpec) -> GapInstance | None:
    """Backtracking reconstruction of the graph-family worst case.

    The diagonal edges (i, i) form the optimum; the search assembles an
    off-diagonal all-parallel matching of the requested size whose edges
    conflict with every diagonal edge (that is maximality) and that passes
    the swap-resistance checklist.  Branches cover the lowest uncovered
    diagonal position first; within a branch point, candidate runs are taken
    in lexicographic (i, j, length) order and lex-earlier alternatives are
    excluded deeper down, so each run set is visited once and the result is
    deterministic.  Returns None when the space is exhausted, raises
    SearchBudgetError when ``max_nodes`` runs out first.

    The search runs on masks over the candidate runs, numbered in that lex
    order: ``covering[p]`` holds the runs covering position p, ``allowed``
    the runs compatible with every chosen run (the AND of their
    :class:`_RunTable` rows) and ``excluded`` the lex-earlier alternatives.
    A node's candidates are ``covering[p] & allowed & ~excluded`` among the
    runs short enough to fit, taken lowest bit first.
    """
    m = spec.m
    optimum = Matching(Edge(i, i) for i in range(1, m + 1))
    target = spec.matching_size
    full_mask = ((1 << m) - 1) << 1

    for a in spec.anchors:
        if not (1 <= a.i <= m and 1 <= a.j <= m) or a.i == a.j:
            return None

    all_runs = _candidate_runs(m, min(spec.max_run_length, target))
    table = _RunTable(all_runs, m)
    covering = [0] * (m + 1)
    fits = [0] * (target + 1)
    for k, r in enumerate(all_runs):
        for p in range(1, m + 1):
            if r.cover_mask >> p & 1:
                covering[p] |= 1 << k
        for room in range(r.ell, target + 1):
            fits[room] |= 1 << k

    seeds = _anchor_runs(spec.anchors, m)
    if any(r.ell < 2 for r in seeds):
        return None
    for r, s in combinations(seeds, 2):
        if not _runs_compatible(r, s):
            return None
    seed_count = sum(r.ell for r in seeds)
    if seed_count > target:
        return None

    nodes = 0

    def verdict(chosen: list[_Run]) -> GapInstance | None:
        edges = [e for r in chosen for e in r.edges]
        if not _diag_caps_hold(edges, m, spec.caps):
            return None
        matching = Matching(edges)
        graph = DuoGraph(m, list(optimum.edges) + edges)
        report = swap_resistance_checklist(graph, matching, optimum, spec.caps)
        if not report.passed:
            raise InvariantError("fast cap test disagrees with the checklist")
        return GapInstance(graph, matching, optimum, report)

    def rec(chosen: list[_Run], count: int, cover: int,
            allowed: int, excluded: int) -> GapInstance | None:
        nonlocal nodes
        nodes += 1
        if nodes > spec.max_nodes:
            raise SearchBudgetError(f"gap search exceeded {spec.max_nodes} nodes")
        uncovered = full_mask & ~cover
        if count == target:
            if uncovered:
                return None
            return verdict(chosen)
        # a run of length ell >= 2 covers at most 2*ell + 4 <= 4*ell positions
        if uncovered.bit_count() > 4 * (target - count):
            return None
        pool = covering[(uncovered & -uncovered).bit_length() - 1] if uncovered else table.all
        cands = pool & allowed & fits[target - count] & ~excluded
        skipped = 0
        while cands:
            low = cands & -cands
            k = low.bit_length() - 1
            r = all_runs[k]
            found = rec(
                chosen + [r],
                count + r.ell,
                cover | r.cover_mask,
                allowed & table.row(k),
                excluded | skipped,
            )
            if found is not None:
                return found
            skipped |= low
            cands ^= low
        return None

    cover = 0
    allowed = table.all
    for r in seeds:
        cover |= r.cover_mask
        allowed &= table.compatible_mask(r)
    return rec(list(seeds), seed_count, cover, allowed, 0)

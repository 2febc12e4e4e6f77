"""Instance generation and locality-gap fixtures.

Besides the seeded random generator this module carries the two worst-case
constructions that pin the locality gap of the search:

* a length-11 string pair whose all-parallel 6-edge matching resists every
  width-5 move while the optimum preserves 10 duos (ratio 5/3), shipped as
  a hand-written fixture and re-validated by the checklist; and
* a graph-only family on m positions whose optimum is the m consecutive
  diagonal edges, reconstructed by :func:`search_gap_instance` rather than
  hardcoded, and certified by the same checklist (ratio 13/6 at m=26).

The checklist itself quantifies swap resistance on one conflict index: after
removing any t matching edges, how many optimum edges fit alongside the rest.
Only unions of the optimum edges' blocker masks need a look, so the checklist
and the gap search's leaf test share one depth-first scan of those unions
(:func:`_unions`) in place of a walk over every t-subset; the checklist's
budget counts the unions it visits.
The gap search works on candidate runs, the parallel pairs, not on the
m x m grid: one rule reads run compatibility, the runs covering each
diagonal position and the anchors' compatible runs off per-row and
per-column run masks, and a run's diagonal cover is closed form.  The only
conflict index it builds is the anchors'.  The complete leaves of one
parent differ only in the run at their last two edge indices, so the last
failing X, once it holds both, fails the rest of the batch if it fails one
of them; the leaf test stops the batch there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    DuoError,
    DuoGraph,
    Edge,
    InvariantError,
    Matching,
    StringInstance,
    _index,
    _lonely,
    _positions,
    _union,
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
    """Checklist scan of unions of blocker masks would exceed the allowed work."""


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
    if singleton_partition(matching.edges)[0]:
        raise InvariantError("string gap fixture matching must be all parallel")
    return inst, matching


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


def swap_resistance_checklist(g: DuoGraph, matching: Matching, optimum: Matching,
                              caps=GRAPH_GAP_CAPS,
                              subset_budget: int = 2_000_000) -> ChecklistReport:
    """Certify that ``matching`` resists improvement from ``optimum``.

    Items: the matching is maximal in g; it has no singleton edge; and for
    each removal width t the worst-case number of optimum edges compatible
    with the remainder stays within caps[t-1].  At most ``subset_budget``
    unions of blocker masks are visited in total, else SubsetBudgetError; a
    negative budget raises ValueError before any work.

    Both scans read one :func:`~duomatch.core._index` over the edges of
    g, the matching and the optimum, which need not lie in g.  The blocking
    edges are the graph edges neither in the matching nor in a matching
    edge's conflict mask; the singletons are the matching edges whose
    ``par`` mask misses the matching.  For the swap items each optimum edge
    gets a blocker mask: bit x stands for the x-th matching edge in lex
    order and is set when that edge equals or conflicts with the optimum
    edge.  After removing X, the optimum edge enters iff its blocker mask
    lies inside X.

    So the count for X is the number of empty blocker masks plus the
    non-empty ones inside X, and it equals the count for the union U of
    those inside X, which has at most |X| bits.  swap-t is the largest count
    over the unions of at most t bits that :func:`_unions` visits, with the
    blocker masks packed as the fields of one :class:`_CoverFields`.  The
    witness is the first t-subset in ``itertools.combinations`` order that
    reaches it: every t-subset holding such a U does, and the first of
    those is U padded with its lowest clear bits (:func:`_pad`); of two
    t-subsets the one holding their lowest differing bit comes first.
    """
    if subset_budget < 0:
        raise ValueError(f"subset_budget must be >= 0, got {subset_budget}")
    items: list[ChecklistItem] = []
    m_edges = matching.edges
    every = tuple(sorted({*g.edges, *m_edges, *optimum.edges}))
    pos, conf, par = _index(every)
    # dense matching-edge bits keep the blocker masks short
    dense = {pos[f]: 1 << x for x, f in enumerate(m_edges)}
    m_mask = sum(1 << k for k in dense)
    taken = m_mask | _union(conf, m_mask)
    blocking = tuple(e for e in g.edges if not taken >> pos[e] & 1)
    items.append(ChecklistItem("maximal", not blocking, len(blocking), 0, blocking[:3]))

    singles = tuple(every[k] for k in _positions(_lonely(par, m_mask, m_mask)))
    items.append(ChecklistItem("all-parallel", not singles, len(singles), 0, singles[:3]))

    top = min(len(caps), len(m_edges))
    blockers = [_union(dense, m_mask & (conf[pos[e]] | 1 << pos[e])) for e in optimum.edges]
    fields = _CoverFields(len(blockers), len(m_edges))
    packed = sum(b << fields.width * k for k, b in enumerate(blockers))
    zeros = blockers.count(0)
    # worst[t]: the largest count over unions of at most t bits, and the
    # first t-subset that reaches it
    worst = [(-1, 0)] * (top + 1)
    for visited, (x, inside) in enumerate(_unions(packed, fields, top) if top else (), 1):
        if visited > subset_budget:
            raise SubsetBudgetError(f"more than {subset_budget} unions of blocker masks")
        count = zeros + inside
        for t in range(max(x.bit_count(), 1), top + 1):
            if count >= worst[t][0]:
                padded = _pad(x, t)
                differ = padded ^ worst[t][1]
                if count > worst[t][0] or differ & -differ & padded:
                    worst[t] = count, padded
    for t in range(1, top + 1):
        count, x = worst[t]
        removed = tuple(m_edges[b] for b in _positions(x))
        items.append(ChecklistItem(f"swap-{t}", count <= caps[t - 1], count, caps[t - 1], removed))
    return ChecklistReport(tuple(items))


@dataclass(frozen=True)
class GapSearchSpec:
    """Search parameters for the graph-family reconstruction.

    The matching is assembled off the diagonal from parallel pairs (i, j),
    (i + 1, j + 1), the runs the family this reconstructs is made of, so it
    has no singletons by construction.  It must contain the
    anchor edges as runs, cover every diagonal position, and pass the
    checklist against the diagonal optimum.  ``anchors`` may hold edges or
    ``(i, j)`` tuples, in any order and with repeats; the spec keeps them as
    a sorted tuple of distinct edges.  ``m`` must be at least 1, and
    ``matching_size`` and ``max_nodes`` at least 0 (ValueError otherwise).
    """

    m: int
    matching_size: int = 12
    anchors: tuple[Edge, ...] = (Edge(2, 8), Edge(3, 9), Edge(18, 24), Edge(19, 25))
    caps: tuple[int, ...] = GRAPH_GAP_CAPS
    max_nodes: int = 5_000_000

    def __post_init__(self) -> None:
        for field, least in (("m", 1), ("matching_size", 0), ("max_nodes", 0)):
            value = getattr(self, field)
            if value < least:
                raise ValueError(f"GapSearchSpec needs {field} >= {least}, got {field}={value}")
        object.__setattr__(self, "anchors", tuple(sorted({Edge(*a) for a in self.anchors})))


@dataclass(frozen=True)
class GapInstance:
    graph: DuoGraph
    matching: Matching
    optimum: Matching
    checklist: ChecklistReport


class _RunTable:
    """The candidate runs of the gap search on positions 1..m.

    A run (i, j) is the parallel pair (i, j), (i + 1, j + 1); ``runs``
    lists every off-diagonal pair inside 1..m in lexicographic order.
    ``on_row[r]`` and ``on_col[c]``, for r, c in 0..m+1, hold the runs with
    an edge on that A-row or B-column (rows and columns 0 and m+1 stay
    empty), and :meth:`apart` is the mask of the runs with no edge on given
    rows or columns.

    By :func:`~duomatch.core.compatible`, edge (a, b) conflicts with,
    equals or runs parallel to exactly the edges on A-rows a-1..a+1 or
    B-columns b-1..b+1; call those its hits.  One rule gives two tables:

    * Two runs may coexist as distinct maximal runs of one matching iff
      neither holds a hit of the other, which rules out a shared edge, a
      conflicting cross pair and a head-to-tail continuation alike.  So
      ``rows[k]``, the mask of the runs compatible with run k, is
      :meth:`apart` over rows i-1..i+2 and columns j-1..j+2.
    * An off-diagonal edge (a, b) conflicts with the diagonal edge (p, p)
      iff p is within 1 of a or of b, so a run covers position p iff it
      has an edge on row or column p-1..p+1.  :meth:`cover` is the closed
      form of the positions a run of any length covers (bit p for position
      p), and ``covers[k]`` is run k's.
    """

    def __init__(self, m: int):
        self.full = ((1 << m) - 1) << 1
        self.runs = [(i, j) for i in range(1, m) for j in range(1, m) if i != j]
        self.all = (1 << len(self.runs)) - 1
        self.on_row = on_row = [0] * (m + 2)
        self.on_col = on_col = [0] * (m + 2)
        for k, (i, j) in enumerate(self.runs):
            for t in (0, 1):
                on_row[i + t] |= 1 << k
                on_col[j + t] |= 1 << k
        self.rows = [self.apart(range(i - 1, i + 3), range(j - 1, j + 3)) for i, j in self.runs]
        self.covers = [self.cover(i, j, 2) for i, j in self.runs]

    def apart(self, rows, cols) -> int:
        """Mask of the candidate runs with no edge on ``rows`` or ``cols``."""
        near = 0
        for r in rows:
            near |= self.on_row[r]
        for c in cols:
            near |= self.on_col[c]
        return self.all & ~near

    def cover(self, i: int, j: int, ell: int) -> int:
        """The positions 1..m covered by the ell parallel edges
        (i + t, j + t): i-1..i+ell and j-1..j+ell."""
        span = (1 << ell + 2) - 1
        return (span << i - 1 | span << j - 1) & self.full


class _CoverFields:
    """``m`` masks of ``ne`` bits each packed into one int.

    Field k holds one mask in ``ne`` bits topped by a guard bit that stays
    0.  Adding ``low`` then carries into a field's guard bit iff the field
    is non-zero, so one AND, ADD and popcount count the fields that lie
    inside an edge mask, over all fields at once.  The gap search packs
    one field per diagonal position p = 1..m (field p - 1), the mask of the
    matching edges that conflict with the diagonal edge (p, p); the
    checklist packs one field per optimum edge, its blocker mask over the
    matching edges.
    """

    __slots__ = ("m", "ne", "width", "ones", "low", "guards")

    def __init__(self, m: int, ne: int):
        self.m = m
        self.ne = ne
        self.width = ne + 1
        self.ones = sum(1 << self.width * k for k in range(m))
        self.low = ((1 << ne) - 1) * self.ones
        self.guards = (1 << ne) * self.ones

    def spread(self, covers) -> int:
        """The packed covers of edges numbered from 0, given the diagonal
        positions each edge covers (bit p for position p); shift it left by
        the index of the first edge to place them among the others."""
        packed = 0
        for t, cover in enumerate(covers):
            for p in _positions(cover):
                packed |= 1 << self.width * (p - 1) + t
        return packed

    def masks(self, covers: int) -> list[int]:
        edges = (1 << self.ne) - 1
        return [covers >> self.width * k & edges for k in range(self.m)]


def _unions(covers: int, fields: _CoverFields, top: int):
    """Yield ``(x, fields inside x)`` for every union x of at most ``top``
    bits of the non-empty fields of ``covers``, packed by ``fields``; the
    empty union comes first.  A field lies inside x when it is non-empty
    and has no bit outside x.

    The unions are grown depth first by adding the distinct fields of at
    most ``top`` bits, highest mask first, each after the last one added;
    a union reached along two paths is yielded twice.  Every union of such
    fields with at most ``top`` bits is reached, since adding its fields in
    that order never passes ``top`` bits.
    """
    low, guards, ones = fields.low, fields.guards, fields.ones
    nonzero = ((covers + low) & guards).bit_count()
    small = sorted({c for c in fields.masks(covers) if c.bit_count() <= top}, reverse=True)
    # depth first over (union, first field it may still take), children
    # pushed in reverse so that they pop in field order
    stack = [(0, 0)]
    while stack:
        x, start = stack.pop()
        yield x, nonzero - ((covers & (low ^ x * ones)) + low & guards).bit_count()
        for k in range(len(small) - 1, start - 1, -1):
            v = x | small[k]
            if v != x and v.bit_count() <= top:
                stack.append((v, k + 1))


def _pad(x: int, width: int) -> int:
    """``x`` with its lowest clear bits set until it has ``width`` bits."""
    for _ in range(width - x.bit_count()):
        x |= ~x & x + 1
    return x


def _diag_caps_hold(covers: int, fields: _CoverFields, caps) -> int | None:
    """Swap caps against the diagonal optimum, via coverage multiplicities.

    A diagonal edge (p, p) enters after removing the matching edges X
    exactly when every matching edge it conflicts with lies in X, so the
    entrants are precisely the positions whose non-empty cover (``covers``,
    packed by ``fields``) lies inside X.  Returns a failing X, an edge-index
    mask of t <= len(caps) bits with more than caps[t-1] positions covered
    inside it, or None when every cap holds.

    The scan looks only at unions of covers (:func:`_unions`, with at most
    min(len(caps), ne) bits) and stops at the first that fails: a failing X
    of width t contains the union U of the covers inside it, U has the same
    count and at most t bits, and U padded to any width t' >= |U| fails if
    its count exceeds caps[t'-1].  The scan's order, highest mask first,
    picks witnesses on the latest runs' edges; those most often fail the
    next leaf too (see :func:`_first_passing`).
    """
    top = min(len(caps), fields.ne)
    if not top:
        return None
    # least[s-1]: the least cap over widths s..top, which U of s bits must beat
    least = list(caps[:top])
    for s in range(top - 2, -1, -1):
        least[s] = min(least[s], least[s + 1])
    for x, inside in _unions(covers, fields, top):
        if inside > least[max(x.bit_count(), 1) - 1]:
            break
    else:
        return None
    s = max(x.bit_count(), 1)
    width = next(t for t in range(s, top + 1) if caps[t - 1] == least[s - 1])
    return _pad(x, width)


def _first_passing(covers: int, shift: list[int], hits: int, fields: _CoverFields, caps,
                   witness: int) -> tuple[int, int]:
    """The gap search's cap test of the complete leaves of one parent.

    Leaf k of ``hits``, taken lowest bit first, has the packed covers
    ``covers | shift[k]`` and covers every one of the ``fields.m``
    positions.  ``witness``, 0 or the last failing X of at most
    min(len(caps), fields.ne) edge bits, is tried first on each leaf: X
    fails a leaf that covers every position iff fewer than m - caps[|X|-1]
    of its fields hold an edge outside X, so no leaf's count of non-empty
    fields is needed.  X's spread over the fields and that bound are worked
    out once for the parent and again only when the witness changes.  A
    leaf that survives X gets the full scan of :func:`_diag_caps_hold`,
    whose failing X becomes the witness.

    Every ``shift[k]`` sets bits at the same edge indices, a run's two
    edges, and each of those edges covers some position.  So a leaf whose
    ``shift[k]`` misses X's spread is one whose edges X holds, and then X
    holds every leaf's edges and sees each leaf as it sees the parent's
    ``covers``: when that leaf fails X, so does every later one, and the
    batch stops there with the same witness and result as a test of each.
    Returns the first k whose leaf passes every cap, or -1, and the witness
    as it stands after the last leaf tested.
    """
    m, low, guards, ones = fields.m, fields.low, fields.guards, fields.ones
    spread = low ^ witness * ones
    least = m - caps[witness.bit_count() - 1] if witness else 0
    while hits:
        bit = hits & -hits
        k = bit.bit_length() - 1
        leaf = covers | shift[k]
        if ((leaf & spread) + low & guards).bit_count() >= least:
            failing = _diag_caps_hold(leaf, fields, caps)
            if failing is None:
                return k, witness
            witness = failing
            spread = low ^ witness * ones
            least = m - caps[witness.bit_count() - 1]
        elif not shift[k] & spread:
            # X holds both of the batch's edge indices, so every later leaf
            # looks like this one to X and fails it too
            return -1, witness
        hits ^= bit
    return -1, witness


def search_gap_instance(spec: GapSearchSpec, stats: dict | None = None) -> GapInstance | None:
    """Backtracking reconstruction of the graph-family worst case.

    The diagonal edges (i, i) form the optimum; the search assembles an
    off-diagonal all-parallel matching of the requested size whose edges
    conflict with every diagonal edge (that is maximality) and that passes
    the swap-resistance checklist.  Branches cover the lowest uncovered
    diagonal position first; within a branch point, candidate pairs are
    taken in lexicographic (i, j) order and lex-earlier alternatives are
    excluded deeper down, so each pair set is visited once and the result is
    deterministic.  Returns None when the space is exhausted, raises
    SearchBudgetError when ``max_nodes`` runs out first.  When ``stats`` is
    given, its ``"nodes"`` and ``"verdicts"`` entries receive the nodes
    visited and the complete leaves cap-tested, on return or raise; the
    node that runs past the budget is counted.

    Before the first node, and before any table is built, a spec whose room
    (``matching_size`` minus the anchor edges) is odd returns None: no pair
    changes its parity.  That check removes no leaf.

    Anchors off the grid or on the diagonal return None.  So does a set
    of anchors in which some anchor lacks a parallel neighbour among the
    anchors or conflicts with one of them, read off the anchors' own
    conflict index.  That is the rule on their maximal runs: each must hold
    2 or more edges, and no two may clash.  Two distinct maximal runs share
    no edge and cannot continue one another, so a conflict is the only
    clash left.

    The search runs on masks over the candidate pairs of a
    :class:`_RunTable`.  ``covering[p]`` holds the pairs covering position
    p (those with an edge on row or column p-1..p+1), ``allowed`` the pairs
    compatible with every chosen pair (the AND of their rows; the anchors'
    mask comes from the same row and column masks) and ``excluded`` the
    lex-earlier alternatives.  A node's candidates are ``covering[p] &
    allowed & ~excluded``, taken lowest bit first.  Each node also carries
    the chosen pairs as a run mask and the per-position covers of the
    anchors' and the chosen pairs' edges, packed by :class:`_CoverFields`:
    a child adds its pair's precomputed spread, shifted to the pair's edge
    indices (each pair's spread is shifted once per edge count, not once
    per child).

    Rooms stay even, so a node with a room of 2 has only complete leaves
    as children, and any other node has none.  The former hands all its
    candidates, in bit order, to one leaf routine instead of recursing.
    The routine counts them as nodes in one step, or, when the budget runs
    out among them, visits the nodes before that one and raises there, so
    SearchBudgetError fires at the same node as in a search that counts
    node by node.  Only the leaves that cover every position the parent
    left uncovered (the AND of ``covering[p]`` over those positions) go to
    :func:`_first_passing`, which tries the last leaf's failing X on each
    before any full scan; once X holds the batch's two edge indices and
    fails a leaf, it fails the rest of the batch, which it skips.  They
    still count as verdicts.  A leaf that passes builds its matching, the
    anchors plus the chosen pairs' edges, and runs the checklist, which
    must agree.  When the anchors fill the target the root itself is the
    one leaf, of an empty run (a run of no edges at index
    ``len(table.runs)``), and goes through the same routine.
    """
    m = spec.m
    optimum = Matching(Edge(i, i) for i in range(1, m + 1))
    target = spec.matching_size
    if stats is not None:
        stats.update(nodes=0, verdicts=0)

    for a in spec.anchors:
        if not (1 <= a.i <= m and 1 <= a.j <= m) or a.i == a.j:
            return None

    seed_count = len(spec.anchors)
    if seed_count > target or (target - seed_count) % 2:
        return None

    _, conf, par = _index(spec.anchors)
    if any(conf) or not all(par):
        return None

    table = _RunTable(m)
    full_mask, run_covers, rows = table.full, table.covers, table.rows
    fields = _CoverFields(m, target)
    covering = [0] + [table.all & ~table.apart(range(p - 1, p + 2), range(p - 1, p + 2))
                      for p in range(1, m + 1)]
    # the spread at index len(table.runs) is the empty run's: the root's
    # only leaf when the anchors fill the target
    empty = len(table.runs)
    spreads = [fields.spread((table.cover(i, j, 1), table.cover(i + 1, j + 1, 1)))
               for i, j in table.runs] + [0]
    # shifted[count]: every pair's spread shifted to follow count edges,
    # built when a node at that count first needs it
    shifted: list[list[int] | None] = [None] * target
    caps, max_nodes = spec.caps, spec.max_nodes

    nodes = 0
    verdicts = 0
    witness = 0

    def leaves(chosen: int, covers: int, shift: list[int], batch: int,
               fill: int) -> GapInstance | None:
        """Visit the complete leaves ``batch`` of one parent in bit order,
        whose runs' packed covers ``shift`` holds at the parent's edge
        count.  Only those in ``fill``, the runs that cover every position
        the parent left uncovered, get the cap test."""
        nonlocal nodes, verdicts, witness
        left = max_nodes - nodes
        short = batch.bit_count() > left
        if short:
            # the budget runs out inside the batch: visit the nodes before
            # the first one past it, then raise there
            past = batch
            for _ in range(left):
                past &= past - 1
            batch ^= past
        nodes += batch.bit_count()
        hits = batch & fill
        k, witness = _first_passing(covers, shift, hits, fields, caps, witness)
        if k >= 0:
            # the nodes after leaf k were never visited
            nodes -= (batch >> k + 1).bit_count()
            verdicts += (hits & (2 << k) - 1).bit_count()
            return certified(chosen | 1 << k)
        verdicts += hits.bit_count()
        if short:
            nodes += 1
            raise SearchBudgetError(f"gap search exceeded {max_nodes} nodes")
        return None

    def certified(chosen: int) -> GapInstance:
        edges = list(spec.anchors)
        for k in _positions(chosen & table.all):
            i, j = table.runs[k]
            edges += (Edge(i, j), Edge(i + 1, j + 1))
        matching = Matching(edges)
        graph = DuoGraph(m, list(optimum.edges) + edges)
        report = swap_resistance_checklist(graph, matching, optimum, caps)
        if not report.passed:
            raise InvariantError("fast cap test disagrees with the checklist")
        return GapInstance(graph, matching, optimum, report)

    def rec(chosen: int, count: int, cover: int, covers: int,
            allowed: int, excluded: int) -> GapInstance | None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SearchBudgetError(f"gap search exceeded {max_nodes} nodes")
        uncovered = full_mask & ~cover
        room = target - count
        # a pair covers at most 8 positions, 4 per edge
        if uncovered.bit_count() > 4 * room:
            return None
        pool = covering[(uncovered & -uncovered).bit_length() - 1] if uncovered else table.all
        cands = pool & allowed & ~excluded
        shift = shifted[count]
        if shift is None:
            shift = shifted[count] = [spread << count for spread in spreads]
        if room == 2:
            fill = cands
            while uncovered:
                low = uncovered & -uncovered
                fill &= covering[low.bit_length() - 1]
                uncovered ^= low
            return leaves(chosen, covers, shift, cands, fill)
        rest = cands
        while rest:
            low = rest & -rest
            k = low.bit_length() - 1
            found = rec(
                chosen | low,
                count + 2,
                cover | run_covers[k],
                covers | shift[k],
                allowed & rows[k],
                excluded | cands & (low - 1),
            )
            if found is not None:
                return found
            rest ^= low
        return None

    # the anchors' hits are on these rows and columns, and they cover the
    # positions among either
    near_rows = {a.i + d for a in spec.anchors for d in (-1, 0, 1)}
    near_cols = {a.j + d for a in spec.anchors for d in (-1, 0, 1)}
    cover = sum(1 << p for p in near_rows | near_cols) & full_mask
    covers = fields.spread(table.cover(a.i, a.j, 1) for a in spec.anchors)
    try:
        if seed_count == target:
            return leaves(0, covers, spreads, 1 << empty,
                          0 if full_mask & ~cover else 1 << empty)
        return rec(0, seed_count, cover, covers, table.apart(near_rows, near_cols), 0)
    finally:
        # rec's closure holds rec: clearing it frees the search's tables on
        # return rather than at the next full garbage collection
        rec = None
        if stats is not None:
            stats.update(nodes=nodes, verdicts=verdicts)

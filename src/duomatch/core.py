"""Core types for duo-preservation string mapping.

Two equal-length strings A and B over the same multiset of symbols induce a
bipartite graph on "duo" positions: duo i of A is the consecutive symbol pair
(a_i, a_{i+1}), and there is an edge (i, j) whenever duo i of A equals duo j
of B.  A set of edges that is pairwise *compatible* (see :func:`compatible`)
corresponds exactly to a common partition of the two strings in which every
selected duo stays intact, so maximizing preserved duos is a maximum
compatible edge set problem.  The graph form stands on its own: any bipartite
graph on two sets of m positions can be solved without string backing.  One
conflict index (:func:`_index`) serves every edge list, in a graph or not,
and :func:`_union` and :func:`_lonely` read a set's conflicting or parallel
neighbours and its singletons off it.

All indices are 1-based on both sides.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple


class DuoError(Exception):
    """Base class for errors raised by this package."""


class ParseError(DuoError):
    """Malformed instance, graph, or matching text."""


class LengthMismatchError(ParseError):
    """The two strings of an instance have different lengths."""


class NotPermutationError(ParseError):
    """The second string is not a rearrangement of the first."""


class EmptyInstanceError(ParseError):
    """Instance shorter than two symbols, so it has no duos at all."""


class EdgeNotInGraphError(DuoError):
    """An operation referenced an edge absent from the graph."""


class NotMaximalError(DuoError):
    """A maximal matching was required but an extension exists."""


class InvariantError(DuoError):
    """A result broke an invariant its construction guarantees.

    Signals a defect in this package, never bad input.  Raised explicitly
    rather than by ``assert``, which ``python -O`` strips.
    """


class IncompatibleEdgesError(DuoError):
    """An edge set presented as a matching contains a conflicting pair."""

    def __init__(self, a: "Edge", b: "Edge"):
        super().__init__(f"edges {a} and {b} conflict")
        self.pair = (a, b)


class Edge(NamedTuple):
    """Graph edge pairing duo ``i`` of A with duo ``j`` of B (1-based).

    Ordering, equality and hashing are those of the tuple ``(i, j)``, so
    they run in C: the order is lexicographic, the tie-break used throughout
    the solvers, and a plain ``(i, j)`` tuple compares equal to its edge and
    finds it in a set or a :class:`Matching`.
    """

    i: int
    j: int

    def __str__(self) -> str:
        return f"{self.i} {self.j}"


def compatible(e: Edge, f: Edge) -> bool:
    """Return True when the two edges can coexist in one matching.

    Writing di = f.i - e.i and dj = f.j - e.j, the pair conflicts iff

    * exactly one of di, dj is zero (the edges share one endpoint), or
    * |di| == 1 and dj != di, or |dj| == 1 and di != dj (the edges sit on
      consecutive positions on one side without running parallel, so the
      implied string cuts contradict each other).

    An edge is compatible with itself by convention, which lets callers test
    "pairwise compatible" over a whole set without special-casing identity.
    Offsets with min(|di|, |dj|) >= 2, and parallel steps di == dj == +-1,
    are always compatible.
    """
    di = f.i - e.i
    dj = f.j - e.j
    if di == 0 and dj == 0:
        return True
    if di == 0 or dj == 0:
        return False
    if (di == 1 or di == -1) and dj != di:
        return False
    if (dj == 1 or dj == -1) and di != dj:
        return False
    return True


@dataclass(frozen=True)
class StringInstance:
    """An equal-length string pair where B is a rearrangement of A."""

    a: tuple[str, ...]
    b: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise LengthMismatchError(
                f"|A| = {len(self.a)} but |B| = {len(self.b)}"
            )
        if len(self.a) < 2:
            raise EmptyInstanceError("need at least two symbols per string")
        if Counter(self.a) != Counter(self.b):
            raise NotPermutationError("B is not a rearrangement of A")

    @property
    def n(self) -> int:
        return len(self.a)

    def occurrence_cap(self) -> int:
        """Largest multiplicity of any single symbol."""
        return max(Counter(self.a).values())


def _content_lines(text: str) -> list[str]:
    """The stripped lines of ``text``, less blank lines and ``#`` comments:
    the line reader of every text format."""
    lines = [ln.strip() for ln in text.splitlines()]
    return [ln for ln in lines if ln and not ln.startswith("#")]


def parse_instance(text: str) -> StringInstance:
    """Parse the two-line string-pair format.

    Lines starting with ``#`` and blank lines are ignored.  Each remaining
    line holds one string, symbols separated by whitespace.  A line without
    any whitespace is treated as compact single-character symbols.
    """
    lines = _content_lines(text)
    if len(lines) != 2:
        raise ParseError(f"expected exactly 2 string lines, found {len(lines)}")
    rows: list[tuple[str, ...]] = []
    for ln in lines:
        toks = ln.split()
        if len(toks) == 1 and len(toks[0]) > 1:
            toks = list(toks[0])
        rows.append(tuple(toks))
    return StringInstance(rows[0], rows[1])


class ConflictIndex(NamedTuple):
    """Bitmask view of a sorted, duplicate-free edge tuple, from :func:`_index`.

    Bit k of a mask stands for ``edges[k]``.  ``conf[k]`` has bit l set iff
    edges k and l conflict (never bit k itself); ``par[k]`` has the bits of
    the parallel neighbours (i-1, j-1) and (i+1, j+1) present in the tuple.
    """

    pos: dict[Edge, int]
    conf: tuple[int, ...]
    par: tuple[int, ...]


def _index(edges: tuple[Edge, ...]) -> ConflictIndex:
    """The :class:`ConflictIndex` of ``edges``, sorted and duplicate-free
    with any integer positions: by :func:`compatible`, which reads only
    offsets, the edges conflicting with (i, j) are those on A-positions
    i-1..i+1 or B-positions j-1..j+1, less (i, j) and its two parallel
    neighbours.  So each conflict mask is the union of rows i-1..i+1 OR
    the union of columns j-1..j+1, each union built once per distinct
    position, less the edge and its parallel neighbours, which are found
    by looking up (i-1, j-1) and (i+1, j+1) in ``pos``."""
    pos = {e: k for k, e in enumerate(edges)}
    on_i: dict[int, int] = {}
    on_j: dict[int, int] = {}
    for (i, j), k in pos.items():
        bit = 1 << k
        on_i[i] = on_i.get(i, 0) | bit
        on_j[j] = on_j.get(j, 0) | bit
    near_i = {i: on_i.get(i - 1, 0) | row | on_i.get(i + 1, 0) for i, row in on_i.items()}
    near_j = {j: on_j.get(j - 1, 0) | col | on_j.get(j + 1, 0) for j, col in on_j.items()}
    get = pos.get
    par = []
    conf = []
    for (i, j), k in pos.items():
        p = 0
        f = get((i - 1, j - 1))
        if f is not None:
            p = 1 << f
        f = get((i + 1, j + 1))
        if f is not None:
            p |= 1 << f
        par.append(p)
        conf.append((near_i[i] | near_j[j]) & ~(1 << k | p))
    return ConflictIndex(pos, tuple(conf), tuple(par))


class DuoGraph:
    """Bipartite conflict-annotated graph on duo positions 1..m per side.

    Immutable after construction.  ``edges`` is lexicographically sorted and
    duplicate-free.  The solvers and :meth:`conflict_set` run on its
    :attr:`index`, kept for the graph's lifetime; bit k stands for
    ``edges[k]``, so bit order is lex order.
    """

    __slots__ = ("m", "edges", "_index")

    def __init__(self, m: int, edges=()) -> None:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        es = sorted(set(Edge(*e) for e in edges))
        for e in es:
            if not (1 <= e.i <= m and 1 <= e.j <= m):
                raise ValueError(f"edge {e} outside position range 1..{m}")
        self.m = m
        self.edges: tuple[Edge, ...] = tuple(es)
        self._index: ConflictIndex | None = None

    @classmethod
    def _of_edges(cls, m: int, edges: tuple[Edge, ...]) -> "DuoGraph":
        """The graph on 1..m of ``edges``, trusted to be a lex-sorted,
        duplicate-free tuple of in-range :class:`Edge`: the constructor
        without its re-wrap, sort and range check."""
        out = cls.__new__(cls)
        out.m = m
        out.edges = edges
        out._index = None
        return out

    @classmethod
    def from_strings(cls, inst: StringInstance) -> "DuoGraph":
        """Build the duo graph of a string pair: edge (i, j) iff duo i of A
        equals duo j of B as an ordered symbol pair.  The edges come out in
        lex order, distinct and in range, so they are kept as built."""
        a, b = inst.a, inst.b
        duo_positions: dict[tuple[str, str], list[int]] = {}
        for j, duo in enumerate(zip(b, b[1:]), 1):
            duo_positions.setdefault(duo, []).append(j)
        get = duo_positions.get
        edges = [Edge(i, j) for i, duo in enumerate(zip(a, a[1:]), 1) for j in get(duo, ())]
        return cls._of_edges(inst.n - 1, tuple(edges))

    @property
    def index(self) -> ConflictIndex:
        """The :func:`_index` of the graph's edges, built on first access."""
        if self._index is None:
            self._index = _index(self.edges)
        return self._index

    def __contains__(self, e: Edge) -> bool:
        """Bisection over the lex-sorted ``edges``, so that a membership
        test leaves the conflict index unbuilt."""
        edges = self.edges
        k = bisect_left(edges, e)
        return k < len(edges) and edges[k] == e

    def __repr__(self) -> str:
        return f"DuoGraph(m={self.m}, |E|={len(self.edges)})"

    def conflict_set(self, e: Edge) -> tuple[Edge, ...]:
        """All graph edges conflicting with ``e``, in lexicographic order;
        EdgeNotInGraphError when ``e`` is not a graph edge."""
        index = self.index
        k = index.pos.get(e)
        if k is None:
            raise EdgeNotInGraphError(f"edge {e} not in graph")
        edges = self.edges
        return tuple([edges[f] for f in _positions(index.conf[k])])


def _positions(mask: int):
    """Set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(masks, bits: int) -> int:
    """The OR of ``masks[k]`` over the set bits k of ``bits``: with the
    ``conf`` or ``par`` masks of an index, the edges conflicting with, or
    parallel to, some edge of ``bits``."""
    out = 0
    while bits:  # inline, not _positions, as in _compatible_edges
        low = bits & -bits
        out |= masks[low.bit_length() - 1]
        bits ^= low
    return out


def _lonely(par: tuple[int, ...], edges: int, mask: int) -> int:
    """The mask of the edges of ``edges`` with no parallel neighbour in
    ``mask``: with ``edges == mask`` a matching, its singletons."""
    out = 0
    while edges:
        low = edges & -edges
        if not par[low.bit_length() - 1] & mask:
            out |= low
        edges ^= low
    return out


def _conflicting_pairs(edges):
    """Conflicting pairs (a, b) of the list ``edges``, a listed before b,
    in order of a's index and then b's: the order of
    :func:`itertools.combinations`.  Repeated entries are compatible.

    Conflicts are read from the :func:`_index` of the distinct edges.
    """
    index = _index(tuple(sorted(set(edges))))
    at: list[list[int]] = [[] for _ in index.conf]
    for t, e in enumerate(edges):
        at[index.pos[e]].append(t)
    for t, a in enumerate(edges):
        near = _positions(index.conf[index.pos[a]])
        for u in sorted(u for k in near for u in at[k] if u > t):
            yield a, edges[u]


def _compatible_edges(edges: tuple[Edge, ...], conf: tuple[int, ...], mask: int,
                      kept: int = 0) -> list[Edge]:
    """The edges ``edges[k]`` for the set bits k of ``mask``, each checked
    against the conflicts ``conf[k]`` above it in ``mask`` and anywhere in
    ``kept``, so that with no ``kept`` IncompatibleEdgesError names the
    first conflicting pair in lex order.  With ``kept`` a compatible set,
    the edges ``mask`` adds to it are checked at O(|mask|) cost."""
    es = []
    rest = mask
    while rest:  # inline, not _positions: that costs 2-4% of every solve
        low = rest & -rest
        k = low.bit_length() - 1
        hit = conf[k] & (rest | kept)
        if hit:
            raise IncompatibleEdgesError(edges[k], edges[(hit & -hit).bit_length() - 1])
        es.append(edges[k])
        rest ^= low
    return es


class Matching:
    """A validated pairwise-compatible edge set, stored in lex order.

    Construction checks the edges on their :func:`_index` and raises
    :class:`IncompatibleEdgesError` naming the first offending pair in lex
    order.  A matching the solvers build from a bitmask over a graph's edges
    (:meth:`_of_mask`) also keeps that graph and mask, so the next search
    step reads the mask back instead of rebuilding it.
    """

    __slots__ = ("edges", "_graph", "_mask")

    def __init__(self, edges=()) -> None:
        es = tuple(sorted(set(Edge(*e) for e in edges)))
        _compatible_edges(es, _index(es).conf, (1 << len(es)) - 1)
        self.edges: tuple[Edge, ...] = es
        self._graph: DuoGraph | None = None
        self._mask = 0

    @classmethod
    def _of_mask(cls, g: DuoGraph, mask: int) -> "Matching":
        """The matching of the edges ``g.edges[k]`` for the set bits k of
        ``mask``, validated on ``g.index``, so an incompatible mask names
        the same first pair as the constructor."""
        out = cls.__new__(cls)
        out.edges = tuple(_compatible_edges(g.edges, g.index.conf, mask))
        out._graph = g
        out._mask = mask
        return out

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __contains__(self, e: Edge) -> bool:
        return e in self.edges

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        inner = ", ".join(f"({e.i},{e.j})" for e in self.edges)
        return f"Matching[{inner}]"


def _mask(g: DuoGraph, matching: Matching) -> int:
    """Bitmask of ``matching`` over ``g.edges`` positions, read back when
    the matching was built over ``g``; EdgeNotInGraphError for an edge
    outside g."""
    if matching._graph is g:
        return matching._mask
    pos = g.index.pos
    try:
        return sum(1 << pos[e] for e in matching.edges)
    except KeyError as exc:
        raise EdgeNotInGraphError(f"edge {exc.args[0]} not in graph") from None


def _matching_on(g: DuoGraph, edges) -> Matching | None:
    """The matching of ``edges``, :class:`Edge` objects or ``(i, j)``
    tuples, built on ``g`` by :meth:`Matching._of_mask`, so later steps read
    its mask back; None when an edge is not in ``g`` or two edges conflict.
    An edge hashes and compares as its tuple, so either finds its bit."""
    pos = g.index.pos
    try:
        return Matching._of_mask(g, sum(1 << k for k in {pos[e] for e in edges}))
    except (KeyError, IncompatibleEdgesError):
        return None


def singleton_partition(edges) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """Split a matching into (singletons, parallels).

    An edge (i, j) is *parallel* when the matching also uses (i-1, j-1) or
    (i+1, j+1), i.e. it extends a run of consecutive preserved duos; it is a
    *singleton* otherwise.
    """
    es = frozenset(Edge(*e) for e in edges)
    parallels = frozenset(
        e for e in es
        if Edge(e.i - 1, e.j - 1) in es or Edge(e.i + 1, e.j + 1) in es
    )
    return es - parallels, parallels


def partition_from_matching(inst: StringInstance, matching: Matching) -> list[tuple[str, ...]]:
    """Cut A into blocks at every duo the matching leaves unpreserved.

    The block list is a common partition witness: B can be cut into the same
    multiset of blocks.  Number of blocks == n - len(matching).
    """
    covered = {e.i for e in matching}
    blocks: list[tuple[str, ...]] = []
    start = 0
    for i in range(1, inst.n):
        if i not in covered:
            blocks.append(inst.a[start:i])
            start = i
    blocks.append(inst.a[start:])
    return blocks

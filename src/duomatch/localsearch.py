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
:class:`~duomatch.core.ConflictIndex`, and each step of the search makes
one swap enumeration, which answers replace and reduce together.  For a
rho-subset X of the matching, the entrants are the non-matching edges
whose conflicts with the matching are non-empty and lie inside X.  The
enumerator does not visit the subsets one by one.  It grows *cores*,
compatible sets Y of entrants whose conflicts C inside the matching number
at most rho, and reads off which X admit a move: for replace every X
containing C of a core with |Y| = |C| + 1 (Hurkens and Schrijver's
t-improvement argument makes such minimal cores connected through shared
conflicts), for reduce every X containing the dropped edges of an accepted
equal-size swap.  The first such X in scan order is C plus the earliest
other matching edges, minimised over the cores, and only that X is
searched for the incoming edges.  One walk over the cores records the
first replace X and, while there is none, the first reduce X, so a step
that ends the run, where neither move applies, walks the cores once.  So
every trace is the same as that of a plain scan that visits each subset in
order and tests each graph edge against each kept edge.

One :class:`_SwapState` carries what the moves read: the matching's mask,
size and singleton count, its free edges, and its entrants as a map and a
mask.  :func:`local_search` keeps one state as the matching for the whole
run and moves it after every step; a move updates the count from the
changed edges and their parallel neighbours (:func:`_singleton_change`),
and the free edges and entrants from the changed edges and their
conflicts, not from the whole matching or graph.  The greedy extension
scans the free edges only, and :func:`is_local_optimum` reads maximality
off them.  The loop, :func:`improve_step` and :func:`is_local_optimum` all
search from a state through one "replace, else reduce" method.  Each step
of the loop checks the edges it adds against the new mask, and a
:class:`Matching` is built only for the run's result.  Reduce's acceptance
test reads the changed edges only too.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .core import (DuoError, DuoGraph, Edge, InvariantError, Matching, NotMaximalError,
                   _compatible_edges, _lonely, _mask, _positions, _union)

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


def greedy_maximal(g: DuoGraph, matching: Matching | None = None,
                   config: SolverConfig = SolverConfig()) -> Matching:
    """Extend ``matching`` to a maximal one, adding edges in scan order.

    With a seeded config the scan order is a reproducible shuffle instead.
    Idempotent once the matching is maximal.  Every edge of ``matching``
    must belong to ``g`` (EdgeNotInGraphError otherwise).  A thin wrapper
    over :meth:`_SwapState.extend` on a fresh state.
    """
    taken = _mask(g, matching) if matching is not None else 0
    state = _SwapState(g, config.rho, config.scan_order, taken, config.seed)
    return Matching._of_mask(g, state.extend())


def _first_subset(pool: int, conf, width: int, base: int, accept,
                  reverse: bool) -> int | None:
    """First pairwise-compatible ``width``-subset of the edges in ``pool``
    whose union with ``base`` passes ``accept``; returns that union.

    Subsets come in lexicographic order over the pool in scan order (lowest
    position first, or highest with ``reverse``).  ``avail`` holds the pool
    edges after the last pick that are compatible with every pick, so a
    branch ends as soon as too few of them remain.
    """

    # frames (avail, need, chosen); a parent is pushed back under its child,
    # with its next pick to resume from
    stack = [(pool, width, 0)]
    while stack:
        avail, need, chosen = stack.pop()
        while avail.bit_count() >= need:
            k = avail.bit_length() - 1 if reverse else (avail & -avail).bit_length() - 1
            bit = 1 << k
            avail ^= bit
            if need == 1:
                if accept(base | chosen | bit):
                    return base | chosen | bit
            else:
                stack.append((avail, need, chosen))
                stack.append((avail & ~conf[k], need - 1, chosen | bit))
                break
    return None


def _first_x(g: DuoGraph, m_mask: int, inside: dict[int, int], ent: int, rho: int,
             lowers, reverse: bool) -> tuple[int | None, int | None]:
    """``(replace_x, reduce_x)``: the first rho-subset X of the matching, in
    scan order, that admits a replace, and while none does, the first that
    admits a reduce under ``lowers``, reduce's acceptance test (None: reduce
    is not sought); each a mask, or None.

    A swap drops X_out from the matching and takes in Y, pairwise-compatible
    entrants (``ent`` is their mask, and ``inside`` maps each to its
    conflicts in the matching) whose conflicts C lie within X_out, with
    |Y| = |X_out| + 1 for replace and |Y| = |X_out| for reduce.  X admits a
    move iff it contains the X_out of an accepted swap, and the first X
    holding a given X_out is X_out plus the rho - |X_out| earliest other
    matching edges; the answer is the earliest of these over all swaps.

    * Replace: swaps with X_out = C and |Y| = |C| + 1 suffice, since any Y
      with more edges than conflicts holds one, and a minimal one is
      connected through shared conflicts.
    * Reduce, while no replace applies: no compatible Y of at most rho
      entrants has more edges than conflicts, so every swap has X_out = C
      and splits into parts with no shared conflict, no parallel pair and
      no common parallel neighbour in the matching.  Its singleton change
      is the sum over the parts, so one part is an accepted swap by itself,
      and cores connected through those links suffice.

    Cores grow one entrant at a time, each set once, from its lowest entrant
    through linked ones (Wernicke's ESU scheme): through near links when
    reduce is sought at width 2 or more, else through conflict links only.
    A core with |Y| = |C| + 1 gives a replace and is not grown, and an
    accepted core with |Y| = |C| gives a reduce and grows on, since a
    replace may lie above it; near-connected sets include the
    conflict-connected minimal replace cores.  Once a replace X is found, a
    core whose C already gives an X no earlier than it is not grown, since
    more entrants only enlarge C.
    """
    conf, par = g.index.conf, g.index.par
    replace_x = reduce_x = None
    # |Y| - |C| at which a core may give a move; below it a core only grows
    need = 0 if lowers else 1

    def x_of(out: int) -> int:
        rest = m_mask & ~out
        for _ in range(rho - out.bit_count()):
            low = 1 << (rest.bit_length() - 1) if reverse else rest & -rest
            out |= low
            rest ^= low
        return out

    def before(x: int, y: int) -> bool:
        """Whether X ``x`` comes before X ``y`` in scan order."""
        d = x ^ y
        return d > 0 and bool(x & (1 << (d.bit_length() - 1) if reverse else d & -d))

    def conflict_links(k: int) -> int:
        return _union(conf, inside[k]) & ent

    def near_links(k: int) -> int:
        own = inside[k] | 1 << k
        near = own | _union(par, own)
        near |= _union(par, near & m_mask & ~own)
        return (near | _union(conf, near & m_mask)) & ent

    def admits(y: int, c: int, extra: int) -> bool:
        """Record the move core (y, c) with |Y| - |C| = ``extra`` >= need
        gives; True when it may grow."""
        nonlocal replace_x, reduce_x
        if extra:
            replace_x = x_of(c)
            return False
        if replace_x is None:
            x = x_of(c)
            if (reduce_x is None or before(x, reduce_x)) and lowers(m_mask & ~c | y):
                reduce_x = x
        return True

    def grow(y: int, c: int, ny: int, ext: int, ok: int, seen: int, above: int) -> None:
        ny += 1
        while ext:
            w = ext & -ext
            ext ^= w
            k = w.bit_length() - 1
            cw = c | inside[k]
            nc = cw.bit_count()
            if nc > rho or replace_x is not None and not before(x_of(cw), replace_x):
                continue
            if ny - nc < need or admits(y | w, cw, ny - nc):
                lw = cache.get(k)
                if lw is None:
                    lw = cache[k] = link(k)
                okw = ok & ~conf[k]
                grow(y | w, cw, ny, (ext | lw & ~seen & above) & okw, okw, seen | lw, above)

    cache: dict[int, int] = {}
    # at width 1 a reduce core is one entrant and every core that may grow
    # shares its one conflict, so conflict links suffice for both moves
    link = near_links if lowers and rho > 1 else conflict_links
    rest = ent
    while rest:
        bit = rest & -rest
        rest ^= bit
        v = bit.bit_length() - 1
        c = inside[v]
        if replace_x is not None and not before(x_of(c), replace_x):
            continue
        # every entrant conflicts with the matching, so a root has
        # |Y| - |C| <= 0 and may always grow
        if not need and c.bit_count() == 1:
            admits(bit, c, 0)
        lv = cache.get(v)
        if lv is None:
            lv = cache[v] = link(v)
        grow(bit, c, 1, lv & rest & ~conf[v], ~conf[v], lv | bit, rest)
    # grow's closure holds grow itself, and through it the cores' masks, the
    # acceptance test and the graph; dropping it frees them now instead of
    # leaving a cycle for the garbage collector
    del grow
    return replace_x, reduce_x


def _grows(mask: int) -> bool:
    return True


def _singleton_change(par: tuple[int, ...], before: int, after: int) -> int:
    """Singletons of mask ``after`` less those of mask ``before``, read on
    the edges that differ and their parallel neighbours only: the bits of
    each side's :func:`~duomatch.core._lonely` mask over them, counted.

    An edge outside them is in both masks or in neither, and so are its
    parallel neighbours, since ``par`` is symmetric: its status is the
    same on both sides.  The cost is O(number of changed edges), not
    O(size of the masks).
    """
    near = before ^ after
    near |= _union(par, near)
    return (_lonely(par, after & near, after).bit_count()
            - _lonely(par, before & near, before).bit_count())


class _SwapState:
    """The matching a search is at, with what its moves read: its mask,
    size and singleton count; ``free``, the mask of the edges outside it
    with no conflict in it; ``inside``, which maps each entrant (a
    non-matching edge whose conflicts with the matching are non-empty and
    number at most rho) to those conflicts; and ``ent``, the mask of the
    entrants.  For a maximal matching
    ``free`` is 0 and no other edge can enter a swap.

    :meth:`move` is the only update, and a fresh state is the move from the
    empty matching, where every edge is free, so a state built for one
    query and one carried across a whole run hold the same fields.  A move
    reads only the changed edges, their parallel neighbours for the count
    and their conflicts for ``free`` and the entrants: an edge outside both
    keeps its membership and its conflicts in the matching.  ``seed`` fixes
    the shuffled order :meth:`extend` scans in, once per state.
    """

    def __init__(self, g: DuoGraph, rho: int, scan_order: str, m_mask: int = 0,
                 seed: int | None = None) -> None:
        self.g, self.rho = g, rho
        self.reverse = scan_order == SCAN_REVERSE_LEX
        # extend's sort key for a seed, each position's place in the
        # shuffle; lex and reverse-lex walk the free mask's bits instead
        self.key = None
        if seed is not None:
            order = list(range(len(g.edges)))
            random.Random(seed).shuffle(order)
            self.key = sorted(range(len(order)), key=order.__getitem__).__getitem__
        self.mask = self.size = self.singles = 0
        self.free = (1 << len(g.edges)) - 1
        self.inside: dict[int, int] = {}
        self.ent = 0
        self.move(m_mask)

    def move(self, mask: int) -> None:
        """Make ``mask`` the matching.  The entrants among the changed edges
        and their conflicts leave ``inside`` and ``ent``, and only the edges
        of those outside the new matching are re-classified: an edge in it
        is neither free nor an entrant, so an entrant that joins it just
        leaves."""
        conf, inside, rho = self.g.index.conf, self.inside, self.rho
        near = self.mask ^ mask
        near |= _union(conf, near)
        self.singles += _singleton_change(self.g.index.par, self.mask, mask)
        self.mask, self.size = mask, mask.bit_count()
        free, ent = self.free & ~near, self.ent & ~near
        for k in _positions(self.ent & near):
            del inside[k]
        for k in _positions(near & ~mask):
            c = conf[k] & mask
            if not c:
                free |= 1 << k
            elif c.bit_count() <= rho:
                inside[k] = c
                ent |= 1 << k
        self.free, self.ent = free, ent

    def extend(self) -> int:
        """The mask of the matching extended greedily over ``free`` in scan
        order (lex, reverse-lex or the seeded shuffle); the state does not
        move.  An edge that is not free at the start conflicts with the
        matching or is in it, so a scan over every graph edge would take
        the same edges."""
        conf, taken, free = self.g.index.conf, self.mask, self.free
        if self.key is not None:
            for k in sorted(_positions(free), key=self.key):
                if free >> k & 1:
                    taken |= 1 << k
                    free &= ~conf[k]
            return taken
        # the first free edge in scan order is taken, so each pass takes one
        while free:
            low = 1 << (free.bit_length() - 1) if self.reverse else free & -free
            taken |= low
            free &= ~(low | conf[low.bit_length() - 1])
        return taken

    def lowers(self, mask: int) -> bool:
        """Reduce's acceptance test: ``mask`` has fewer singletons than the
        matching, read on the changed edges only (:func:`_singleton_change`),
        so each call costs O(rho), not O(|M|)."""
        return _singleton_change(self.g.index.par, self.mask, mask) < 0

    def _swap_in(self, x: int, gain: int, accept) -> int:
        """The first matching of size + ``gain`` edges that keeps the
        matching outside the rho-subset ``x`` and passes ``accept``: the
        pool X plus the entrants whose conflicts lie inside X, searched in
        scan order for the incoming edges.  Those entrants conflict with
        some edge of X, so only the conflicts of X are read."""
        conf, inside = self.g.index.conf, self.inside
        entering = 0
        for k in _positions(_union(conf, x) & self.ent):
            if not inside[k] & ~x:
                entering |= 1 << k
        found = _first_subset(x | entering, conf, self.rho + gain, self.mask & ~x, accept,
                              self.reverse)
        if found is None:
            raise InvariantError(f"the rho-subset {x:#x} admits no move after all")
        return found

    def improve(self, reduce: bool) -> int | None:
        """The first replace, else, with ``reduce`` and a singleton to lose,
        the first reduce, from one enumeration of the matching's cores.

        Returns the mask of the matching the move reaches, or None.  When
        the matching has at most rho edges every compatible subset of the
        graph is a candidate.  Otherwise the rho-subsets X are ordered
        lexicographically over the matching in scan order, and
        :func:`_first_x` finds the first X that admits a replace, and while
        none does the first that admits a reduce, straight from the cores of
        the matching; only that X is searched (:meth:`_swap_in`).
        """
        conf, rho, reverse = self.g.index.conf, self.rho, self.reverse
        lowers = self.lowers if reduce and self.singles else None
        if self.size <= rho:
            every = (1 << len(conf)) - 1
            found = _first_subset(every, conf, self.size + 1, 0, _grows, reverse)
            if found is None and lowers:
                found = _first_subset(every, conf, self.size, 0, lowers, reverse)
            return found
        replace_x, reduce_x = (
            _first_x(self.g, self.mask, self.inside, self.ent, rho, lowers, reverse)
            if self.ent else (None, None))
        if replace_x is not None:
            return self._swap_in(replace_x, 1, _grows)
        if reduce_x is not None:
            return self._swap_in(reduce_x, 0, lowers)
        return None


def improve_step(g: DuoGraph, matching: Matching,
                 config: SolverConfig = SolverConfig()) -> Matching | None:
    """The move :func:`local_search` makes at ``matching``: the first
    replace, else, with ``config.use_reduce`` and a singleton to lose, the
    first reduce; None when neither applies.

    Mirrors :func:`is_local_optimum` but accepts a non-maximal matching.
    When the matching has at most rho edges the whole graph is searched for
    a matching one edge larger, else for one of equal size with fewer
    singletons.  Otherwise the first rho-subset X of the matching, in scan
    order, whose pool of X plus its eligible entrants holds a move gives
    it; keeping some of X in the new edges realizes every narrower swap, so
    widths below rho need no separate pass.
    """
    state = _SwapState(g, config.rho, config.scan_order, _mask(g, matching))
    found = state.improve(config.use_reduce)
    return None if found is None else Matching._of_mask(g, found)


def local_search(g: DuoGraph, config: SolverConfig = SolverConfig()) -> tuple[Matching, SearchTrace]:
    """Run the full loop from the empty matching; returns the terminal
    matching and a step-by-step trace.

    Each iteration re-extends greedily over the free edges (recorded only
    when it adds edges), then tries replace, then reduce if enabled, and
    terminates when neither applies.  One :class:`_SwapState` is the
    matching throughout the run; a :class:`Matching` is built only for the
    result and for IterationCapError.  Every step checks its added edges
    against the new mask, which finds any conflict in it, since the mask
    before the step was checked.  Raises IterationCapError only when
    ``config.max_iterations`` is set and reached.
    """
    steps: list[TraceStep] = []
    state = _SwapState(g, config.rho, config.scan_order, seed=config.seed)
    iteration = 0

    def record(phase: str, a: int) -> None:
        b, size_before, singles_before = state.mask, state.size, state.singles
        state.move(a)
        # tuples from lists: tuple() over a generator grows and then shrinks
        # its result, and over many runs that fragments the heap measurably;
        # the added edges are checked against the kept ones as they are listed
        steps.append(
            TraceStep(
                iteration=iteration,
                phase=phase,
                size_before=size_before,
                size_after=state.size,
                singletons_before=singles_before,
                singletons_after=state.singles,
                removed=tuple([g.edges[k] for k in _positions(b & ~a)]),
                added=tuple(_compatible_edges(g.edges, g.index.conf, a & ~b, a & b)),
            )
        )

    while True:
        if config.max_iterations is not None and iteration >= config.max_iterations:
            raise IterationCapError(Matching._of_mask(g, state.mask), SearchTrace(tuple(steps)))
        extended = state.extend()
        if extended != state.mask:
            record(PHASE_GREEDY, extended)
        found = state.improve(config.use_reduce)
        if found is None:
            record(PHASE_TERMINATE, state.mask)
            return Matching._of_mask(g, state.mask), SearchTrace(tuple(steps))
        record(PHASE_REPLACE if found.bit_count() > state.size else PHASE_REDUCE, found)
        iteration += 1


def is_local_optimum(g: DuoGraph, matching: Matching,
                     config: SolverConfig = SolverConfig()) -> bool:
    """True when no configured move applies to ``matching``.

    Raises NotMaximalError, naming the lowest free edge of the swap state,
    if some graph edge extends the matching, since the moves are only
    meaningful on maximal matchings.  When the matching has at most rho
    edges the whole graph is searched, as in :func:`improve_step`.
    """
    state = _SwapState(g, config.rho, config.scan_order, _mask(g, matching))
    if state.free:
        k = (state.free & -state.free).bit_length() - 1
        raise NotMaximalError(f"edge {g.edges[k]} extends the matching")
    return state.improve(config.use_reduce) is None

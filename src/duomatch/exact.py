"""Exact optimum by branch and bound.

Serves as the oracle the heuristic is measured against.  A maximum matching
is a maximum independent set of the conflict graph (:attr:`DuoGraph.index`),
so one colour-ordered search in the style of Tomita's MCQ/MCS maximum-clique
solvers, run on the complement, answers every question here: each node
covers its candidates greedily by conflict cliques, numbers each candidate
with the clique it joined, and branches on the highest numbers first,
cutting every candidate whose number cannot lift the node past the
incumbent.  The edges are first renumbered smallest-last (degeneracy order
of the compatibility graph), which sets the order the covers are built in.
The search keeps an explicit stack, so its depth is not limited by Python's
recursion limit, and all its runs for one answer share one node budget.

:func:`exact_max_value` returns the optimum value only, which is all
``bench --with-exact`` needs.  It starts from a matching the caller already
has, usually the local search's, so only subtrees that beat it are
searched.

:func:`exact_max_matching` also returns the lexicographically smallest
maximum matching as its witness.  It starts from the rho-1 local search's
matching and runs the search once for the optimum and some maximum matching
W.  It then fixes the witness edge by edge, lowest first: an edge of W is
taken at no cost, and any other candidate only if the search finds the rest
of a maximum matching among the later candidates compatible with it, a set
that then replaces W.  Taking each lowest edge that still fits gives exactly
the lex-least maximum matching, whatever W the first search ends with.

Every search starts from a matching, its incumbent, and a node budget,
checked in one place: a budgeted run that stops carries the largest
matching known, the incumbent if nothing beat it, and a budget of 0 stops
at the root.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DuoError, DuoGraph, Matching, _mask, _positions, _union
from .localsearch import SolverConfig, local_search


@dataclass(frozen=True)
class ExactResult:
    value: int
    witness: Matching
    nodes_explored: int


class BudgetExceededError(DuoError):
    """Node budget ran out; carries the best solution found so far, which is
    a valid lower bound on the optimum."""

    def __init__(self, budget: int, best: ExactResult):
        super().__init__(f"node budget {budget} exhausted; best found {best.value}")
        self.budget = budget
        self.best = best


def _smallest_last(conf: tuple[int, ...]) -> list[int]:
    """Edge numbers in smallest-last order of the compatibility graph:
    repeatedly remove the edge with the most conflicts among those left
    (the lowest edge on ties) and put it last."""
    deg = [c.bit_count() for c in conf]
    buckets = [0] * (max(deg, default=0) + 1)  # the edges left, by their degree
    for k, d in enumerate(deg):
        buckets[d] |= 1 << k
    left = (1 << len(conf)) - 1
    top = len(buckets) - 1
    order = []
    while left:
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        left ^= low
        k = low.bit_length() - 1
        order.append(k)
        near = conf[k] & left
        while near:
            bit = near & -near
            near ^= bit
            u = bit.bit_length() - 1
            buckets[deg[u]] ^= bit
            deg[u] -= 1
            buckets[deg[u]] |= bit
    order.reverse()
    return order


class _Search:
    """The colour-ordered search over the edges of ``g`` renumbered
    smallest-last: bit t of a mask here stands for edge ``order[t]``, and
    ``bit[k]`` is the bit of edge k.  ``known`` is the largest matching
    known, from ``incumbent`` on; ``nodes`` counts the root and every branch
    node of every :meth:`run`, and passing ``budget`` raises
    BudgetExceededError with ``known`` attached, at the root when it is 0.
    A negative budget raises ValueError, and an incumbent off ``g``
    EdgeNotInGraphError."""

    def __init__(self, g: DuoGraph, budget: int | None, incumbent: Matching) -> None:
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.g, self.budget = g, budget
        self.nodes = 1
        lex_conf = g.index.conf
        self.order = _smallest_last(lex_conf)
        self.bit = [0] * len(self.order)
        for t, k in enumerate(self.order):
            self.bit[k] = 1 << t
        self.conf = [_union(self.bit, lex_conf[k]) for k in self.order]
        self.known = _union(self.bit, _mask(g, incumbent))
        if budget == 0:
            raise self.stop()

    def matching(self, mask: int) -> Matching:
        """The matching of the edges set in the renumbered ``mask``."""
        return Matching._of_mask(self.g, sum(1 << self.order[t] for t in _positions(mask)))

    def stop(self) -> BudgetExceededError:
        """The budget error carrying ``known``."""
        return BudgetExceededError(self.budget, ExactResult(
            self.known.bit_count(), self.matching(self.known), self.nodes))

    def run(self, cands: int, chosen: int, best: int, goal: int | None = None) -> int:
        """The size of the largest matching that extends the renumbered
        matching ``chosen`` by edges of ``cands``, all compatible with it,
        or ``best`` if none has more edges; each larger one found becomes
        ``known``, and the first found with ``goal`` edges ends the run."""
        conf, budget, nodes = self.conf, self.budget, self.nodes

        def cover(cands: int, size: int) -> list[tuple[int, int]]:
            """The candidates worth branching on at a node of ``size`` edges,
            with their clique numbers, lowest number first: greedy cliques
            start at the lowest uncovered edge and grow by the lowest edge
            conflicting with every edge taken, and a candidate on clique c
            is worth branching on only if size + c can beat ``best``."""
            worth = best - size + 1
            out = []
            c = 0
            while cands:
                c += 1
                q = cands
                while q:
                    low = q & -q
                    cands ^= low
                    v = low.bit_length() - 1
                    q &= conf[v]
                    if c >= worth:
                        out.append((v, c))
            return out

        # frames [size, cands, chosen, branch]: cands holds the candidates of
        # the node not yet branched on, all compatible with the chosen edges,
        # and branch the (edge, clique number) pairs left to branch on
        size = chosen.bit_count()
        stack = [[size, cands, chosen, cover(cands, size)]]
        while stack:
            frame = stack[-1]
            size, cands, chosen, branch = frame
            # branch is taken from its end, highest number first, so the first
            # number that cannot beat the incumbent ends the node
            if not branch or size + branch[-1][1] <= best:
                stack.pop()
                continue
            v = branch.pop()[0]
            bit = 1 << v
            cands ^= bit
            frame[1] = cands
            nodes += 1
            if budget is not None and nodes > budget:
                self.nodes = nodes
                raise self.stop()
            chosen |= bit
            size += 1
            if size > best:
                best, self.known = size, chosen
                if best == goal:
                    break
            rest = cands & ~conf[v]
            if size + rest.bit_count() > best:
                stack.append([size, rest, chosen, cover(rest, size)])
        self.nodes = nodes
        return best


def exact_max_matching(g: DuoGraph, budget: int | None = None) -> ExactResult:
    """Maximum pairwise-compatible edge set of ``g``, with the lex-least
    maximum matching as the witness.

    The search starts from the rho-1 local search's matching.  ``budget``
    caps explored nodes, the root included, so 0 stops at the root; on
    exhaustion BudgetExceededError is raised with the largest matching known
    attached, at least the rho-1 matching and a maximum one once the witness
    is being fixed, and a negative budget raises ValueError.  Deterministic
    for a given graph.
    """
    search = _Search(g, budget, local_search(g, SolverConfig(rho=1))[0])
    cands = (1 << len(g.edges)) - 1
    value = search.run(cands, 0, search.known.bit_count())
    conf, chosen = search.conf, 0
    for bit in search.bit:
        if chosen.bit_count() == value:
            break
        if not cands & bit:
            continue
        cands ^= bit
        near = conf[bit.bit_length() - 1]
        # an edge outside the known optimum stays only if the later
        # candidates compatible with it complete a maximum matching; when
        # it is the last edge needed, it completes one itself
        if (not search.known & bit and chosen.bit_count() + 1 < value
                and search.run(cands & ~near, chosen | bit, value - 1, value) < value):
            continue
        chosen |= bit
        cands &= ~near
    return ExactResult(value, search.matching(chosen), search.nodes)


def exact_max_value(g: DuoGraph, incumbent: Matching,
                    budget: int | None = None) -> tuple[int, int]:
    """The size of a maximum matching of ``g`` and the nodes explored.

    ``incumbent`` is a matching on ``g`` (EdgeNotInGraphError otherwise);
    the search looks only for matchings larger than it, so a good one
    saves work and none can make the value wrong.  ``budget`` caps explored
    nodes as in :func:`exact_max_matching`, and a negative one raises
    ValueError; on exhaustion BudgetExceededError carries the largest
    matching found, the incumbent if nothing beat it, as at budget 0.
    Deterministic for a given graph and incumbent.
    """
    search = _Search(g, budget, incumbent)
    return search.run((1 << len(g.edges)) - 1, 0, len(incumbent)), search.nodes


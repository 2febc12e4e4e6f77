"""Exact optimum by branch and bound.

Serves as the oracle the heuristic is measured against.  Two searches run
over the graph's conflict index (:attr:`DuoGraph.index`); both keep an
explicit stack, so their depth is not limited by Python's recursion limit,
and both take a node budget.

:func:`exact_max_matching` returns the optimum and a witness.  It is an
include-first depth-first search: edges are branched in lexicographic order,
taking the lowest remaining candidate first, so the witness reported for the
optimum value is the lexicographically smallest maximum matching.  Each node
is bounded twice: by its size plus the number of surviving candidates, then
by its size plus the number of cliques in a greedy clique cover of the
candidates' conflict graph (a matching holds at most one edge per clique).
A subtree is cut only when it cannot strictly beat the incumbent, so the
bound changes how many nodes are visited, never the value or the witness.

:func:`exact_max_value` returns the optimum value only, which is all
``bench --with-exact`` needs.  A maximum matching is a maximum independent
set of the conflict graph, so this is a colour-ordered search in the style
of Tomita's MCQ/MCS maximum-clique solvers, run on the complement: each
node covers its candidates greedily by conflict cliques, numbers each
candidate with the clique it joined, and branches on the highest numbers
first, cutting every candidate whose number cannot lift the node past the
incumbent.  The edges are first renumbered smallest-last (degeneracy order
of the compatibility graph), which sets the order the covers are built in.
It starts from a matching the caller already has, usually the local
search's, so only subtrees that beat it are searched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DuoError, DuoGraph, Matching, StringInstance, _mask, _positions


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


def _cover_within(conf: tuple[int, ...], rest: int, slack: int) -> bool:
    """True when a greedy clique cover of ``rest`` uses at most ``slack``
    cliques.  Each clique starts at the lowest uncovered edge and grows by
    the lowest uncovered edge conflicting with every edge taken so far;
    counting stops as soon as it passes ``slack``."""
    count = 0
    while rest:
        count += 1
        if count > slack:
            return False
        low = rest & -rest
        rest ^= low
        q = rest & conf[low.bit_length() - 1]
        while q:
            w = q & -q
            rest ^= w
            q &= conf[w.bit_length() - 1]
    return True


def exact_max_matching(g: DuoGraph, budget: int | None = None) -> ExactResult:
    """Maximum pairwise-compatible edge set of ``g``.

    ``budget`` caps explored nodes, the root included, so 0 stops at the
    root; on exhaustion BudgetExceededError is raised with the incumbent
    attached, and a negative budget raises ValueError.  Deterministic for a
    given graph.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    conf = g.index.conf
    best_mask, best = 0, 0
    nodes = 1
    if budget is not None and nodes > budget:
        raise BudgetExceededError(budget, ExactResult(0, Matching(), nodes))
    # frames (chosen, size, rest): rest holds the candidates not yet
    # branched on at that node, all compatible with every chosen edge
    stack = [(0, 0, (1 << len(g.edges)) - 1)]
    while stack:
        chosen, size, rest = stack.pop()
        # best >= size always, so an empty rest is cut by the first test
        if size + rest.bit_count() <= best or _cover_within(conf, rest, best - size):
            continue
        low = rest & -rest
        rest ^= low
        stack.append((chosen, size, rest))
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(
                budget, ExactResult(best, Matching._of_mask(g, best_mask), nodes)
            )
        chosen |= low
        size += 1
        if size > best:
            best_mask, best = chosen, size
        stack.append((chosen, size, rest & ~conf[low.bit_length() - 1]))
    return ExactResult(best, Matching._of_mask(g, best_mask), nodes)


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


def exact_max_value(g: DuoGraph, incumbent: Matching,
                    budget: int | None = None) -> tuple[int, int]:
    """The size of a maximum matching of ``g`` and the nodes explored.

    ``incumbent`` is a matching on ``g`` (EdgeNotInGraphError otherwise);
    the search looks only for matchings larger than it, so a good one
    saves work and none can make the value wrong.  ``budget`` caps explored
    nodes as in :func:`exact_max_matching`; on exhaustion
    BudgetExceededError carries the largest matching found, the incumbent
    if nothing beat it.  Deterministic for a given graph and incumbent.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    seed = _mask(g, incumbent)
    lex_conf = g.index.conf
    order = _smallest_last(lex_conf)
    # bit t of a mask below stands for edge order[t]
    to_bit = [0] * len(order)
    for t, k in enumerate(order):
        to_bit[k] = 1 << t
    conf = []
    for k in order:
        c, near = 0, lex_conf[k]
        while near:
            low = near & -near
            near ^= low
            c |= to_bit[low.bit_length() - 1]
        conf.append(c)
    best, best_chosen = len(incumbent), None
    nodes = 1

    def stop() -> BudgetExceededError:
        if best_chosen is None:
            mask = seed
        else:
            mask = sum(1 << order[t] for t in _positions(best_chosen))
        return BudgetExceededError(budget, ExactResult(best, Matching._of_mask(g, mask), nodes))

    def cover(cands: int, size: int) -> list[tuple[int, int]]:
        """The candidates worth branching on at a node of ``size`` edges,
        with their clique numbers, lowest number first: greedy cliques
        start at the lowest uncovered edge and grow by the lowest edge
        conflicting with every edge taken, and a candidate on clique c is
        worth branching on only if size + c can beat ``best``."""
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

    if budget is not None and nodes > budget:
        raise stop()
    # frames [size, cands, chosen, branch]: cands holds the candidates of
    # the node not yet branched on, all compatible with the chosen edges,
    # and branch the (edge, clique number) pairs left to branch on
    everything = (1 << len(order)) - 1
    stack = [[0, everything, 0, cover(everything, 0)]]
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
            raise stop()
        chosen |= bit
        size += 1
        if size > best:
            best, best_chosen = size, chosen
        rest = cands & ~conf[v]
        if size + rest.bit_count() > best:
            stack.append([size, rest, chosen, cover(rest, size)])
    return best, nodes


def exact_min_partition_size(inst: StringInstance, budget: int | None = None) -> int:
    """Smallest number of blocks in a common partition of the string pair.

    Every preserved duo merges two blocks, so the minimum block count is
    n minus the maximum number of preserved duos.
    """
    g = DuoGraph.from_strings(inst)
    return inst.n - exact_max_matching(g, budget=budget).value

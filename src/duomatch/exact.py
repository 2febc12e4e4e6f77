"""Exact optimum by branch and bound.

Serves as the oracle the heuristic is measured against.  The search is an
iterative include-first depth-first search over the graph's conflict index
(:attr:`DuoGraph.index`): edges are branched in lexicographic order, taking
the lowest remaining candidate first, so the witness reported for the
optimum value is the lexicographically smallest maximum matching.  Each node
is bounded twice: by its size plus the number of surviving candidates, then
by its size plus the number of cliques in a greedy clique cover of the
candidates' conflict graph (a matching holds at most one edge per clique).
A subtree is cut only when it cannot strictly beat the incumbent, so the
bound changes how many nodes are visited, never the value or the witness.
The search keeps an explicit stack, so its depth is not limited by Python's
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DuoError, DuoGraph, Matching, StringInstance


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


def exact_min_partition_size(inst: StringInstance, budget: int | None = None) -> int:
    """Smallest number of blocks in a common partition of the string pair.

    Every preserved duo merges two blocks, so the minimum block count is
    n minus the maximum number of preserved duos.
    """
    g = DuoGraph.from_strings(inst)
    return inst.n - exact_max_matching(g, budget=budget).value

"""Reference branch and bound, kept as the differential oracle.

This is the exact search as first written: a recursive include-first DFS
over the lex-ordered edges that rebuilds each child's candidate list with
:func:`compatible` and bounds a node by its size plus its candidate count.
Branching lowest edge first makes the first maximum matching it reaches
the lexicographically least one.  :func:`duomatch.exact.exact_max_matching`
gets the same witness another way, from a colour-ordered search that first
finds the optimum and then fixes the witness edge by edge, and must return
the same value and witness while visiting no more nodes.  The recursion
goes one level per chosen edge, so keep inputs small.
"""

from __future__ import annotations

from duomatch.core import DuoGraph, Matching, compatible
from duomatch.exact import BudgetExceededError, ExactResult


def exact_max_matching(g: DuoGraph, budget: int | None = None) -> ExactResult:
    best: list = []
    nodes = 0

    def rec(chosen: list, cands: list) -> None:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(
                budget, ExactResult(len(best), Matching(best), nodes)
            )
        if len(chosen) > len(best):
            best[:] = chosen
        for idx, e in enumerate(cands):
            # bound: even taking every remaining candidate cannot beat best
            if len(chosen) + len(cands) - idx <= len(best):
                break
            chosen.append(e)
            rec(chosen, [c for c in cands[idx + 1:] if compatible(e, c)])
            chosen.pop()

    rec([], list(g.edges))
    return ExactResult(len(best), Matching(best), nodes)

"""Reference local-search moves, kept as the differential oracle.

These are the moves as first written: every candidate pool is rebuilt by
testing each graph edge against the matching with :func:`compatible`, and
singleton counts come from :func:`singleton_partition`.  The solver in
:mod:`duomatch.localsearch` runs the same scans over the graph's conflict
bitmask index and must return exactly the same matchings, so that every
trace stays byte-identical.  :func:`local_search` is the loop as it ran on
the public moves, one call each per step, before the solver carried one
swap state across the run; here it runs on the reference moves.
"""

from __future__ import annotations

import random
from itertools import combinations

from duomatch.core import DuoGraph, Edge, Matching, compatible, singleton_partition
from duomatch.localsearch import (
    PHASE_GREEDY,
    PHASE_REDUCE,
    PHASE_REPLACE,
    PHASE_TERMINATE,
    SCAN_LEX,
    SCAN_REVERSE_LEX,
    IterationCapError,
    SearchTrace,
    SolverConfig,
    TraceStep,
)


def _ordered(edges, scan_order: str) -> list[Edge]:
    return sorted(edges, reverse=(scan_order == SCAN_REVERSE_LEX))


def _singleton_count(edges) -> int:
    return len(singleton_partition(edges)[0])


def greedy_maximal(g: DuoGraph, matching: Matching | None = None,
                   config: SolverConfig = SolverConfig()) -> Matching:
    current: list[Edge] = list(matching.edges) if matching is not None else []
    if config.seed is not None:
        order = list(g.edges)
        random.Random(config.seed).shuffle(order)
    else:
        order = _ordered(g.edges, config.scan_order)
    for e in order:
        if e not in current and all(compatible(e, f) for f in current):
            current.append(e)
    return Matching(current)


def _iter_compatible_subsets(cands: list[Edge], k: int):
    n = len(cands)
    chosen: list[Edge] = []

    def rec(start: int):
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for idx in range(start, n):
            if n - idx < k - len(chosen):
                break
            e = cands[idx]
            if all(compatible(e, c) for c in chosen):
                chosen.append(e)
                yield from rec(idx + 1)
                chosen.pop()

    if k == 0:
        yield ()
    else:
        yield from rec(0)


def _swap_candidates(g: DuoGraph, removed, kept, scan_order: str) -> list[Edge]:
    removed_set = set(removed)
    kept_set = set(kept)
    out: list[Edge] = []
    for e in _ordered(g.edges, scan_order):
        if e in removed_set or e in kept_set:
            continue
        if any(not compatible(e, x) for x in removed) and \
                all(compatible(e, f) for f in kept):
            out.append(e)
    return out


def replace_step(g: DuoGraph, matching: Matching, rho: int = 5,
                 scan_order: str = SCAN_LEX) -> Matching | None:
    m_edges = _ordered(matching.edges, scan_order)
    if len(m_edges) <= rho:
        found = next(
            _iter_compatible_subsets(_ordered(g.edges, scan_order), len(m_edges) + 1),
            None,
        )
        return Matching(found) if found is not None else None
    for removed in combinations(m_edges, rho):
        removed_set = set(removed)
        kept = [e for e in m_edges if e not in removed_set]
        pool = _ordered(
            list(removed) + _swap_candidates(g, removed, kept, scan_order),
            scan_order,
        )
        incoming = next(_iter_compatible_subsets(pool, rho + 1), None)
        if incoming is not None:
            return Matching(kept + list(incoming))
    return None


def reduce_step(g: DuoGraph, matching: Matching, rho: int = 5,
                scan_order: str = SCAN_LEX) -> Matching | None:
    base = _singleton_count(matching.edges)
    if base == 0:
        return None
    m_edges = _ordered(matching.edges, scan_order)
    if len(m_edges) <= rho:
        for cand in _iter_compatible_subsets(_ordered(g.edges, scan_order), len(m_edges)):
            if _singleton_count(cand) < base:
                return Matching(cand)
        return None
    for removed in combinations(m_edges, rho):
        removed_set = set(removed)
        kept = [e for e in m_edges if e not in removed_set]
        pool = _ordered(
            list(removed) + _swap_candidates(g, removed, kept, scan_order),
            scan_order,
        )
        for incoming in _iter_compatible_subsets(pool, rho):
            candidate = kept + list(incoming)
            if _singleton_count(candidate) < base:
                return Matching(candidate)
    return None


def local_search(g: DuoGraph, config: SolverConfig = SolverConfig()) -> tuple[Matching, SearchTrace]:
    steps: list[TraceStep] = []
    current = Matching()
    iteration = 0

    def record(phase: str, before: Matching, after: Matching) -> None:
        b, a = set(before.edges), set(after.edges)
        steps.append(
            TraceStep(
                iteration=iteration,
                phase=phase,
                size_before=len(before),
                size_after=len(after),
                singletons_before=_singleton_count(before.edges),
                singletons_after=_singleton_count(after.edges),
                removed=tuple(sorted(b - a)),
                added=tuple(sorted(a - b)),
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

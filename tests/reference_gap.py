"""Reference gap search and checklist, kept as the differential oracle.

These are the scans as first written: the checklist counts entrants and
blocking edges with one :func:`compatible` call per (edge, matching edge)
pair, and the gap search tests each candidate run against every chosen run
with :func:`_runs_compatible` at every node.  :mod:`duomatch.instances` runs
the same searches over bitmask tables and must return the same reports and
the same instances after visiting the same nodes.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from duomatch.core import DuoGraph, Edge, InvariantError, Matching, compatible
from duomatch.instances import (
    GRAPH_GAP_CAPS,
    ChecklistItem,
    ChecklistReport,
    GapInstance,
    GapSearchSpec,
    SearchBudgetError,
    SubsetBudgetError,
    _anchor_runs,
    _Run,
    _runs_compatible,
    singletons_of,
)


def _entrants(optimum: Matching, kept: tuple[Edge, ...]) -> int:
    kept_set = set(kept)
    count = 0
    for e in optimum.edges:
        if e in kept_set:
            continue
        if all(compatible(e, f) for f in kept):
            count += 1
    return count


def swap_resistance_checklist(g: DuoGraph, matching: Matching, optimum: Matching,
                              caps=GRAPH_GAP_CAPS,
                              subset_budget: int = 2_000_000) -> ChecklistReport:
    items: list[ChecklistItem] = []

    m_set = set(matching.edges)
    blocking = tuple(
        e for e in g.edges
        if e not in m_set and all(compatible(e, f) for f in matching.edges)
    )
    items.append(ChecklistItem("maximal", not blocking, len(blocking), 0, blocking[:3]))

    singles = tuple(sorted(singletons_of(matching)))
    items.append(ChecklistItem("all-parallel", not singles, len(singles), 0, singles[:3]))

    widths = [t for t in range(1, len(caps) + 1) if t <= len(matching)]
    total_subsets = sum(comb(len(matching), t) for t in widths)
    if total_subsets > subset_budget:
        raise SubsetBudgetError(
            f"{total_subsets} subsets exceed budget {subset_budget}"
        )
    m_edges = sorted(matching.edges)
    for t in widths:
        worst = -1
        worst_removed: tuple[Edge, ...] = ()
        for removed in combinations(m_edges, t):
            removed_set = set(removed)
            kept = tuple(e for e in m_edges if e not in removed_set)
            count = _entrants(optimum, kept)
            if count > worst:
                worst = count
                worst_removed = removed
        items.append(
            ChecklistItem(f"swap-{t}", worst <= caps[t - 1], worst, caps[t - 1], worst_removed)
        )
    return ChecklistReport(tuple(items))


def _diag_caps_hold(m_edges: list[Edge], m: int, caps) -> bool:
    ne = len(m_edges)
    pos_cover = [0] * (m + 1)
    for idx, e in enumerate(m_edges):
        for p in (e.i - 1, e.i, e.i + 1, e.j - 1, e.j, e.j + 1):
            if 1 <= p <= m:
                pos_cover[p] |= 1 << idx
    covers = [c for c in pos_cover[1:] if c]
    for t in range(1, min(len(caps), ne) + 1):
        cap = caps[t - 1]
        for picked in combinations(range(ne), t):
            xmask = 0
            for idx in picked:
                xmask |= 1 << idx
            count = 0
            for c in covers:
                if not (c & ~xmask):
                    count += 1
                    if count > cap:
                        break
            if count > cap:
                return False
    return True


def search_gap_instance(spec: GapSearchSpec, stats: dict | None = None) -> GapInstance | None:
    """The search as first written.  When ``stats`` is given, its
    ``"nodes"`` and ``"verdicts"`` entries receive the number of nodes
    visited and of leaf cap tests made."""
    m = spec.m
    optimum = Matching(Edge(i, i) for i in range(1, m + 1))
    target = spec.matching_size
    full_mask = ((1 << m) - 1) << 1
    counts = {"nodes": 0, "verdicts": 0}
    if stats is not None:
        stats.update(counts)
        counts = stats

    for a in spec.anchors:
        if not (1 <= a.i <= m and 1 <= a.j <= m) or a.i == a.j:
            return None

    all_runs: list[_Run] = []
    for i in range(1, m):
        for j in range(1, m):
            if i == j:
                continue
            for ell in range(2, min(spec.max_run_length, target) + 1):
                if i + ell - 1 > m or j + ell - 1 > m:
                    break
                all_runs.append(_Run(i, j, ell, m))
    covering: dict[int, list[_Run]] = {p: [] for p in range(1, m + 1)}
    for r in all_runs:
        for p in range(1, m + 1):
            if r.cover_mask >> p & 1:
                covering[p].append(r)

    seeds = _anchor_runs(spec.anchors, m)
    if any(r.ell < 2 for r in seeds):
        return None
    for r, s in combinations(seeds, 2):
        if not _runs_compatible(r, s):
            return None
    seed_count = sum(r.ell for r in seeds)
    if seed_count > target:
        return None

    def verdict(chosen: list[_Run]) -> GapInstance | None:
        edges = sorted(e for r in chosen for e in r.edges)
        counts["verdicts"] += 1
        if not _diag_caps_hold(edges, m, spec.caps):
            return None
        matching = Matching(edges)
        graph = DuoGraph(m, list(optimum.edges) + edges)
        report = swap_resistance_checklist(graph, matching, optimum, spec.caps)
        if not report.passed:
            raise InvariantError("fast cap test disagrees with the checklist")
        return GapInstance(graph, matching, optimum, report)

    def rec(chosen: list[_Run], count: int, cover: int,
            excluded: frozenset[_Run]) -> GapInstance | None:
        counts["nodes"] += 1
        if counts["nodes"] > spec.max_nodes:
            raise SearchBudgetError(f"gap search exceeded {spec.max_nodes} nodes")
        uncovered = full_mask & ~cover
        if count == target:
            if uncovered:
                return None
            return verdict(chosen)
        if uncovered.bit_count() > 4 * (target - count):
            return None
        pool = covering[(uncovered & -uncovered).bit_length() - 1] if uncovered else all_runs
        skipped: set[_Run] = set()
        for r in pool:
            if r in excluded or r in skipped:
                continue
            if count + r.ell > target:
                continue
            if not all(_runs_compatible(r, c) for c in chosen):
                continue
            found = rec(
                chosen + [r],
                count + r.ell,
                cover | r.cover_mask,
                excluded | frozenset(skipped),
            )
            if found is not None:
                return found
            skipped.add(r)
        return None

    cover = 0
    for r in seeds:
        cover |= r.cover_mask
    return rec(list(seeds), seed_count, cover, frozenset())

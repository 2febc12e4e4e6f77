"""Span tracing around duomatch's layer boundaries, from outside the program.

:func:`install` replaces every public function of the seven modules with a
wrapper.  The modules import names from each other directly (``cli`` binds
``exact_max_matching``, four modules bind ``compatible``), so each original
function gets one wrapper and every binding of it, in every module and in
the package namespace, is pointed at that wrapper.  ``DuoGraph.from_strings``
is wrapped on the class.

Spans stay in memory as ``[name, start, end, parent, op]`` and are written
out once, at the end.  Functions whose cost is per call (``compatible``,
``singleton_partition`` and the checklist's per-subset helpers) only count
calls, because a span each would cost more than the call it measures.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

import duomatch
from duomatch import analysis, cli, core, exact, fileio, instances, localsearch

LAYERS = (core, fileio, localsearch, exact, analysis, instances, cli)

#: Per-call functions that get a call counter instead of a span.  The two
#: private instances helpers run once per checklist subset and once per
#: gap-search verdict; they are the only boundary at which those counts
#: exist.
COUNTED = {
    "core.compatible": "core.compatible_calls",
    "core.singleton_partition": "core.singleton_partition_calls",
    "instances._entrants": "instances.checklist_subsets",
    "instances._diag_caps_hold": "instances.gap_verdict_calls",
}

CHECKS = ("check_full_token_uniqueness", "check_parallel_pair_conflict_gap",
          "check_parallel_token_bound", "check_heavy_singleton_parallel_support")


def _layer(mod) -> str:
    return mod.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counters: dict[str, list[int]] = {}
        self.tallies: Counter = Counter()

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name: str):
        """Result hooks that read work counts off returned values."""
        tallies = self.tallies
        if name in ("localsearch.replace_step", "localsearch.reduce_step"):
            def hit(result):
                tallies[name + ".hits"] += result is not None
            return hit
        if name == "localsearch.local_search":
            def iterations(result):
                tallies["localsearch.iterations"] += result[1].iterations
            return iterations
        if name == "exact.exact_max_matching":
            def nodes(result):
                tallies["exact.nodes"] += result.nodes_explored
            return nodes
        return None

    def install(self) -> None:
        wrappers = {}
        for mod in LAYERS:
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{_layer(mod)}.{attr}"
                if name in COUNTED:
                    wrappers[fn] = self._count(COUNTED[name], fn)
                elif not attr.startswith("_"):
                    wrappers[fn] = self._span(name, fn, self._after(name))
        for ns in (*LAYERS, duomatch):
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(ns, attr, wrappers[value])
        build = core.DuoGraph.__dict__["from_strings"].__func__
        core.DuoGraph.from_strings = classmethod(self._span("core.from_strings", build))

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self time (s) and span count per name.  Spans nest strictly in a
        single thread, so a span's children tile disjoint parts of it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[k]
            calls[name] += 1
        return own, calls

    def work_counts(self) -> dict[str, int]:
        """Every machine-independent count the run produced; two runs of the
        same inputs must agree on all of them."""
        _, calls = self.self_times()
        counts = {f"{name}.calls": n for name, n in calls.items()}
        counts.update(self.tallies)
        counts.update(self.counter_values())
        return dict(sorted(counts.items()))

    def counter_values(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self.counters.items()}

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json, except trace overhead."""
        own, calls = self.self_times()
        ms = {name: sec * 1000.0 for name, sec in own.items()}
        counts = self.counter_values()
        tallies = self.tallies

        def ratio(num, den):
            return num / den if den else 0.0

        exact_ms = sum(v for k, v in ms.items() if k.startswith("exact."))
        out = {
            "localsearch.replace_ms": ms.get("localsearch.replace_step", 0.0),
            "localsearch.replace_calls": calls["localsearch.replace_step"],
            "localsearch.replace_hit_ratio": ratio(
                tallies["localsearch.replace_step.hits"], calls["localsearch.replace_step"]),
            "localsearch.reduce_ms": ms.get("localsearch.reduce_step", 0.0),
            "localsearch.reduce_calls": calls["localsearch.reduce_step"],
            "localsearch.reduce_hit_ratio": ratio(
                tallies["localsearch.reduce_step.hits"], calls["localsearch.reduce_step"]),
            "localsearch.iterations": tallies["localsearch.iterations"],
            "localsearch.greedy_ms": ms.get("localsearch.greedy_maximal", 0.0),
            "localsearch.greedy_calls": calls["localsearch.greedy_maximal"],
            "localsearch.is_local_optimum_ms": ms.get("localsearch.is_local_optimum", 0.0),
            "core.compatible_calls": counts.get("core.compatible_calls", 0),
            "core.singleton_partition_calls": counts.get("core.singleton_partition_calls", 0),
            "core.from_strings_ms": ms.get("core.from_strings", 0.0),
            "core.parse_instance_ms": ms.get("core.parse_instance", 0.0),
            "fileio.load_problem_ms": ms.get("fileio.load_problem", 0.0),
            "exact.ms": exact_ms,
            "exact.nodes": tallies["exact.nodes"],
            "exact.nodes_per_s": ratio(tallies["exact.nodes"], exact_ms / 1000.0),
            "analysis.token_report_ms": ms.get("analysis.token_report", 0.0),
            "analysis.token_report_calls": calls["analysis.token_report"],
            "analysis.checks_ms": sum(ms.get(f"analysis.{c}", 0.0) for c in CHECKS),
            "analysis.token_profile_ms": ms.get("analysis.token_profile", 0.0),
            "instances.checklist_ms": ms.get("instances.swap_resistance_checklist", 0.0),
            "instances.checklist_subsets": counts.get("instances.checklist_subsets", 0),
            "instances.gap_search_ms": ms.get("instances.search_gap_instance", 0.0),
            "instances.gap_verdict_calls": counts.get("instances.gap_verdict_calls", 0),
            "cli.self_ms": sum(v for k, v in ms.items() if k.startswith("cli.")),
        }
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

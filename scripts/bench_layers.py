#!/usr/bin/env python3
"""Per-layer wall times over a fixed scaling corpus, written to JSON.

Each row times one layer on one seeded input over five runs, records the
least (``best_s``) and the median (``median_s``) wall time, and records
the work it did: the graph size |E|, the size |M| of the result
and, for the exact solver, the branch-and-bound nodes.  Rows:

* ``from_strings`` and ``local_search`` at rho 1 on balanced pairs
  (700, 70), (2000, 100) and (4000, 60), seed 2017;
* ``local_search`` at rho 5 on the balanced pair (300, 10), seed 2017;
* ``exact`` on dense alphabet-4 balanced pairs, n=40 (seed 7) and n=48
  (seed 9);
* the identity pair n=2000 through the ``solve`` and ``exact`` commands;
* the exhaustive gap searches with anchors (2, 8) and (3, 9) at m=18
  with 8 matching edges and at m=20 with 9, whose room of 7 edges no
  two-edge runs fill, and the m=26 search that ``make_fixtures.py`` runs.

A balanced pair (n, a, seed) is ``s = [f"s{i % a}" for i in range(n)]``
shuffled by ``random.Random(seed)``, then a copy of it shuffled again by the
same generator.  Graphs are built afresh, untimed, before every timed
``local_search`` and ``exact`` run, so those times include building the
conflict index.  Comparing a change against its parent on one machine is

    python3 scripts/bench_layers.py --label new
    python3 scripts/bench_layers.py --src ../parent/src --label old

which writes ``BENCH_new.json`` and ``BENCH_old.json`` in the current
directory.  The median is the figure to compare: on a shared machine the
best of a few runs still moved by 40% between back-to-back runs of
unchanged code.  Stdlib only; about two minutes on a 2-core x86-64 VM.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
REPEATS = 5


def balanced_pair(n: int, alphabet: int, seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    rng = random.Random(seed)
    a = [f"s{t % alphabet}" for t in range(n)]
    rng.shuffle(a)
    b = a.copy()
    rng.shuffle(b)
    return tuple(a), tuple(b)


def timed(run) -> tuple[dict[str, float], object]:
    """Least and median wall time of ``REPEATS`` calls of ``run(start)``,
    where ``run`` does its untimed set-up, calls ``start()`` and returns its
    result."""
    times, result = [], None
    for _ in range(REPEATS):
        began = []
        result = run(lambda: began.append(time.perf_counter()))
        times.append(time.perf_counter() - began[0])
    return {"best_s": min(times), "median_s": statistics.median(times)}, result


def rows(work: str):
    from duomatch import DuoGraph, StringInstance, cli, instances, localsearch
    from duomatch.core import Edge
    from duomatch.exact import exact_max_matching

    def graph_of(pair):
        return DuoGraph.from_strings(StringInstance(*pair))

    for n, alphabet in ((700, 70), (2000, 100), (4000, 60)):
        pair = balanced_pair(n, alphabet, 2017)

        def build(start, pair=pair):
            inst = StringInstance(*pair)
            start()
            return DuoGraph.from_strings(inst)

        t, g = timed(build)
        yield {"name": f"from_strings balanced({n},{alphabet})", **t, "E": len(g.edges)}

    for n, alphabet, rho in ((700, 70, 1), (2000, 100, 1), (4000, 60, 1), (300, 10, 5)):
        pair = balanced_pair(n, alphabet, 2017)
        config = localsearch.SolverConfig(rho=rho)

        def search(start, pair=pair, config=config):
            g = graph_of(pair)
            start()
            return g, localsearch.local_search(g, config)[0]

        t, (g, m) = timed(search)
        yield {"name": f"local_search rho={rho} balanced({n},{alphabet})", **t,
               "E": len(g.edges), "M": len(m)}

    for n, seed in ((40, 7), (48, 9)):
        pair = balanced_pair(n, 4, seed)

        def solve_exact(start, pair=pair):
            g = graph_of(pair)
            start()
            return g, exact_max_matching(g)

        t, (g, result) = timed(solve_exact)
        yield {"name": f"exact balanced({n},4) seed {seed}", **t, "E": len(g.edges),
               "M": result.value, "nodes": result.nodes_explored}

    ident = [f"x{t}" for t in range(2000)]
    path = os.path.join(work, "identity_n2000.duo")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(ident) + "\n" + " ".join(ident) + "\n")
    g = graph_of((tuple(ident), tuple(ident)))
    for command, key in (("solve", "preserved"), ("exact", "value")):
        def run_command(start, command=command):
            out = io.StringIO()
            start()
            with contextlib.redirect_stdout(out):
                code = cli.main([command, path])
            if code != cli.EXIT_OK:
                raise RuntimeError(f"{command} exited {code}")
            return out.getvalue()

        t, text = timed(run_command)
        size = next(int(ln.split()[1]) for ln in text.splitlines() if ln.startswith(key + " "))
        row = {"name": f"{command} identity(2000)", **t, "E": len(g.edges), "M": size}
        if command == "exact":
            row["nodes"] = exact_max_matching(g).nodes_explored
        yield row

    anchors = (Edge(2, 8), Edge(3, 9))
    for spec in (instances.GapSearchSpec(m=18, matching_size=8, anchors=anchors),
                 instances.GapSearchSpec(m=20, matching_size=9, anchors=anchors),
                 instances.GapSearchSpec(m=26)):
        def gap(start, spec=spec):
            start()
            return instances.search_gap_instance(spec)

        t, found = timed(gap)
        yield {"name": f"gap_search m={spec.m} size={spec.matching_size}", **t,
               "found": found is not None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source directory of the checkout to run (default: this one)")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    os.environ["DUO_THREADS"] = "1"
    out = []
    with tempfile.TemporaryDirectory() as work:
        for row in rows(work):
            for key in ("best_s", "median_s"):
                row[key] = round(row[key], 4)
            print(json.dumps(row), flush=True)
            out.append(row)
    report = {
        "label": args.label,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        "rows": out,
    }
    with open(f"BENCH_{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

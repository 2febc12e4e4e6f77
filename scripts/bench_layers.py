#!/usr/bin/env python3
"""Per-layer wall times over a fixed scaling corpus, written to JSON.

Each row times one layer on one seeded input over ten runs, records the
least (``best_s``), the median (``median_s``) and the quartiles (``q1_s``,
``q3_s``, from ``statistics.quantiles``) of the wall times, and records
the work it did: the graph size |E|, the size |M| of the result
and, for the exact solver, the branch-and-bound nodes.  Rows:

* ``from_strings`` and ``local_search`` at rho 1 on balanced pairs
  (700, 70), (2000, 100) and (4000, 60), seed 2017;
* ``index``, the conflict index (``DuoGraph.index``) of a graph just
  built by ``from_strings``, untimed, on the balanced pair (4000, 60),
  seed 2017, and the dense alphabet-4 balanced pair n=200, seed 7;
* ``local_search`` at rho 5 on the balanced pairs (300, 10) and
  (1000, 30), seed 2017, so that the width-5 core enumeration is timed at
  |E| 958 and 1106;
* ``exact`` (``exact_max_matching``, the optimum with its lex-least
  witness) on dense alphabet-4 balanced pairs, n=40 (seed 7), n=48
  (seed 9), n=52 and n=60 (seed 7), each under a budget of 200,000 nodes;
  a search that runs out is recorded as ``exhausted`` with its lower bound
  as |M| (the include-first search of earlier checkouts needed 539k and
  over 2M nodes at n=52 and n=60);
* ``exact_max_value`` (the value-only search ``bench --with-exact`` runs),
  seeded with the rho-1 local search's matching as ``bench --rho 1`` seeds
  it, on the same four pairs;
* the identity pair n=2000 through the ``solve`` and ``exact`` commands;
* ``solve --rho 1`` run 100 times through ``cli.main``, standard output
  captured, on the balanced pair (500, 50), seed 2017: one op of the
  perfbench ``solve-large`` workload, from file to printed partition;
* ``tokens`` run 200 times through ``cli.main``, standard output captured,
  on the dense alphabet-4 balanced pair n=20, seed 7: its rho-1, reduce-off
  matching against its exact witness, the shape of a perfbench ``certify``
  op, from three files to the printed JSON report;
* ``bench --rho 1 --with-exact --csv`` run 50 times on one dense n=24
  alphabet-4 pair, rewriting the same CSV file each time;
* the exhaustive gap searches with anchors (2, 8) and (3, 9) at m=18
  with 8 matching edges and at m=20 with 9, whose room of 7 edges no
  two-edge runs fill, the exhaustive unanchored search at m=17 with 8
  edges, as in ROADMAP item 5(b)'s table, and the m=26 search that
  ``make_fixtures.py`` runs;
* the unanchored gap search at m=22 with 10 edges under a budget of
  1,000,000 nodes, recorded as ``certified``, ``exhausted`` or ``budget``,
  which gives item 5(b)'s table a nodes-per-second yardstick;
* the unanchored gap search at m=31 with 12 edges under a budget of 0
  nodes, recorded as ``budget``: it times the set-up alone (the run
  table, coverage and spreads) that the search pays before its first node
  at every size of item 5(b)'s table;
* every gap row also records the nodes it visited and the complete leaves
  it cap-tested (``nodes`` and ``verdicts``, from ``stats``);
* ``swap_resistance_checklist`` with ``GRAPH_GAP_CAPS`` on the
  ``graph_gap_26`` fixture against its diagonal optimum, and on the rho-5
  local search's matching of the balanced pair (100, 5), seed 7 (|M| 57),
  against the rho-1 one, each recorded as ``passed`` or ``failed`` (its
  swap items; the rho-5 matching has singletons) or ``budget`` (a checkout
  whose checklist walks every subset of up to 5 edges raises
  ``SubsetBudgetError`` on the second);
* the token accounting (``token_report``, the four checks given that
  report, and ``token_profile``) of the rho-1, reduce-off matching of the
  dense alphabet-4 balanced pair n=20, seed 7 (|M| 6), against its exact
  witness (|M*| 9), looped 200 times, and of the rho-1 matching of the
  balanced pair (4000, 60), seed 2017 (|M| 1281), against the rho-1
  matching in reverse-lex scan order, once; each records whether every
  check passed and the largest token total.

A balanced pair (n, a, seed) is ``s = [f"s{i % a}" for i in range(n)]``
shuffled by ``random.Random(seed)``, then a copy of it shuffled again by the
same generator.  Graphs are built afresh, untimed, before every timed
``local_search`` and ``exact`` run, so those times include building the
conflict index.

Each repeat runs every row once in a child process per checkout.  Comparing
a change against its parent on one machine is

    python3 scripts/bench_layers.py --src ../parent/src --label old \
        --src src --label new

which alternates the two checkouts, flipping which goes first on each
repeat, and writes ``BENCH_old.json`` and ``BENCH_new.json`` in the current
directory.  The median over the alternated repeats is the figure to
compare: on a shared machine the best of a few runs still moved by 40%
between back-to-back runs of unchanged code, and runs of one checkout after
the other saw different host load.  The quartiles show how far a row moves
between repeats, so the rows a change does not touch give the spread to
read its other rows against.  With one ``--src`` (by default this
checkout) the script writes the one file, ``BENCH_local.json`` unless a
``--label`` names it.  Stdlib only; about a minute
and a half per checkout on a 2-core x86-64 VM.
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
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
REPEATS = 10
#: The label of a single checkout's run when no --label names it.
DEFAULT_LABEL = "local"
WITNESS_BUDGET = 200_000
GAP_BUDGET = 1_000_000


def balanced_pair(n: int, alphabet: int, seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    rng = random.Random(seed)
    a = [f"s{t % alphabet}" for t in range(n)]
    rng.shuffle(a)
    b = a.copy()
    rng.shuffle(b)
    return tuple(a), tuple(b)


def timed(run) -> tuple[float, object]:
    """Wall time of one call of ``run(start)``, where ``run`` does its
    untimed set-up, calls ``start()`` and returns its result."""
    began = []
    result = run(lambda: began.append(time.perf_counter()))
    return time.perf_counter() - began[0], result


def rows(work: str):
    from duomatch import (DuoGraph, StringInstance, analysis, cli, exact, fileio, instances,
                          localsearch)
    from duomatch.core import Edge, Matching
    from duomatch.exact import BudgetExceededError, exact_max_matching

    def graph_of(pair):
        return DuoGraph.from_strings(StringInstance(*pair))

    for n, alphabet in ((700, 70), (2000, 100), (4000, 60)):
        pair = balanced_pair(n, alphabet, 2017)

        def build(start, pair=pair):
            inst = StringInstance(*pair)
            start()
            return DuoGraph.from_strings(inst)

        t, g = timed(build)
        yield {"name": f"from_strings balanced({n},{alphabet})", "s": t, "E": len(g.edges)}

    for label, pair in (("balanced(4000,60)", balanced_pair(4000, 60, 2017)),
                        ("dense(200,4) seed 7", balanced_pair(200, 4, 7))):
        def index(start, pair=pair):
            g = graph_of(pair)
            start()
            return g, g.index

        t, (g, _) = timed(index)
        yield {"name": f"index {label}", "s": t, "E": len(g.edges)}

    for n, alphabet, rho in ((700, 70, 1), (2000, 100, 1), (4000, 60, 1), (300, 10, 5),
                             (1000, 30, 5)):
        pair = balanced_pair(n, alphabet, 2017)
        config = localsearch.SolverConfig(rho=rho)

        def search(start, pair=pair, config=config):
            g = graph_of(pair)
            start()
            return g, localsearch.local_search(g, config)[0]

        t, (g, m) = timed(search)
        yield {"name": f"local_search rho={rho} balanced({n},{alphabet})", "s": t,
               "E": len(g.edges), "M": len(m)}

    dense_pairs = ((40, 7), (48, 9), (52, 7), (60, 7))
    for n, seed in dense_pairs:
        pair = balanced_pair(n, 4, seed)

        def solve_exact(start, pair=pair):
            g = graph_of(pair)
            start()
            try:
                return g, exact_max_matching(g, budget=WITNESS_BUDGET), False
            except BudgetExceededError as exc:
                return g, exc.best, True

        t, (g, result, exhausted) = timed(solve_exact)
        yield {"name": f"exact balanced({n},4) seed {seed}", "s": t, "E": len(g.edges),
               "M": result.value, "nodes": result.nodes_explored, "exhausted": exhausted}

    for n, seed in dense_pairs:
        pair = balanced_pair(n, 4, seed)

        def solve_value(start, pair=pair):
            g = graph_of(pair)
            incumbent = localsearch.local_search(g, localsearch.SolverConfig(rho=1))[0]
            start()
            return g, exact.exact_max_value(g, incumbent)

        t, (g, (value, nodes)) = timed(solve_value)
        yield {"name": f"exact_max_value balanced({n},4) seed {seed}", "s": t,
               "E": len(g.edges), "M": value, "nodes": nodes}

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
        row = {"name": f"{command} identity(2000)", "s": t, "E": len(g.edges), "M": size}
        if command == "exact":
            row["nodes"] = exact_max_matching(g).nodes_explored
        yield row

    pair = balanced_pair(500, 50, 2017)
    path = os.path.join(work, "balanced_n500.duo")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(pair[0]) + "\n" + " ".join(pair[1]) + "\n")

    def solve_sparse(start):
        out = io.StringIO()
        start()
        with contextlib.redirect_stdout(out):
            for _ in range(100):
                if cli.main(["solve", path, "--rho", "1"]) != cli.EXIT_OK:
                    raise RuntimeError("solve failed")
        return out.getvalue()

    t, text = timed(solve_sparse)
    size = next(int(ln.split()[1]) for ln in text.splitlines() if ln.startswith("preserved "))
    yield {"name": "solve --rho 1 balanced(500,50) x100", "s": t,
           "E": len(graph_of(pair).edges), "M": size}

    pair = balanced_pair(20, 4, 7)
    g = graph_of(pair)
    matching = localsearch.local_search(g, localsearch.SolverConfig(rho=1, use_reduce=False))[0]
    optimum = exact_max_matching(g).witness
    paths = [os.path.join(work, name) for name in ("dense_n20.duo", "dense_n20.matching",
                                                    "dense_n20.optimum")]
    for path, text in zip(paths, (" ".join(pair[0]) + "\n" + " ".join(pair[1]) + "\n",
                                  fileio.format_matching(matching),
                                  fileio.format_matching(optimum))):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def tokens_command(start):
        out = io.StringIO()
        start()
        with contextlib.redirect_stdout(out):
            for _ in range(200):
                if cli.main(["tokens", *paths]) != cli.EXIT_OK:
                    raise RuntimeError("tokens failed")
        return out.getvalue()

    t, text = timed(tokens_command)
    report = json.JSONDecoder().raw_decode(text)[0]  # the first of 200 equal reports
    yield {"name": "tokens command dense(20,4) x200", "s": t, "E": len(g.edges),
           "M": report["matching_size"], "M*": report["optimum_size"]}

    pair = balanced_pair(24, 4, 2017)
    path = os.path.join(work, "balanced_n24.duo")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(pair[0]) + "\n" + " ".join(pair[1]) + "\n")
    out = os.path.join(work, "balanced_n24.csv")

    def rewrite_csv(start):
        start()
        for _ in range(50):
            if cli.main(["bench", path, "--rho", "1", "--with-exact", "--csv", out]) != 0:
                raise RuntimeError("bench failed")
        with open(out, encoding="utf-8") as fh:
            return fh.read().splitlines()[1].split(",")

    t, row = timed(rewrite_csv)
    yield {"name": "bench --with-exact --csv balanced(24,4) x50", "s": t, "E": int(row[3]),
           "M": int(row[6])}

    anchors = (Edge(2, 8), Edge(3, 9))
    for spec in (instances.GapSearchSpec(m=18, matching_size=8, anchors=anchors),
                 instances.GapSearchSpec(m=20, matching_size=9, anchors=anchors),
                 instances.GapSearchSpec(m=17, matching_size=8, anchors=()),
                 instances.GapSearchSpec(m=26)):
        stats: dict = {}

        def gap(start, spec=spec, stats=stats):
            start()
            return instances.search_gap_instance(spec, stats)

        t, found = timed(gap)
        anchored = "" if spec.anchors else " unanchored"
        yield {"name": f"gap_search m={spec.m} size={spec.matching_size}{anchored}", "s": t,
               "found": found is not None, **stats}

    for label, spec in (
            ("", instances.GapSearchSpec(m=22, matching_size=10, anchors=(),
                                         max_nodes=GAP_BUDGET)),
            ("set-up ", instances.GapSearchSpec(m=31, anchors=(), max_nodes=0))):
        stats: dict = {}

        def budgeted_gap(start, spec=spec, stats=stats):
            start()
            try:
                found = instances.search_gap_instance(spec, stats)
            except instances.SearchBudgetError:
                return "budget"
            return "exhausted" if found is None else "certified"

        t, outcome = timed(budgeted_gap)
        yield {"name": f"gap_search {label}m={spec.m} size={spec.matching_size} unanchored "
                       f"max_nodes={spec.max_nodes}", "s": t, "outcome": outcome, **stats}

    fixture = os.path.join(ROOT, "fixtures", "graph_gap_26")
    with open(fixture + ".mcbm", encoding="utf-8") as fh:
        g = fileio.parse_graph(fh.read())
    with open(fixture + ".matching", encoding="utf-8") as fh:
        matching = Matching(fileio.parse_matching_edges(fh.read()))
    cases = [("graph_gap_26", g, matching, Matching(Edge(p, p) for p in range(1, g.m + 1)))]
    g = graph_of(balanced_pair(100, 5, 7))
    cases.append(("rho-5 balanced(100,5,7) vs rho-1", g,
                  localsearch.local_search(g, localsearch.SolverConfig(rho=5))[0],
                  localsearch.local_search(g, localsearch.SolverConfig(rho=1))[0]))
    for label, g, matching, optimum in cases:
        def check(start, g=g, matching=matching, optimum=optimum):
            start()
            try:
                report = instances.swap_resistance_checklist(g, matching, optimum,
                                                             instances.GRAPH_GAP_CAPS)
            except instances.SubsetBudgetError:
                return "budget"
            swaps = [it.passed for it in report.items if it.name.startswith("swap-")]
            return "passed" if all(swaps) else "failed"

        t, outcome = timed(check)
        yield {"name": f"checklist {label}", "s": t, "E": len(g.edges), "M": len(matching),
               "outcome": outcome}

    checks = (analysis.check_full_token_uniqueness, analysis.check_parallel_pair_conflict_gap,
              analysis.check_parallel_token_bound,
              analysis.check_heavy_singleton_parallel_support)
    g = graph_of(balanced_pair(20, 4, 7))
    cases = [("dense(20,4) x200", g,
              localsearch.local_search(g, localsearch.SolverConfig(rho=1, use_reduce=False))[0],
              exact_max_matching(g).witness, 200)]
    g = graph_of(balanced_pair(4000, 60, 2017))
    cases.append(("rho-1 balanced(4000,60) vs reverse-lex", g,
                  localsearch.local_search(g, localsearch.SolverConfig(rho=1))[0],
                  localsearch.local_search(g, localsearch.SolverConfig(
                      rho=1, scan_order=localsearch.SCAN_REVERSE_LEX))[0], 1))
    for label, g, matching, optimum, loops in cases:
        def account(start, g=g, matching=matching, optimum=optimum, loops=loops):
            start()
            for _ in range(loops):
                report = analysis.token_report(g, matching, optimum)
                passed = [check(g, matching, optimum, report=report) for check in checks]
                profile = analysis.token_profile(report)
            return all(passed), analysis.format_rational(profile.max_total)

        t, (passed, max_total) = timed(account)
        yield {"name": f"tokens {label}", "s": t, "E": len(g.edges), "M": len(matching),
               "M*": len(optimum), "max_total": max_total, "passed": passed}


def child(src: str) -> None:
    """Run every row once on the checkout at ``src``; one JSON line each."""
    sys.path.insert(0, os.path.abspath(src))
    with tempfile.TemporaryDirectory() as work:
        for row in rows(work):
            print(json.dumps(row), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append",
                        help="source directory of a checkout to run, once or twice "
                             "(default: this one)")
    parser.add_argument("--label", action="append", default=[],
                        help="names the output BENCH_<label>.json, one per --src "
                             f"(default with one --src: {DEFAULT_LABEL})")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    srcs = args.src or [os.path.join(ROOT, "src")]
    if args.child:
        child(srcs[0])
        return 0
    if len(srcs) == 1 and not args.label:
        args.label = [DEFAULT_LABEL]
    if len(srcs) != len(args.label) or len(srcs) > 2:
        parser.error("give one --label per --src, and at most two of each")
    times: list[dict[str, list[float]]] = [{} for _ in srcs]
    fields: list[dict[str, dict]] = [{} for _ in srcs]
    for repeat in range(REPEATS):
        order = range(len(srcs)) if repeat % 2 == 0 else reversed(range(len(srcs)))
        for at in order:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", "--src", srcs[at]],
                stdout=subprocess.PIPE, text=True, check=True)
            for line in done.stdout.splitlines():
                row = json.loads(line)
                times[at].setdefault(row["name"], []).append(row.pop("s"))
                fields[at].setdefault(row["name"], row)
            print(f"repeat {repeat + 1}/{REPEATS}: {args.label[at]} done",
                  file=sys.stderr, flush=True)
    for at, label in enumerate(args.label):
        out = []
        for name, row in fields[at].items():
            ts = times[at][name]
            q1, _, q3 = statistics.quantiles(ts, n=4)
            out.append({"name": name, "best_s": round(min(ts), 4),
                        "median_s": round(statistics.median(ts), 4),
                        "q1_s": round(q1, 4), "q3_s": round(q3, 4),
                        **{k: v for k, v in row.items() if k != "name"}})
            print(json.dumps({"label": label, **out[-1]}), flush=True)
        report = {
            "label": label,
            "repeats": REPEATS,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
            "rows": out,
        }
        if len(srcs) == 2:
            report["alternated_with"] = args.label[1 - at]
        with open(f"BENCH_{label}.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

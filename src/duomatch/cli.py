"""Command line front end.

Subcommands: solve, exact, verify, tokens, gen, bench.  Exit codes: 0 on
success, 1 when a requested check fails, 2 on usage or parse errors, 3 when
a search budget runs out.  All output is deterministic for fixed inputs and
flags; the only nondeterministic column is bench's wall-clock ms.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import analysis, fileio, instances, localsearch
from .core import (
    DuoError,
    Edge,
    Matching,
    ParseError,
    compatible,
    is_compatible_matching,
    partition_from_matching,
)
from .exact import BudgetExceededError, exact_max_matching

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _config_from(args) -> localsearch.SolverConfig:
    return localsearch.SolverConfig(
        rho=args.rho,
        use_reduce=not args.no_reduce,
        scan_order=args.scan_order,
        max_iterations=args.max_iterations,
        seed=args.seed,
    )


def cmd_solve(args) -> int:
    g, inst = fileio.load_problem(args.input, args.format)
    matching, trace = localsearch.local_search(g, _config_from(args))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_json_lines())
    for e in matching:
        print(e)
    print(f"preserved {len(matching)}")
    if inst is not None:
        blocks = partition_from_matching(inst, matching)
        print("partition: " + " | ".join(" ".join(b) for b in blocks))
    return EXIT_OK


def cmd_exact(args) -> int:
    g, _ = fileio.load_problem(args.input, args.format)
    try:
        result = exact_max_matching(g, budget=args.budget)
    except BudgetExceededError as exc:
        print(f"budget-exceeded lower-bound {exc.best.value}")
        for e in exc.best.witness:
            print(e)
        return EXIT_BUDGET
    print(f"value {result.value}")
    for e in result.witness:
        print(e)
    return EXIT_OK


def cmd_verify(args) -> int:
    g, _ = fileio.load_problem(args.input, args.format)
    edges = fileio.load_matching_edges(args.matching)
    violations: list[dict] = []

    missing = sorted(e for e in edges if e not in g.edge_set)
    for e in missing:
        violations.append({"kind": "missing-edge", "edge": [e.i, e.j]})
    conflicts = [
        (a, b)
        for idx, a in enumerate(edges)
        for b in edges[idx + 1:]
        if not compatible(a, b)
    ]
    for a, b in conflicts:
        violations.append({"kind": "conflict", "edges": [[a.i, a.j], [b.i, b.j]]})

    verdict = {
        "input": args.input,
        "matching": args.matching,
        "size": len(set(edges)),
        "in_graph": not missing,
        "compatible": not conflicts,
    }
    if args.local_opt:
        verdict["rho"] = args.rho
        local_opt = False
        if not missing and not conflicts:
            matching = Matching(edges)
            config = localsearch.SolverConfig(
                rho=args.rho, use_reduce=not args.no_reduce
            )
            try:
                local_opt, cert = localsearch.is_local_optimum(g, matching, config)
                verdict["maximal"] = True
                if not local_opt:
                    violations.append({"kind": "improvable"})
            except localsearch.NotMaximalError as exc:
                verdict["maximal"] = False
                violations.append({"kind": "not-maximal", "detail": str(exc)})
        else:
            verdict["maximal"] = False
        verdict["local_optimum"] = local_opt
    verdict["violations"] = violations
    passed = verdict["in_graph"] and verdict["compatible"] and (
        not args.local_opt or verdict["local_optimum"]
    )
    verdict["passed"] = passed
    print(json.dumps(verdict, indent=2))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _edge_key(e: Edge) -> str:
    return f"{e.i} {e.j}"


def cmd_tokens(args) -> int:
    g, _ = fileio.load_problem(args.input, args.format)
    m_edges = fileio.load_matching_edges(args.matching)
    opt_edges = fileio.load_matching_edges(args.optimum)
    for name, es in (("matching", m_edges), ("optimum", opt_edges)):
        if not is_compatible_matching(g, es):
            print(
                json.dumps({"error": f"{name} is not a compatible matching of the graph"}),
                file=sys.stderr,
            )
            return EXIT_CHECK_FAILED
    matching, optimum = Matching(m_edges), Matching(opt_edges)
    try:
        report = analysis.token_report(g, matching, optimum)
    except localsearch.NotMaximalError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_CHECK_FAILED
    profile = analysis.token_profile(report)
    checks = {}
    for fn in (
        analysis.check_full_token_uniqueness,
        analysis.check_parallel_pair_conflict_gap,
        analysis.check_parallel_token_bound,
        analysis.check_heavy_singleton_parallel_support,
    ):
        result = fn(g, matching, optimum, report=report)
        checks[result.name] = result.passed
    checks["max_total_bound"] = profile.max_ok
    checks["heavy_combination_profile"] = profile.combos_ok
    passed = all(checks.values())
    out = {
        "matching_size": len(matching),
        "optimum_size": len(optimum),
        "total": analysis.format_rational(report.total),
        "conservation": report.total == len(optimum),
        "max_total": analysis.format_rational(profile.max_total),
        "per_opt_edge": {_edge_key(e): report.per_opt_edge[e] for e in optimum},
        "per_sol_edge": {
            _edge_key(e): analysis.format_rational(report.per_sol_edge[e])
            for e in matching
        },
        "checks": checks,
        "passed": passed,
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_gen(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for offset in range(args.count):
        spec = instances.GeneratorSpec(
            n=args.n, k=args.k, alphabet_size=args.alphabet, seed=args.seed + offset
        )
        inst = instances.gen_random_kduo(spec)
        fname = spec.instance_id + ".duo"
        with open(os.path.join(args.out, fname), "w", encoding="utf-8") as fh:
            fh.write(fileio.format_instance(inst))
        entries.append(
            {
                "id": spec.instance_id,
                "file": fname,
                "n": spec.n,
                "k": spec.k,
                "alphabet_size": spec.alphabet_size,
                "seed": spec.seed,
            }
        )
    manifest = os.path.join(args.out, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"instances": entries}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(entries)} instances to {args.out}")
    return EXIT_OK


def _parse_rhos(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def _bench_task(task: tuple[str, str | None, int, bool]) -> dict:
    path, fmt, rho, with_exact = task
    g, inst = fileio.load_problem(path, fmt)
    config = localsearch.SolverConfig(rho=rho)
    t0 = time.perf_counter()
    matching, trace = localsearch.local_search(g, config)
    ms = (time.perf_counter() - t0) * 1000.0
    ls_value = len(matching)
    row = {
        "id": os.path.splitext(os.path.basename(path))[0],
        "n": inst.n if inst is not None else g.m,
        "k": inst.occurrence_cap() if inst is not None else "",
        "E": len(g.edges),
        "rho": rho,
        "ls": ls_value,
        "exact": "",
        "ratio": "",
        "iters": trace.iterations,
        "ms": f"{ms:.3f}",
    }
    if with_exact:
        opt = exact_max_matching(g).value
        row["exact"] = opt
        if opt == 0:
            row["ratio"] = "1/1"
        elif ls_value == 0:
            row["ratio"] = "inf"
        else:
            row["ratio"] = analysis.format_rational(Fraction(opt, ls_value))
    return row


def _bench_inputs(paths: list[str]) -> list[str]:
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for name in sorted(os.listdir(p)):
                if name.endswith((".duo", ".mcbm")):
                    files.append(os.path.join(p, name))
        else:
            files.append(p)
    return files


def cmd_bench(args) -> int:
    files = _bench_inputs(args.inputs)
    if not files:
        print("no input instances found", file=sys.stderr)
        return EXIT_USAGE
    rhos = _parse_rhos(args.rho)
    for rho in rhos:
        if not 1 <= rho <= localsearch.MAX_RHO:
            print(f"rho {rho} out of range", file=sys.stderr)
            return EXIT_USAGE
    cpus = os.cpu_count() or 1
    threads = os.environ.get("DUO_THREADS", str(cpus))
    try:
        workers = int(threads)
    except ValueError:
        workers = 0
    if workers < 1:
        print(f"DUO_THREADS must be a positive integer, got {threads!r}", file=sys.stderr)
        return EXIT_USAGE
    tasks = [(path, args.format, rho, args.with_exact) for path in files for rho in rhos]
    # the pool forks all its workers at once, so never ask for more than
    # there are tasks or cores
    workers = min(workers, len(tasks), cpus)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_task, tasks))
    else:
        rows = [_bench_task(t) for t in tasks]
    rows.sort(key=lambda r: (r["id"], r["rho"]))
    out = open(args.csv, "w", encoding="utf-8", newline="") if args.csv else sys.stdout
    try:
        writer = csv.DictWriter(
            out,
            fieldnames=["id", "n", "k", "E", "rho", "ls", "exact", "ratio", "iters", "ms"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.csv:
            out.close()
    return EXIT_OK


def _add_common_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=int, default=5, help="swap width, 1..5")
    p.add_argument("--no-reduce", action="store_true",
                   help="disable the singleton-lowering move")
    p.add_argument("--scan-order", choices=[localsearch.SCAN_LEX, localsearch.SCAN_REVERSE_LEX],
                   default=localsearch.SCAN_LEX)
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="randomize the greedy extension order")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and then reused: it
    costs more than a small ``solve``, and parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="duomatch",
        description="Heuristic and exact solvers for duo-preservation string mapping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the local search on one instance")
    p.add_argument("input")
    p.add_argument("--format", choices=["duo", "mcbm"], default=None)
    p.add_argument("--trace", default=None, help="write the step trace as JSON lines")
    _add_common_solver_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="branch-and-bound optimum")
    p.add_argument("input")
    p.add_argument("--format", choices=["duo", "mcbm"], default=None)
    p.add_argument("--budget", type=int, default=None, help="node budget")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="check a matching file against a graph")
    p.add_argument("input")
    p.add_argument("matching")
    p.add_argument("--format", choices=["duo", "mcbm"], default=None)
    p.add_argument("--local-opt", action="store_true",
                   help="also require maximality and local optimality")
    p.add_argument("--rho", type=int, default=5)
    p.add_argument("--no-reduce", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tokens", help="token accounting of a matching against an optimum")
    p.add_argument("input")
    p.add_argument("matching")
    p.add_argument("optimum")
    p.add_argument("--format", choices=["duo", "mcbm"], default=None)
    p.set_defaults(func=cmd_tokens)

    p = sub.add_parser("gen", help="write seeded random instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="solve a batch and emit a CSV summary")
    p.add_argument("inputs", nargs="+", help="instance files or directories")
    p.add_argument("--format", choices=["duo", "mcbm"], default=None)
    p.add_argument("--rho", default="5", help="single width, list, or range like 1..5")
    p.add_argument("--with-exact", action="store_true")
    p.add_argument("--csv", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except instances.SearchBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DuoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands: solve, exact, verify, tokens, gen, bench.  Exit codes: 0 on
success, 1 when a requested check fails, 2 on usage or parse errors, 3 when
a search budget or memory runs out, 130 on interrupt.  All output is
deterministic for fixed inputs and flags, bar bench's wall-clock ms.

The indented JSON of ``verify``, ``tokens`` and the ``gen`` manifest is
written by one writer, :func:`_json_text`, which gives the text of
``json.dumps(obj, indent=2)`` with strings escaped in C.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from dataclasses import asdict, replace

from . import analysis, fileio, instances, localsearch
from .core import (
    DuoError,
    ParseError,
    _conflicting_pairs,
    _matching_on,
)
from .exact import BudgetExceededError, exact_max_matching, exact_max_value

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_escape = json.encoder.encode_basestring_ascii


def _json_value(obj, newline: str) -> str:
    """The JSON text of ``obj`` whose lines after the first start with
    ``newline``; see :func:`_json_text`."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # the escaper raises TypeError on a key that is not a str
        items = [f"{_escape(k)}: {_json_value(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [_json_value(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"{type(obj).__name__} is not written as JSON")


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` for dicts with str keys, lists,
    str, int, bool and None, any other type raising TypeError.

    ``json`` runs indented output through its pure-Python encoder; this
    writer escapes strings with the C escaper ``json.dumps`` uses and does
    the rest with a few string joins, in about half the time for the reports
    written here.
    """
    return _json_value(obj, "\n") + "\n"


def _solver_config(**flags) -> localsearch.SolverConfig:
    """The solver configuration the flags ask for; ParseError when they are
    out of range."""
    try:
        return localsearch.SolverConfig(**flags)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def cmd_solve(args) -> int:
    g, inst = fileio.load_problem(args.input)
    config = _solver_config(rho=args.rho, use_reduce=not args.no_reduce,
                            scan_order=args.scan_order, max_iterations=args.max_iterations,
                            seed=args.seed)
    matching, trace = localsearch.local_search(g, config)
    if args.trace:
        fileio.write_text(args.trace, trace.to_json_lines())
    lines = [f"{e}\n" for e in matching]
    lines.append(f"preserved {len(matching)}\n")
    if inst is not None:
        # A's symbols with one separator per duo: a space inside a block,
        # " | " at each cut, the blocks of partition_from_matching
        line = [" | "] * (2 * inst.n - 1)
        line[::2] = inst.a
        for e in matching:
            line[2 * e.i - 1] = " "
        lines.append("partition: " + "".join(line) + "\n")
    sys.stdout.write("".join(lines))
    return EXIT_OK


def cmd_exact(args) -> int:
    if args.budget is not None and args.budget < 0:
        raise ParseError(f"--budget must be >= 0, got {args.budget}")
    g, _ = fileio.load_problem(args.input)
    try:
        result = exact_max_matching(g, budget=args.budget)
    except BudgetExceededError as exc:
        best = exc.best.witness
        print(f"budget-exceeded lower-bound {len(best)}")
        for e in best:
            print(e)
        return EXIT_BUDGET
    print(f"value {result.value}")
    for e in result.witness:
        print(e)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _solver_config(rho=args.rho, use_reduce=not args.no_reduce)
    g, _ = fileio.load_problem(args.input)
    edges = fileio.load_matching_edges(args.matching)
    violations: list[dict] = []

    missing = sorted(e for e in edges if e not in g)
    for e in missing:
        violations.append({"kind": "missing-edge", "edge": [e.i, e.j]})
    conflicts = list(_conflicting_pairs(edges))
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
            try:
                local_opt = localsearch.is_local_optimum(g, _matching_on(g, edges), config)
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
    sys.stdout.write(_json_text(verdict))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_tokens(args) -> int:
    g, _ = fileio.load_problem(args.input)
    m_edges = fileio.load_matching_edges(args.matching)
    opt_edges = fileio.load_matching_edges(args.optimum)
    # built on the graph once, so the report and the checks read the masks back
    matching, optimum = _matching_on(g, m_edges), _matching_on(g, opt_edges)
    for name, built in (("matching", matching), ("optimum", optimum)):
        if built is None:
            print(
                json.dumps({"error": f"{name} is not a compatible matching of the graph"}),
                file=sys.stderr,
            )
            return EXIT_CHECK_FAILED
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
        "per_opt_edge": {str(e): report.per_opt_edge[e] for e in optimum},
        "per_sol_edge": {
            str(e): analysis.format_rational(report.per_sol_edge[e])
            for e in matching
        },
        "checks": checks,
        "passed": passed,
    }
    sys.stdout.write(_json_text(out))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_gen(args) -> int:
    try:
        first = instances.GeneratorSpec(
            n=args.n, k=args.k, alphabet_size=args.alphabet, seed=args.seed
        )
    except instances.InfeasibleSpecError as exc:
        raise ParseError(str(exc)) from None
    if args.count < 0:
        raise ParseError(f"--count must be >= 0, got {args.count}")
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for offset in range(args.count):
        spec = replace(first, seed=args.seed + offset)
        inst = instances.gen_random_kduo(spec)
        fname = spec.instance_id + ".duo"
        fileio.write_text(os.path.join(args.out, fname), fileio.format_instance(inst))
        entries.append({"id": spec.instance_id, "file": fname, **asdict(spec)})
    fileio.write_text(os.path.join(args.out, "manifest.json"),
                      _json_text({"instances": entries}))
    print(f"wrote {len(entries)} instances to {args.out}")
    return EXIT_OK


def _parse_rhos(text: str) -> list[int]:
    """The widths ``--rho`` names; ParseError naming the first width in
    order outside 1..MAX_RHO.  A range is checked before it is listed, so
    the check stops within MAX_RHO + 1 widths however wide the range."""
    lo, dots, hi = text.partition("..")
    try:
        rhos = range(int(lo), int(hi) + 1) if dots else [int(p) for p in text.split(",")]
    except ValueError:
        rhos = []
    if not rhos:  # also an empty range such as 5..1
        raise ParseError(f"--rho takes a width, list or range like 1..5, not {text!r}")
    for rho in rhos:
        if not 1 <= rho <= localsearch.MAX_RHO:
            raise ParseError(f"rho {rho} out of range")
    return list(rhos)


#: The columns of the bench CSV, the order of every row ``_bench_task`` lists.
BENCH_FIELDS = ("id", "n", "k", "E", "rho", "ls", "exact", "ratio", "iters", "ms")


def _bench_task(task: tuple[str, tuple[int, ...], bool, int | None]) -> list[list]:
    """The bench rows of one input file, one per width in ``rhos``, each
    listing its values in the order of BENCH_FIELDS.  With ``with_exact``
    the exact value is found once, after every width has run, seeded with
    the largest local-search matching; when ``budget`` nodes do not settle
    it, ``exact`` reads ``>=`` the best value found and ``ratio`` stays
    empty."""
    path, rhos, with_exact, budget = task
    g, inst = fileio.load_problem(path)
    runs = []
    for rho in rhos:
        t0 = time.perf_counter()
        matching, trace = localsearch.local_search(g, localsearch.SolverConfig(rho=rho))
        ms = (time.perf_counter() - t0) * 1000.0
        runs.append((rho, matching, trace.iterations, f"{ms:.3f}"))
    exact, opt = "", None
    if with_exact:
        try:
            opt, _ = exact_max_value(g, max((run[1] for run in runs), key=len), budget)
            exact = opt
        except BudgetExceededError as exc:
            exact = f">={exc.best.value}"
    name = os.path.splitext(os.path.basename(path))[0]
    n, k = (inst.n, inst.occurrence_cap()) if inst is not None else (g.m, "")
    rows = []
    for rho, matching, iters, ms in runs:
        if opt is None:
            ratio = ""
        elif opt == 0:  # an edgeless graph, which ratio_report rejects
            ratio = "1/1"
        else:
            ratio = analysis.format_rational(analysis.ratio_report(len(matching), opt).ratio)
        rows.append([name, n, k, len(g.edges), rho, len(matching), exact, ratio, iters, ms])
    return rows


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
        raise ParseError("no input instances found")
    rhos = _parse_rhos(args.rho)
    if args.exact_budget is not None:
        if not args.with_exact:
            raise ParseError("--exact-budget needs --with-exact")
        if args.exact_budget < 0:
            raise ParseError(f"--exact-budget must be >= 0, got {args.exact_budget}")
    cpus = os.cpu_count() or 1
    threads = os.environ.get("DUO_THREADS", str(cpus))
    try:
        workers = int(threads)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParseError(f"DUO_THREADS must be a positive integer, got {threads!r}")
    if args.with_exact:
        # one task per file, so the exact search runs once for all widths
        tasks = [(path, tuple(rhos), True, args.exact_budget) for path in files]
    else:
        tasks = [(path, (rho,), False, None) for path in files for rho in rhos]
    # the pool forks all its workers at once, so never ask for more than
    # there are tasks or cores
    workers = min(workers, len(tasks), cpus)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for batch in pool.map(_bench_task, tasks) for row in batch]
    else:
        rows = [row for t in tasks for row in _bench_task(t)]
    rows.sort(key=lambda r: (r[0], r[4]))  # by id, then rho
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BENCH_FIELDS)
    writer.writerows(rows)
    if args.csv:
        fileio.write_text(args.csv, out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return EXIT_OK


def ProcessPoolExecutor(max_workers: int):
    """The process pool of ``bench``, imported on first use: multiprocessing
    adds about 2 MB to every process that loads it, and only a parallel
    ``bench`` needs it."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


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
    p.add_argument("--trace", default=None, help="write the step trace as JSON lines")
    _add_common_solver_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="branch-and-bound optimum")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget of the branch and bound, which starts from the rho-1 "
                        "local search's matching; when it runs out, print a lower bound and "
                        "the largest matching the search knows instead of the optimum")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="check a matching file against a graph")
    p.add_argument("input")
    p.add_argument("matching")
    p.add_argument("--local-opt", action="store_true",
                   help="also require maximality and local optimality")
    p.add_argument("--rho", type=int, default=5)
    p.add_argument("--no-reduce", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tokens", help="token accounting of a matching against an optimum")
    p.add_argument("input")
    p.add_argument("matching")
    p.add_argument("optimum")
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
    p.add_argument("--rho", default="5", help="single width, list, or range like 1..5")
    p.add_argument("--with-exact", action="store_true")
    p.add_argument("--exact-budget", type=int, default=None,
                   help="node budget of each input's exact search; a row it does not "
                        "settle reads exact >=L with no ratio")
    p.add_argument("--csv", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (instances.SearchBudgetError, localsearch.IterationCapError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except DuoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, what a shell reports for Ctrl-C


if __name__ == "__main__":
    sys.exit(main())

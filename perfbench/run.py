#!/usr/bin/env python3
"""Benchmark of duomatch: four seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 25 --trace 0

Workloads: solve-dense, solve-large, bench-exact, certify (see
perfbench/DESIGN.md).  Each is one client in one process with no threads,
running one operation at a time through the public CLI (``cli.main``) or
library entry points, with ``DUO_THREADS=1`` so ``bench`` never forks.

``--trace 0`` spawns the workload six times, one process after the other:
twice for set-up only, once for set-up plus the timed loop, and three times
more for set-up only.  It prints the end-to-end metrics.  The timed loop runs at least three whole passes over
the corpus (every corpus has at least 100 operations) and stops at the pass
boundary nearest to ``--seconds``.  Operation times are wall times scaled to
a reference host speed by perfbench/reference.py, because the speed of the
host drifts by tens of percent within seconds.

``--trace 1`` runs one pass untraced and one pass in each of two traced
processes, and prints the per-layer metrics.  The traced processes must
agree exactly on every work count.

Every output is checked by perfbench/oracle.py after the timed region.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is used from
``src/`` as it is; there is nothing to build.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
WORKLOADS = ("solve-dense", "solve-large", "bench-exact", "certify")
SETUP_SAMPLES = 5
MIN_PASSES = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
    "preserved_total": "duos",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# ------------------------------------------------------------ child process

def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile; failed operations sort last as +inf."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def run_passes(ops, seconds: float | None, tracer=None) -> dict:
    """Run whole passes over ``ops``: one when ``seconds`` is None, else at
    least MIN_PASSES and then up to the pass boundary nearest ``seconds``.
    Only the calls are timed; outputs are collected between them and judged
    afterwards.  Each call's time is scaled to the reference host speed (see
    perfbench/reference.py)."""
    from workloads import OpFailed

    first: list[tuple[bool, str] | None] = [None] * len(ops)
    attempts: list[tuple[int, float, bool]] = []  # op, seconds, ok
    at_sample: list[int] = []
    changed: set[str] = set()
    pass_walls: list[float] = []
    host = reference.HostSpeed()
    while True:
        pass_start = time.perf_counter()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            try:
                raw, err = op.call(), None
            except Exception as exc:  # the op failed; record and go on
                raw, err = None, exc
            dt = time.perf_counter() - t0
            at_sample.append(host.tick(dt))
            try:
                if err is not None:
                    raise OpFailed(type(err).__name__)
                result = (True, op.render(raw))
            except OpFailed as exc:
                result = (False, f"failed {exc}")
            if first[k] is None:
                first[k] = result
            elif result != first[k]:
                changed.add(op.label)
            attempts.append((k, dt, result[0]))
        pass_walls.append(time.perf_counter() - pass_start)
        passes = len(pass_walls)
        if seconds is None or (
                passes >= MIN_PASSES and sum(pass_walls) * (passes + 0.5) / passes >= seconds):
            break
    scales = host.finish()
    scaled = [(k, dt * scales[i], ok) for (k, dt, ok), i in zip(attempts, at_sample)]
    return {"first": first, "attempts": scaled, "changed": sorted(changed),
            "pass_walls": pass_walls, "op_wall": sum(dt for _, dt, _ in attempts),
            "speed": (min(scales), max(scales))}


def judge(ops, run: dict) -> dict:
    """Oracle verdicts, failure counts and latency figures of one run.  A
    failed operation counts as infinitely slow."""
    wrong: dict[int, str] = {}
    preserved = 0
    digest = hashlib.sha256()
    for k in sorted(range(len(ops)), key=lambda k: ops[k].label):
        ok, out = run["first"][k]
        digest.update(f"{ops[k].label}\n{out}\n".encode())
        if not ok:
            continue
        try:
            preserved += ops[k].check(out)
        except Exception as exc:  # malformed output is a mismatch too
            wrong[k] = f"{ops[k].label}: {type(exc).__name__}: {exc}"
    changed = set(run["changed"])
    lat = sorted(dt * 1000.0 if ok and k not in wrong and ops[k].label not in changed
                 else math.inf for k, dt, ok in run["attempts"])
    failed = sum(1 for ms in lat if ms == math.inf)
    op_time = sum(dt for _, dt, _ in run["attempts"])
    return {
        "correct": not wrong and not changed,
        "wrong": list(wrong.values())[:5],
        "changed": sorted(changed)[:5],
        "attempted": len(lat),
        "failed": failed,
        "failed_ops": sorted({ops[k].label for k, _, ok in run["attempts"] if not ok})[:5],
        "p50_ms": _percentile(lat, 0.5),
        "p90_ms": _percentile(lat, 0.9),
        "ops_per_s": (len(lat) - failed) / op_time,
        "pass_walls": run["pass_walls"],
        "op_time": op_time,
        "op_wall": run["op_wall"],
        "speed": run["speed"],
        "preserved": preserved,
        "digest": digest.hexdigest()[:16],
    }


def child_main(args) -> int:
    import workloads

    ops = workloads.build(args.workload, args.seed, args.work)
    setup_s = time.monotonic() - args.spawned
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if args.child == "traced":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    run = run_passes(ops, args.seconds if args.child == "timed" else None, tracer)
    out = judge(ops, run)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["counts"] = tracer.work_counts()
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        tracer.dump(os.path.join(
            HERE, "_out", f"spans-{args.workload}-seed{args.seed}-{os.path.basename(args.work)}.jsonl"))
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------- parent process

class Runner:
    """Spawns the workload's processes one at a time and waits for each."""

    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
        self.started = time.monotonic()
        self.spawned = 0
        for _ in range(2 * reference.WINDOW):  # warm up the reference job
            reference.sample_seconds()

    def spawn(self, role: str) -> dict:
        self.spawned += 1
        work = os.path.join(self.work, f"{role}-{self.spawned}")
        src = os.path.join(self.root, "src")
        env = dict(os.environ, DUO_THREADS="1",
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        cmd = [sys.executable, os.path.abspath(__file__), "--child", role,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--work", work]
        left = DEADLINE_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=self.root,
                              capture_output=True, text=True, timeout=max(left, 1.0))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"{role} process exited {proc.returncode}")
        return json.loads(lines[-1])

    def setup_seconds(self) -> float:
        """Set-up time of one set-up-only process, scaled by the reference job
        timed here just before and just after it."""
        around = [reference.sample_seconds() for _ in range(reference.WINDOW)]
        setup_s = self.spawn("setup")["setup_s"]
        around += [reference.sample_seconds() for _ in range(reference.WINDOW)]
        return setup_s * reference.REFERENCE_S / statistics.median(around)


def untraced(runner: Runner) -> dict:
    # set-ups before and after the timed loop, so that their median does
    # not rest on the host's speed in a single stretch of seconds
    before = SETUP_SAMPLES // 2
    setups = [runner.setup_seconds() for _ in range(before)]
    main = runner.spawn("timed")
    setups += [runner.setup_seconds() for _ in range(SETUP_SAMPLES - before)]
    beyond = main["attempted"] - math.ceil(0.9 * main["attempted"])
    walls = " ".join(f"{w:.2f}" for w in main["pass_walls"])
    print(f"{runner.args.workload} seed {runner.args.seed}: {main['attempted']} ops "
          f"({main['failed']} failed: {main['failed_ops']}) in passes of {walls} s; "
          f"p50/p90 over {main['attempted']} samples, {beyond} beyond p90; "
          f"{len(setups)} set-ups; digest {main['digest']}")
    lo, hi = main["speed"]
    print(f"  operation time {main['op_wall']:.2f} s wall, {main['op_time']:.2f} s scaled to the "
          f"reference speed (scale {lo:.3f}-{hi:.3f}); unscaled ops_per_s "
          f"{(main['attempted'] - main['failed']) / main['op_wall']:.4g}")
    for problem in main["wrong"] + [f"output changed between passes: {c}" for c in main["changed"]]:
        print(f"  oracle: {problem}")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": main["ops_per_s"],
        "op_ms_p50": main["p50_ms"],
        "op_ms_p90": main["p90_ms"],
        "completed_frac": 1.0 - main["failed"] / main["attempted"],
        "peak_rss_mb": main["peak_rss_mb"],
        "preserved_total": main["preserved"],
    }
    return {
        "correct": main["correct"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def traced(runner: Runner) -> dict:
    base = runner.spawn("pass")
    runs = [runner.spawn("traced"), runner.spawn("traced")]
    correct = base["correct"] and all(r["correct"] for r in runs)
    if len({base["digest"], *(r["digest"] for r in runs)}) != 1:
        print("  outputs differ between the untraced and traced processes")
        correct = False
    diff = sorted(k for k in set(runs[0]["counts"]) | set(runs[1]["counts"])
                  if runs[0]["counts"].get(k) != runs[1]["counts"].get(k))
    if diff:
        print(f"  work counts differ between the two traced processes: {diff[:8]}")
        correct = False
    print(f"{runner.args.workload} seed {runner.args.seed}: traced {base['attempted']} ops, "
          f"operation time of the untraced pass {base['op_time']:.2f} s, of the traced passes "
          f"{runs[0]['op_time']:.2f} s / {runs[1]['op_time']:.2f} s (scaled), "
          f"digest {base['digest']}")
    metrics = {name: statistics.fmean(r["layers"][name] for r in runs)
               for name in runs[0]["layers"]}
    metrics["trace.overhead_frac"] = statistics.fmean(r["op_time"] for r in runs) / base["op_time"] - 1.0
    return {
        "correct": correct,
        "attempted": base["attempted"] + sum(r["attempted"] for r in runs),
        "failed": base["failed"] + sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the role of a spawned workload process
    p.add_argument("--child", choices=("setup", "timed", "pass", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "duomatch", "cli.py")):
        print("error: run from the root of a duomatch checkout (no src/duomatch here)",
              file=sys.stderr)
        return 2
    runner = Runner(args, root)
    try:
        result = traced(runner) if args.trace else untraced(runner)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

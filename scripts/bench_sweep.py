#!/usr/bin/env python3
"""Ratio sweep over seeded random batches.

Generates a grid of capped random instances, runs the search at every swap
width with the exact solver alongside, and prints the worst observed
optimum-to-search ratio per width.  Everything goes through the command
line front end, so the CSV on disk is the same one ``duomatch bench``
users get.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from duomatch.cli import main as duomatch_main


def sweep(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    batch_dirs = []
    for n in args.sizes:
        for k in args.caps:
            alpha = max(2, -(-n // k))
            sub = os.path.join(args.out, f"n{n}_k{k}")
            code = duomatch_main([
                "gen", "--n", str(n), "--k", str(k), "--alphabet", str(alpha),
                "--seed", str(args.seed), "--count", str(args.count),
                "--out", sub,
            ])
            if code != 0:
                return code
            batch_dirs.append(sub)

    csv_path = os.path.join(args.out, "sweep.csv")
    code = duomatch_main([
        "bench", *batch_dirs, "--rho", args.rho, "--with-exact",
        "--csv", csv_path,
    ])
    if code != 0:
        return code

    worst: dict[str, Fraction] = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["ratio"] in ("", "inf"):
                continue
            ratio = Fraction(row["ratio"])
            if ratio > worst.get(row["rho"], Fraction(0)):
                worst[row["rho"]] = ratio
    print(f"wrote {csv_path}")
    for rho in sorted(worst, key=int):
        r = worst[rho]
        print(f"rho={rho}  worst ratio {r.numerator}/{r.denominator}"
              f"  ({float(r):.4f})")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweep_out", help="working directory")
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 10, 12])
    parser.add_argument("--caps", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--count", type=int, default=25,
                        help="instances per (n, k) cell")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rho", default="1..5")
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(sweep(parse_args()))

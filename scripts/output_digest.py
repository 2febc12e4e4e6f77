#!/usr/bin/env python3
"""Digest of every deterministic output of the solvers over a fixed corpus.

Writes a seeded corpus of string pairs (dense small-alphabet pairs, sparse
pairs, identity pairs) next to the files in ``fixtures/`` and prints one
SHA-256 per input and flag set:

* ``solve`` stdout plus its ``--trace`` file at rho 1, 3 and 5, with
  ``--scan-order reverse-lex --seed 3``, and with ``--rho 1 --no-reduce``
  (the plain hill climber);
* the ``is_local_optimum`` verdict on the greedy matching at rho 1 to 5;
* ``improve_step`` of the greedy matching at rho 1 to 5, in both scan
  orders, with reduce off and on;
* ``exact`` stdout;
* ``tokens`` exit code, stdout and stderr for the greedy matching against
  the exact witness, and with the two roles swapped;
* ``verify --local-opt`` JSON for the greedy matching;
* the checklist report and the ``tokens`` output of each gap fixture's
  matching against the exact witness;
* the ``bench --rho 1..5 --with-exact`` CSV over the whole corpus, without
  its wall-clock ``ms`` column;
* the gap search on each spec of ``GAP_SPECS``: the matching, graph edges
  and checklist report it finds, or None.

The last line is one SHA-256 over all the others.  Two checkouts whose
outputs agree print the same lines, so comparing a change against its
parent is

    python3 scripts/output_digest.py > new.txt
    python3 scripts/output_digest.py --src ../parent/src > old.txt
    diff old.txt new.txt

Stdlib only; the corpus is drawn from ``random.Random(--seed)`` and never
from the package, so a change to the program cannot change its inputs.  The
corpus and copies of the fixtures sit in one scratch directory, which is
the working directory of the run, so outputs that echo file names (the
``verify`` JSON) name them the same way on every run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import random
import shutil
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SOLVE_FLAGS = (
    ("rho1", ["--rho", "1"]),
    ("rho3", ["--rho", "3"]),
    ("rho5", ["--rho", "5"]),
    ("reverse-seed3", ["--scan-order", "reverse-lex", "--seed", "3"]),
    ("rho1-no-reduce", ["--rho", "1", "--no-reduce"]),
)

#: (m, matching_size, anchors, caps) of the gap searches: the specs
#: pinned in tests/test_instances.py below m=20, then the m=18 search of
#: the certify benchmark.  The anchors are distinct and passed as edges,
#: which searches that do not normalise them read the same way.
GAP_SPECS = (
    (7, 2, (), (1,)),
    (10, 4, (), (1, 2)),
    (12, 6, ((2, 5), (3, 6)), (1, 2, 3)),
    (12, 6, ((1, 5), (2, 6), (6, 1), (7, 2)), (1, 2)),
    (14, 6, ((2, 8), (3, 9)), (1, 2, 3)),
    (14, 4, ((2, 6), (3, 7), (6, 2), (7, 3)), (1, 2, 3)),
    (9, 12, (), (1,)),
    (18, 8, ((2, 8), (3, 9)), (1, 2, 3, 4, 5)),
)


def balanced_pair(rng: random.Random, n: int, alphabet: int) -> tuple[list[str], list[str]]:
    a = [f"s{t % alphabet}" for t in range(n)]
    rng.shuffle(a)
    b = a.copy()
    rng.shuffle(b)
    return a, b


def write_corpus(rng: random.Random) -> list[str]:
    """Write the corpus and copy the fixture inputs into the working
    directory; returns their file names."""
    pairs = []
    for t in range(60):
        n = 12 + t % 9
        pairs.append((f"dense_{t:02d}_n{n}", balanced_pair(rng, n, 3 + t % 2)))
    for t in range(8):
        n = 30 + 10 * t
        pairs.append((f"sparse_{t:02d}_n{n}", balanced_pair(rng, n, n // 6)))
    for n in (10, 20, 40):
        a = [f"x{t}" for t in range(n)]
        pairs.append((f"identity_n{n}", (a, a.copy())))
    paths = []
    for name, (a, b) in pairs:
        path = name + ".duo"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(" ".join(a) + "\n" + " ".join(b) + "\n")
        paths.append(path)
    fixtures = os.path.join(ROOT, "fixtures")
    for name in sorted(os.listdir(fixtures)):
        if name.endswith((".duo", ".mcbm", ".matching")):
            shutil.copy(os.path.join(fixtures, name), name)
            if not name.endswith(".matching"):
                paths.append(name)
    return paths


def write_edges(path: str, edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{e.i} {e.j}\n" for e in edges))


def run_cli(main, argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}\n{err.getvalue()}".encode()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(paths: list[str]):
    from duomatch import Edge, Matching, exact_max_matching, fileio, instances, localsearch
    from duomatch.cli import main

    for name in paths:
        for label, flags in SOLVE_FLAGS:
            trace = "trace.jsonl"
            out = run_cli(main, ["solve", name, "--trace", trace, *flags])
            with open(trace, "rb") as fh:
                out += fh.read()
            os.remove(trace)
            yield f"solve {label} {name}", sha(out)
        g, _ = fileio.load_problem(name)
        greedy = localsearch.greedy_maximal(g)
        certs = []
        for rho in range(1, 6):
            cfg = localsearch.SolverConfig(rho=rho)
            certs.append(repr(localsearch.is_local_optimum(g, greedy, cfg)))
        yield f"certificates {name}", sha("\n".join(certs).encode())
        moves = [
            repr(localsearch.improve_step(g, greedy, localsearch.SolverConfig(
                rho=rho, scan_order=order, use_reduce=use_reduce)))
            for use_reduce in (False, True)
            for rho in range(1, 6)
            for order in (localsearch.SCAN_LEX, localsearch.SCAN_REVERSE_LEX)
        ]
        yield f"moves {name}", sha("\n".join(moves).encode())
        yield f"exact {name}", sha(run_cli(main, ["exact", name]))
        witness = exact_max_matching(g).witness
        write_edges("greedy.txt", greedy.edges)
        write_edges("exact.txt", witness.edges)
        out = run_cli(main, ["tokens", name, "greedy.txt", "exact.txt"])
        out += run_cli(main, ["tokens", name, "exact.txt", "greedy.txt"])
        yield f"tokens {name}", sha(out)
        out = run_cli(main, ["verify", name, "greedy.txt", "--local-opt"])
        yield f"verify local-opt {name}", sha(out)
        stem, _ = os.path.splitext(name)
        if os.path.exists(stem + ".matching"):
            matching = Matching(fileio.load_matching_edges(stem + ".matching"))
            caps = instances.STRING_GAP_CAPS if name.endswith(".duo") else instances.GRAPH_GAP_CAPS
            report = instances.swap_resistance_checklist(g, matching, witness, caps=caps)
            yield f"checklist {name}", sha(repr(report).encode())
            out = run_cli(main, ["tokens", name, stem + ".matching", "exact.txt"])
            yield f"tokens fixture {name}", sha(out)
    table = "bench.csv"
    out = run_cli(main, ["bench", *paths, "--rho", "1..5", "--with-exact", "--csv", table])
    with open(table, newline="", encoding="utf-8") as fh:
        rows = [row[:-1] for row in csv.reader(fh)]
    yield "bench rho1..5 with-exact", sha(out + "".join(",".join(r) + "\n" for r in rows).encode())
    for m, size, anchors, caps in GAP_SPECS:
        spec = instances.GapSearchSpec(m=m, matching_size=size,
                                       anchors=tuple(Edge(i, j) for i, j in anchors), caps=caps)
        found = instances.search_gap_instance(spec)
        text = "None" if found is None else repr((found.matching, found.graph.edges,
                                                  found.checklist))
        label = " ".join(f"{i},{j}" for i, j in anchors) or "-"
        # every candidate run has two edges
        yield (f"gap-search m{m} size{size} anchors {label} caps {caps} L2",
               sha(text.encode()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source directory of the checkout to run (default: this one)")
    parser.add_argument("--seed", type=int, default=1, help="corpus seed")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    total = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            paths = write_corpus(random.Random(args.seed))
            for label, digest in digests(paths):
                line = f"{digest}  {label}"
                print(line, flush=True)
                total.update(line.encode() + b"\n")
        finally:
            os.chdir(home)
    print(f"{total.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())

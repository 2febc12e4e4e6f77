"""Seeded inputs and the operations of the four workloads.

Inputs come from this module's own generator (stdlib ``random`` seeded with
the workload name and ``--seed``), never from ``duomatch.instances``, so a
change to the program cannot change what the benchmark feeds it.  Instance
sizes are fixed per workload; the seed draws only symbols and orders, which
keeps the work in a pass close across seeds.  The gap fixtures are read from
``fixtures/`` as they are.

Random pairs have a balanced composition (every symbol of the alphabet
appears floor or ceil of n/alphabet times); dense pairs are in addition
drawn with a fixed edge count.  Both cut the heavy tail of the width-5
search and of branch and bound, so that a run's figures depend little on
which seed it got.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import duomatch
from duomatch import cli

import oracle

STRING_GAP = "fixtures/string_gap.duo"
STRING_GAP_MATCHING = "fixtures/string_gap.matching"
GRAPH_GAP = "fixtures/graph_gap_26.mcbm"
GRAPH_GAP_MATCHING = "fixtures/graph_gap_26.matching"

#: Verdicts pinned when this benchmark was written; they equal the
#: certificates in fixtures/*.json.
VERIFY_PINNED = {
    STRING_GAP: {"size": 6, "in_graph": True, "compatible": True, "rho": 5,
                 "maximal": True, "local_optimum": True, "violations": [], "passed": True},
    GRAPH_GAP: {"size": 12, "in_graph": True, "compatible": True, "rho": 5,
                "maximal": True, "local_optimum": True, "violations": [], "passed": True},
}
CHECKLIST_PINNED = {
    STRING_GAP: [("maximal", 0, 0), ("all-parallel", 0, 0), ("swap-1", 0, 0),
                 ("swap-2", 2, 2), ("swap-3", 2, 2), ("swap-4", 4, 4), ("swap-5", 4, 4)],
    GRAPH_GAP: [("maximal", 0, 0), ("all-parallel", 0, 0), ("swap-1", 1, 1),
                ("swap-2", 2, 2), ("swap-3", 3, 3), ("swap-4", 4, 4), ("swap-5", 5, 5)],
}
#: Exhaustive gap searches that end with verdict None, in about 2 s and 3 s.  The full m=26 reconstruction takes 40 s or more, too long
#: for one operation of a run.
GAP_SPECS = ((18, 8), (20, 9))
GAP_ANCHORS = ((2, 8), (3, 9))


class OpFailed(Exception):
    """The operation raised, exited 2 or 3, or ran out of a budget."""


@dataclass
class Op:
    label: str
    call: Callable[[], Any]        # the timed part
    render: Callable[[Any], str]   # output text, untimed; raises OpFailed
    check: Callable[[str], int]    # oracle; preserved duos, or raises Mismatch


# ------------------------------------------------------------------ inputs

def random_pair(rng: random.Random, n: int, alphabet: int) -> tuple[list[str], list[str]]:
    """A balanced random string and a uniform shuffle of it."""
    a = [chr(ord("a") + t % alphabet) if alphabet <= 26 else f"s{t % alphabet}"
         for t in range(n)]
    rng.shuffle(a)
    b = a.copy()
    rng.shuffle(b)
    return a, b


def dense_pair(rng: random.Random, n: int, alphabet: int) -> tuple[list[str], list[str]]:
    """A random pair conditioned on having round((n-1)^2 / alphabet^2) duo
    graph edges, the expected count.  Edge count drives how large the
    matchings get and hence the C(|M|, rho) scans and the branch-and-bound
    tree, so fixing it roughly halves the spread of per-instance cost."""
    target = round((n - 1) ** 2 / alphabet ** 2)
    while True:
        a, b = random_pair(rng, n, alphabet)
        if len(oracle.duo_graph(a, b)) == target:
            return a, b


def identity_pair(n: int) -> tuple[list[str], list[str]]:
    """Distinct symbols, A == B: the graph is the diagonal, the search finds
    it at once and every swap scan runs without a single entrant."""
    a = [f"x{t}" for t in range(n)]
    return a, a.copy()


def write_pair(path: str, a, b) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(a) + "\n" + " ".join(b) + "\n")


def read_pair(path: str) -> tuple[list[str], list[str]]:
    with open(path, encoding="utf-8") as fh:
        a, b = [ln.split() for ln in fh.read().splitlines() if ln.strip()]
    return a, b


def write_edges(path: str, edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{e.i} {e.j}\n" for e in edges))


# ---------------------------------------------------------- operation kinds

def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()
    return call


def _cli_render(ok_codes=(0,), csv_path: str | None = None):
    def render(raw) -> str:
        code, out = raw
        if code not in ok_codes:
            raise OpFailed(f"exit {code}")
        if csv_path is not None:
            # the wall-clock ms column is the only nondeterministic output
            with open(csv_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if rows and rows[0][-1:] == ["ms"]:
                rows = [row[:-1] for row in rows]
            out = "".join(",".join(row) + "\n" for row in rows)
        return f"exit {code}\n{out}"
    return render


def _solve_op(path: str, a, b, extra: list[str]) -> Op:
    return Op(f"solve {os.path.basename(path)}", _cli_call(["solve", path, *extra]),
              _cli_render(), lambda text: oracle.check_solve(a, b, text))


# --------------------------------------------------------------- workloads

def _solve_dense(rng, work):
    ops = []
    for t in range(324):
        n = 16 + t % 3
        path = os.path.join(work, f"dense_{t:03d}_n{n}.duo")
        a, b = dense_pair(rng, n, 4)
        write_pair(path, a, b)
        ops.append(_solve_op(path, a, b, []))
    for n in (12, 14, 16, 18, 20):
        path = os.path.join(work, f"identity_n{n}.duo")
        a, b = identity_pair(n)
        write_pair(path, a, b)
        ops.append(_solve_op(path, a, b, []))
    ops.append(_solve_op(STRING_GAP, *read_pair(STRING_GAP), []))
    return ops


def _solve_large(rng, work):
    ops = []
    count = 95
    for t in range(count):
        n = 300 + 400 * t // (count - 1)
        path = os.path.join(work, f"sparse_{t:03d}_n{n}.duo")
        a, b = random_pair(rng, n, n // 10)
        write_pair(path, a, b)
        ops.append(_solve_op(path, a, b, ["--rho", "1"]))
    for n in (200, 250, 300, 350, 400):
        path = os.path.join(work, f"identity_n{n}.duo")
        a, b = identity_pair(n)
        write_pair(path, a, b)
        ops.append(_solve_op(path, a, b, ["--rho", "1"]))
    return ops


def _bench_op(work, path, n, k, graph, exact) -> Op:
    stem = os.path.splitext(os.path.basename(path))[0]
    out = os.path.join(work, stem + ".csv")
    return Op(f"bench {stem}",
              _cli_call(["bench", path, "--rho", "1", "--with-exact", "--csv", out]),
              _cli_render(csv_path=out),
              lambda text: oracle.check_bench(stem, n, k, graph, exact(), text))


def _lazy(fn):
    """Compute an oracle reference on first use, outside the timed loop."""
    memo = []

    def get():
        if not memo:
            memo.append(fn())
        return memo[0]
    return get


def _bench_exact(rng, work):
    ops = []
    for t in range(150):
        n = 24
        path = os.path.join(work, f"dense_{t:03d}_n{n}.duo")
        a, b = dense_pair(rng, n, 4)
        write_pair(path, a, b)
        graph = oracle.duo_graph(a, b)
        k = str(max(a.count(s) for s in set(a)))
        ops.append(_bench_op(work, path, n, k, graph,
                             _lazy(lambda graph=graph: oracle.max_compatible(graph))))
    with open(GRAPH_GAP, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    gap_edges = {tuple(map(int, ln.split())) for ln in lines[1:]}
    ops.append(_bench_op(work, GRAPH_GAP, int(lines[0]), "", gap_edges,
                         _lazy(lambda: oracle.max_compatible(gap_edges))))
    # identity n=1100 exceeds the recursion limit of the recursive branch and
    # bound; it stays in the corpus so that the failure is counted
    for n in (400, 900, 1100):
        path = os.path.join(work, f"identity_n{n}.duo")
        a, b = identity_pair(n)
        write_pair(path, a, b)
        ops.append(_bench_op(work, path, n, "1", oracle.duo_graph(a, b), lambda n=n: n - 1))
    return ops


def _render_checklist(report) -> str:
    lines = [f"{it.name} {it.passed} {it.observed} {it.cap} "
             + ",".join(f"{e.i}:{e.j}" for e in it.witness) for it in report.items]
    return "\n".join(lines) + f"\npassed {report.passed}\n"


def _certify(rng, work):
    ops = []
    config = duomatch.SolverConfig(rho=1, use_reduce=False)
    for t in range(200):
        n = 18 + t % 5
        stem = os.path.join(work, f"dense_{t:03d}_n{n}")
        a, b = dense_pair(rng, n, 4)
        write_pair(stem + ".duo", a, b)
        g = duomatch.DuoGraph.from_strings(duomatch.StringInstance(tuple(a), tuple(b)))
        matching, _ = duomatch.local_search(g, config)
        optimum = duomatch.exact_max_matching(g).witness
        write_edges(stem + ".m", matching.edges)
        write_edges(stem + ".opt", optimum.edges)
        m_edges = [(e.i, e.j) for e in matching.edges]
        o_edges = [(e.i, e.j) for e in optimum.edges]
        ops.append(Op(f"tokens {os.path.basename(stem)}",
                      _cli_call(["tokens", stem + ".duo", stem + ".m", stem + ".opt"]),
                      _cli_render(ok_codes=(0, 1)),
                      lambda text, m=m_edges, o=o_edges: oracle.check_tokens(m, o, text)))
    for path, mpath in ((STRING_GAP, STRING_GAP_MATCHING), (GRAPH_GAP, GRAPH_GAP_MATCHING)):
        pinned = VERIFY_PINNED[path]
        ops.append(Op(f"verify {os.path.basename(path)}",
                      _cli_call(["verify", path, mpath, "--local-opt"]), _cli_render(),
                      lambda text, p=pinned: oracle.check_verify(p, text)))
    g, _ = duomatch.fileio.load_problem(STRING_GAP)
    fixtures = [(STRING_GAP, STRING_GAP_MATCHING, g, duomatch.exact_max_matching(g).witness,
                 duomatch.STRING_GAP_CAPS)]
    g, _ = duomatch.fileio.load_problem(GRAPH_GAP)
    fixtures.append((GRAPH_GAP, GRAPH_GAP_MATCHING, g,
                     duomatch.Matching(duomatch.Edge(p, p) for p in range(1, g.m + 1)),
                     duomatch.GRAPH_GAP_CAPS))
    for path, mpath, g, optimum, caps in fixtures:
        matching = duomatch.Matching(duomatch.fileio.load_matching_edges(mpath))
        ops.append(Op(f"checklist {os.path.basename(path)}",
                      lambda g=g, m=matching, o=optimum, c=caps:
                          duomatch.swap_resistance_checklist(g, m, o, caps=c),
                      _render_checklist,
                      lambda text, rows=CHECKLIST_PINNED[path]: oracle.check_checklist(rows, text)))
    anchors = tuple(duomatch.Edge(i, j) for i, j in GAP_ANCHORS)
    for m, size in GAP_SPECS:
        spec = duomatch.GapSearchSpec(m=m, matching_size=size, anchors=anchors)
        ops.append(Op(f"gap-search m{m} size{size}",
                      lambda spec=spec: duomatch.search_gap_instance(spec),
                      lambda found: "None\n" if found is None
                      else "found " + " ".join(map(str, found.matching.edges)) + "\n",
                      oracle.check_gap_exhausted))
    return ops


WORKLOAD_OPS = {
    "solve-dense": _solve_dense,
    "solve-large": _solve_large,
    "bench-exact": _bench_exact,
    "certify": _certify,
}


def build(name: str, seed: int, work: str) -> list[Op]:
    """Write the inputs of one workload under ``work`` and return its ops in
    the seeded order every pass of a run follows."""
    os.makedirs(work, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOAD_OPS[name](rng, work)
    rng.shuffle(ops)
    return ops

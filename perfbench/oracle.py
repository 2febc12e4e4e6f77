"""Independent output checks for the benchmark.

Nothing here imports duomatch.  Compatibility is taken from the partition
view of the problem rather than from ``duomatch.compatible``: edge (i, j)
sends A-position i to B-position j and i+1 to j+1, and a set of edges is a
valid matching exactly when the union of those position maps is a partial
bijection.  Two edges can only clash when they touch positions within one
of each other on some side, which keeps the graph-wide checks local.

Every check raises :class:`Mismatch` naming the first discrepancy and
otherwise returns the number of preserved duos the output reports, which
feeds the ``preserved_total`` metric.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from fractions import Fraction

BENCH_COLUMNS = ["id", "n", "k", "E", "rho", "ls", "exact", "ratio", "iters"]


class Mismatch(Exception):
    """An operation produced output the oracle rejects."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def duo_graph(a, b) -> set[tuple[int, int]]:
    """Edges (i, j), 1-based, where duo i of ``a`` spells duo j of ``b``."""
    where: dict[tuple[str, str], list[int]] = defaultdict(list)
    for j in range(1, len(b)):
        where[(b[j - 1], b[j])].append(j)
    return {(i, j) for i in range(1, len(a)) for j in where.get((a[i - 1], a[i]), ())}


def _position_maps(edges):
    """Forward and backward position maps of an edge set, or None when the
    edges map one position twice or two positions to one."""
    fwd: dict[int, int] = {}
    back: dict[int, int] = {}
    for i, j in edges:
        for s, t in ((i, j), (i + 1, j + 1)):
            if fwd.setdefault(s, t) != t or back.setdefault(t, s) != s:
                return None
    return fwd, back


def _fits(fwd, back, e) -> bool:
    i, j = e
    return all(fwd.get(s, t) == t and back.get(t, s) == s
               for s, t in ((i, j), (i + 1, j + 1)))


def clash(e, f) -> bool:
    return e != f and _position_maps((e, f)) is None


def _clash_lists(edges):
    """For each edge, the edges it clashes with, found through the position
    buckets within distance one."""
    by_i: dict[int, list] = defaultdict(list)
    by_j: dict[int, list] = defaultdict(list)
    for e in edges:
        by_i[e[0]].append(e)
        by_j[e[1]].append(e)
    out = {}
    for e in edges:
        near = set()
        for d in (-1, 0, 1):
            near.update(by_i.get(e[0] + d, ()))
            near.update(by_j.get(e[1] + d, ()))
        out[e] = [f for f in near if clash(e, f)]
    return out


def max_compatible(edges) -> int:
    """Size of a largest valid matching: maximum independent set of the
    clash graph by bitset branch and bound.  Vertices with at most one
    neighbour left are always taken, which settles most dense instances
    without branching."""
    es = sorted(set(edges))
    index = {e: k for k, e in enumerate(es)}
    nbr = [0] * len(es)
    for e, fs in _clash_lists(es).items():
        for f in fs:
            nbr[index[e]] |= 1 << index[f]
    best = 0

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def rec(live: int, size: int) -> None:
        nonlocal best
        while True:
            if size + live.bit_count() <= best:
                return
            if not live:
                best = size
                return
            degree = {v: (nbr[v] & live).bit_count() for v in bits(live)}
            v = min(degree, key=degree.get)
            if degree[v] > 1:
                break
            live &= ~(nbr[v] | 1 << v)
            size += 1
        v = max(degree, key=degree.get)
        rec(live & ~(nbr[v] | 1 << v), size + 1)
        rec(live & ~(1 << v), size)

    rec((1 << len(es)) - 1, 0)
    return best


def _split_exit(text: str) -> tuple[int, str]:
    head, _, body = text.partition("\n")
    _expect(head.startswith("exit "), f"no exit line in {head!r}")
    return int(head[5:]), body


def _cut(symbols, covered) -> list[tuple[str, ...]]:
    """Cut a string before every position whose incoming duo is unpreserved."""
    blocks, start = [], 0
    for p in range(1, len(symbols)):
        if p not in covered:
            blocks.append(tuple(symbols[start:p]))
            start = p
    blocks.append(tuple(symbols[start:]))
    return blocks


def check_solve(a, b, text: str) -> int:
    """Validate ``duomatch solve`` output against the string pair."""
    code, body = _split_exit(text)
    _expect(code == 0, f"exit {code}")
    edges, preserved, partition = [], None, None
    for ln in body.splitlines():
        if ln.startswith("preserved "):
            preserved = int(ln.split()[1])
        elif ln.startswith("partition: "):
            partition = [tuple(block.split()) for block in ln[11:].split(" | ")]
        else:
            i, j = ln.split()
            edges.append((int(i), int(j)))
    _expect(len(set(edges)) == len(edges), "duplicate edge lines")
    graph = duo_graph(a, b)
    stray = [e for e in edges if e not in graph]
    _expect(not stray, f"edges {stray[:3]} do not spell the same duo on both sides")
    maps = _position_maps(edges)
    _expect(maps is not None, "edges are not pairwise compatible")
    extension = next((e for e in sorted(graph - set(edges)) if _fits(*maps, e)), None)
    _expect(extension is None, f"not maximal: {extension} extends the matching")
    _expect(preserved == len(edges), f"preserved {preserved} but {len(edges)} edges")
    _expect(partition is not None, "no partition line")
    _expect(len(partition) == len(a) - len(edges),
            f"{len(partition)} blocks, expected {len(a) - len(edges)}")
    blocks_a = _cut(a, {i for i, _ in edges})
    _expect(partition == blocks_a, "partition does not cut A at the unpreserved duos")
    _expect(Counter(blocks_a) == Counter(_cut(b, {j for _, j in edges})),
            "blocks are not a common partition of A and B")
    return len(edges)


def check_bench(stem: str, n: int, k: str, graph, exact: int, text: str) -> int:
    """Validate one ``bench --rho 1 --with-exact`` CSV (ms column already
    dropped) against the instance and its independently computed optimum."""
    code, body = _split_exit(text)
    _expect(code == 0, f"exit {code}")
    lines = body.splitlines()
    _expect(len(lines) == 2, f"expected header and one row, got {len(lines)} lines")
    _expect(lines[0].split(",") == BENCH_COLUMNS, f"header {lines[0]!r}")
    row = dict(zip(BENCH_COLUMNS, lines[1].split(",")))
    want = {"id": stem, "n": str(n), "k": k, "E": str(len(graph)), "rho": "1",
            "exact": str(exact)}
    for key, val in want.items():
        _expect(row[key] == val, f"{key} {row[key]!r}, expected {val!r}")
    ls = int(row["ls"])
    _expect(1 <= ls <= exact, f"ls {ls} outside 1..{exact}")
    ratio = Fraction(exact, ls)
    _expect(row["ratio"] == f"{ratio.numerator}/{ratio.denominator}",
            f"ratio {row['ratio']!r} for {exact}/{ls}")
    _expect(ratio <= Fraction(7, 2), f"ratio {ratio} above the width-1 guarantee 7/2")
    return ls


def _edge_key(e) -> str:
    return f"{e[0]} {e[1]}"


def check_tokens(matching, optimum, text: str) -> int:
    """Recompute the token flow of ``optimum`` into ``matching`` and compare
    it with ``duomatch tokens`` output.  Exit 1 is valid when the report is
    complete: the structural checks target width-5 terminal matchings."""
    code, body = _split_exit(text)
    _expect(code in (0, 1), f"exit {code}")
    out = json.loads(body)
    m_set = set(matching)
    per_opt = {}
    per_sol = {e: Fraction(0) for e in matching}
    clashes = _clash_lists(set(matching) | set(optimum))
    for e in optimum:
        recv = [e] if e in m_set else [f for f in clashes[e] if f in m_set]
        _expect(bool(recv), f"optimum edge {e} clashes with no matching edge")
        per_opt[_edge_key(e)] = len(recv)
        for f in recv:
            per_sol[f] += Fraction(1, len(recv))
    total = sum(per_sol.values(), Fraction(0))
    _expect(total == len(optimum), "oracle token flow does not conserve")
    _expect(out["matching_size"] == len(matching), "matching_size")
    _expect(out["optimum_size"] == len(optimum), "optimum_size")
    _expect(out["total"] == f"{len(optimum)}/1", f"total {out['total']}")
    _expect(out["conservation"] is True, "conservation not reported")
    _expect(out["per_opt_edge"] == per_opt, "per_opt_edge differs from the oracle")
    want_sol = {_edge_key(e): f"{v.numerator}/{v.denominator}" for e, v in per_sol.items()}
    _expect(out["per_sol_edge"] == want_sol, "per_sol_edge differs from the oracle")
    top = max(per_sol.values())
    _expect(out["max_total"] == f"{top.numerator}/{top.denominator}", "max_total")
    _expect(out["passed"] == all(out["checks"].values()), "passed disagrees with checks")
    _expect((code == 0) == out["passed"], f"exit {code} with passed={out['passed']}")
    return len(matching)


def check_verify(expected: dict, text: str) -> int:
    """Compare ``verify --local-opt`` output with its pinned verdict."""
    code, body = _split_exit(text)
    _expect(code == 0, f"exit {code}")
    out = json.loads(body)
    for key, val in expected.items():
        _expect(out.get(key) == val, f"{key} {out.get(key)!r}, pinned {val!r}")
    return out["size"]


def check_checklist(rows, text: str) -> int:
    """Compare a rendered checklist with its pinned (name, observed, cap)
    rows; every item must pass."""
    lines = text.splitlines()
    got = [tuple(ln.split()[:4]) for ln in lines[:-1]]
    want = [(name, str(obs <= cap), str(obs), str(cap)) for name, obs, cap in rows]
    _expect(got == want, f"checklist {got}, pinned {want}")
    _expect(lines[-1] == "passed True", lines[-1])
    return 0


def check_gap_exhausted(text: str) -> int:
    """The pinned verdict of both gap searches: the space holds no instance."""
    _expect(text == "None\n", f"gap search verdict {text[:80]!r}, pinned None")
    return 0

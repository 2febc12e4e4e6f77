"""Maximum matching of a duo graph, and the best swap out of a matching, by
integer programming: oracles independent of the branch and bound and of
the local search's swap enumeration.

For the maximum matching, one 0/1 variable per edge, the objective their
sum, and one row ``x_e + x_f <= 1`` per conflicting edge pair; the swap
model is described at :func:`milp_best_swap_gain`.  Both are solved by
``scipy.optimize.milp`` (HiGHS).  scipy is not a dependency of the package,
so import this module only after ``pytest.importorskip("scipy")``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from duomatch.core import DuoGraph, Matching, _mask, _positions


def milp_max_matching(g: DuoGraph) -> Matching:
    """A maximum matching of ``g``, found by HiGHS; AssertionError when the
    solver does not report an optimum."""
    n = len(g.edges)
    if not n:
        return Matching()
    conf = g.index.conf
    pairs = [(k, u) for k in range(n) for u in _positions(conf[k]) if u > k]
    constraints = []
    if pairs:
        rows = np.repeat(np.arange(len(pairs)), 2)
        cols = np.array(pairs).ravel()
        a = coo_array((np.ones(2 * len(pairs)), (rows, cols)), shape=(len(pairs), n))
        constraints.append(LinearConstraint(a.tocsr(), -np.inf, 1))
    res = milp(-np.ones(n), constraints=constraints, integrality=np.ones(n),
               bounds=Bounds(0, 1))
    assert res.status == 0, res.message
    return Matching(g.edges[k] for k in range(n) if res.x[k] > 0.5)


def milp_best_swap_gain(g: DuoGraph, matching: Matching, rho: int) -> int:
    """The largest |Y| - |X| over the swaps that drop X, at most ``rho``
    edges of ``matching``, and take in Y, pairwise-compatible edges outside
    it whose conflicts in the matching lie within X; found by HiGHS.  A
    width-``rho`` replace exists iff it is at least 1.

    Variable k is y_k, to enter, for an edge outside the matching and x_k,
    to leave, for a matching edge.  Rows: y_e - x_f <= 0 for each matching
    edge f that conflicts with e, y_e + y_e' <= 1 for each conflicting pair
    outside the matching, and the sum of the x at most ``rho``; the
    objective is to maximize the sum of the y less the sum of the x.  One
    more row per matching edge f and greedy maximal clique K of the edges
    outside the matching that conflict with f says that at most one of K
    enters, and only if f leaves: implied at 0/1 points, it tightens the
    relaxation enough that HiGHS, with its presolve off, answers in tens of
    milliseconds at |M| 344 where the pairwise rows alone take seconds.
    AssertionError when the solver does not report an optimum."""
    n = len(g.edges)
    conf, m_mask = g.index.conf, _mask(g, matching)
    rows: list[tuple[dict[int, float], int]] = []
    for k in range(n):
        if not m_mask >> k & 1:
            for f in _positions(conf[k]):
                if m_mask >> f & 1:
                    rows.append(({k: 1.0, f: -1.0}, 0))
                elif f > k:
                    rows.append(({k: 1.0, f: 1.0}, 1))
    for f in _positions(m_mask):
        near = conf[f] & ~m_mask
        cliques = set()
        for k in _positions(near):
            clique, grow = 1 << k, near & conf[k]
            while grow:
                low = grow & -grow
                clique |= low
                grow &= conf[low.bit_length() - 1]
            cliques.add(clique)
        for clique in cliques:
            rows.append(({**dict.fromkeys(_positions(clique), 1.0), f: -1.0}, 0))
    rows.append((dict.fromkeys(_positions(m_mask), 1.0), rho))
    r, c, v = zip(*((r, k, v) for r, (coefs, _) in enumerate(rows) for k, v in coefs.items()))
    a = coo_array((v, (r, c)), shape=(len(rows), n))
    cost = np.array([1.0 if m_mask >> k & 1 else -1.0 for k in range(n)])
    res = milp(cost, constraints=[LinearConstraint(a.tocsr(), -np.inf, [u for _, u in rows])],
               integrality=np.ones(n), bounds=Bounds(0, 1), options={"presolve": False})
    assert res.status == 0, res.message
    return round(-res.fun)

"""Maximum matching of a duo graph by integer programming, an oracle
independent of the branch and bound.

One 0/1 variable per edge, the objective their sum, and one row
``x_e + x_f <= 1`` per conflicting edge pair, solved by
``scipy.optimize.milp`` (HiGHS).  scipy is not a dependency of the package,
so import this module only after ``pytest.importorskip("scipy")``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from duomatch.core import DuoGraph, Matching, _positions


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

"""A MILP oracle for gamma and gamma_R, a route independent of the search.

Works from (n, edge list) and imports nothing from the package. The
integer programs, over binary variables, are

    gamma:    min sum x              subject to  sum over N[v] of x >= 1,
    gamma_R:  min 2 sum x + sum y    subject to  y_v + sum over N[v] of x >= 1,

x marking S (the 2-labels for gamma_R) and y the 1-labels. HiGHS solves
them through ``scipy.optimize.milp`` with a zero optimality gap, and the
objective is rounded to the nearest integer.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


def _closed_neighborhoods(n: int, edges) -> np.ndarray:
    """Row v is the indicator vector of N[v]."""
    a = np.eye(n)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def _solve(cost: np.ndarray, rows: np.ndarray) -> int:
    res = milp(
        cost,
        constraints=LinearConstraint(rows, lb=1),
        integrality=np.ones(len(cost)),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if not res.success:
        raise RuntimeError(res.message)
    return round(res.fun)


def milp_gamma(n: int, edges) -> int:
    return _solve(np.ones(n), _closed_neighborhoods(n, edges))


def milp_gamma_r(n: int, edges) -> int:
    rows = np.hstack([_closed_neighborhoods(n, edges), np.eye(n)])
    return _solve(np.concatenate([np.full(n, 2.0), np.ones(n)]), rows)

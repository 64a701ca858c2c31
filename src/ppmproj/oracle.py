"""Independent exact solvers for small instances, used as ground truth.

Both solvers enumerate candidate active sets and solve small dense linear
systems, so they share no code path with the sweep they are meant to check.
Sizes are capped at q <= 14 to keep the 2^q enumeration trivial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .tree import RootedTree, _column, ancestry_matrix

MAX_ORACLE_Q = 14
_KKT_TOL = 1e-9


@dataclass
class OracleSolution:
    """KKT-certified minimizer of the primal projection problem."""

    m: np.ndarray
    f: np.ndarray
    cost: float
    active_set: frozenset


def _check_size(q: int):
    if q > MAX_ORACLE_Q:
        raise ValueError(
            f"oracle enumeration is limited to q <= {MAX_ORACLE_Q}, got {q}")


def oracle_project(tree: RootedTree, fhat_col) -> OracleSolution:
    """Solve the primal projection by enumerating active sets.

    For each candidate set S of zeroed mutant fractions (by increasing
    cardinality), solves the equality-constrained least squares with the
    sum-to-one constraint and keeps the first candidate satisfying the KKT
    conditions: nonnegative fractions and nonnegative multipliers on S.
    Strict convexity makes that point the unique minimizer.
    """
    q = tree.q
    _check_size(q)
    f = _column(fhat_col, q)
    u = ancestry_matrix(tree).astype(float)
    utu = u.T @ u
    utf = u.T @ f
    ones = np.ones(q)

    for size in range(q):
        for s in itertools.combinations(range(q), size):
            s = list(s)
            free = [i for i in range(q) if i not in s]
            k = len(free)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = utu[np.ix_(free, free)]
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[:k] = utf[free]
            rhs[k] = 1.0
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            m = np.zeros(q)
            m[free] = sol[:k]
            nu = sol[k]
            if np.any(m[free] < -_KKT_TOL):
                continue
            lam = utu @ m - utf + nu * ones
            if s and np.any(lam[s] < -_KKT_TOL):
                continue
            fv = u @ m
            cost = float(np.linalg.norm(f - fv))
            return OracleSolution(m=m, f=fv, cost=cost,
                                  active_set=frozenset(i + 1 for i in s))
    raise RuntimeError("no KKT point found; oracle enumeration failed")


def oracle_dual_at_t(tree: RootedTree, sums, t: float):
    """Minimize the inner dual problem at a fixed t by boundary enumeration.

    For every subset B of nodes pinned to their constraint line, solves the
    tree-Laplacian first-order system for the free values and keeps the
    feasible candidate with the smallest objective, which is the unique
    minimizer.  Returns ``(z, lvalue)``.
    """
    q = tree.q
    _check_size(q)
    n = _column(sums, q)
    parent = tree.parent

    # Laplacian of the edge objective, with the root anchored to zero.
    lap = np.zeros((q, q))
    for j in range(1, q + 1):
        lap[j - 1, j - 1] += 1.0
        p = parent[j]
        if p:
            lap[p - 1, p - 1] += 1.0
            lap[j - 1, p - 1] -= 1.0
            lap[p - 1, j - 1] -= 1.0

    def objective(z):
        val = 0.0
        for j in range(1, q + 1):
            p = parent[j]
            d = z[j - 1] - (z[p - 1] if p else 0.0)
            val += d * d
        return 0.5 * val

    # Enumerate boundary sets by increasing size; the first KKT-certified
    # candidate (feasible, nonnegative multipliers on the pinned set) is the
    # unique minimizer.
    slack = t - n
    for size in range(q + 1):
        for b in itertools.combinations(range(q), size):
            b = list(b)
            free = [i for i in range(q) if i not in b]
            z = np.empty(q)
            z[b] = slack[b]
            if free:
                a = lap[np.ix_(free, free)]
                rhs = -lap[np.ix_(free, b)] @ z[b] if b else np.zeros(len(free))
                try:
                    z[free] = np.linalg.solve(a, rhs)
                except np.linalg.LinAlgError:
                    continue
            if np.any(z - slack > 1e-11):
                continue
            lam = -(lap @ z)
            if b and np.any(lam[b] < -_KKT_TOL):
                continue
            return z, objective(z)
    raise RuntimeError("no KKT point found; dual oracle enumeration failed")

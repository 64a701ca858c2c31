"""Iterative reference solvers: ADMM and projected gradient, primal and dual.

These exist to benchmark the exact sweep, not to compete with it.  Each
solver is its update step, a generator, and :func:`_iterate` runs all four:
it stops once the error max_j |M_j - M*_j| against a supplied reference
(otherwise the max-abs change between successive iterates) reaches the
tolerance, and it records the trace.

The ancestry matrix is never inverted: its inverse is I minus the
closest-ancestor adjacency, so the dual quadratic is applied with a parent
difference followed by a child-sum subtraction, and the primal products use
per-depth batched path and subtree sums.  Each iteration applies each tree
operator once: the primal residual f - U m feeds both the objective and the
next gradient, and a dual iterate's parent difference d feeds the objective,
the mutant fractions (the child-sum subtraction of -d) and, in
:func:`pgd_dual`, the next gradient.  The ADMM solvers apply their
quadratic prox through a cached inverse of the SPD prox matrix, one dense
matrix-vector product per iteration.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tree import (RootedTree, _column, ancestor_sums, ancestry_matrix,
                   closest_ancestor_matrix)


@dataclass
class SolverConfig:
    """Tuning knobs shared by the iterative solvers."""

    rho: float = 1.0
    alpha: float = 1.0
    max_iters: int = 20000
    tol: float = 1e-8

    def __post_init__(self):
        # Written as "not > 0" so that NaN is rejected too.
        if not (self.rho > 0 and self.alpha > 0 and self.tol > 0):
            raise ValueError("rho, alpha and tol must all be positive")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class ConvergenceTrace:
    """Per-iteration error, objective, and elapsed wall time."""

    iterations: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    times: list = field(default_factory=list)
    converged: bool = False

    def record(self, it, error, objective, elapsed):
        self.iterations.append(it)
        self.errors.append(error)
        self.objectives.append(objective)
        self.times.append(elapsed)

    @property
    def final_error(self):
        return self.errors[-1] if self.errors else np.inf

    def _first(self, values, tol):
        return next((v for v, err in zip(values, self.errors) if err <= tol), None)

    def iterations_to(self, tol):
        """First iteration index at which the error reached ``tol``; None if never."""
        return self._first(self.iterations, tol)

    def time_to(self, tol):
        """Elapsed seconds when the error first reached ``tol``; None if never."""
        return self._first(self.times, tol)

    def write_csv(self, fileobj):
        fileobj.write("iteration,error,objective,elapsed-seconds\n")
        for it, err, obj, el in zip(self.iterations, self.errors,
                                    self.objectives, self.times):
            fileobj.write(f"{it},{err:.17g},{obj:.17g},{el:.17g}\n")


class TreeOps:
    """Matrix-free applications of the ancestry matrix and its inverse."""

    def __init__(self, tree: RootedTree):
        self.q = tree.q
        parent = np.array(tree.parent[1:], dtype=np.intp) - 1  # root -> -1
        self.parent_idx = parent
        self.nonroot = np.flatnonzero(parent >= 0)
        depth = np.zeros(tree.q, dtype=np.intp)
        for v in tree.bfs_order():
            if tree.parent[v]:
                depth[v - 1] = depth[tree.parent[v] - 1] + 1
        levels = []
        for d in range(1, int(depth.max()) + 1 if tree.q > 1 else 1):
            levels.append(np.flatnonzero(depth == d))
        self.levels = levels

    def ancestor_cumsum(self, x):
        """U^T x: sum of x over each node's ancestors and itself."""
        out = np.array(x, dtype=float)
        for lvl in self.levels:
            out[lvl] += out[self.parent_idx[lvl]]
        return out

    def subtree_sum(self, x):
        """U x: sum of x over each node's subtree."""
        out = np.array(x, dtype=float)
        for lvl in reversed(self.levels):
            np.add.at(out, self.parent_idx[lvl], out[lvl])
        return out

    def diff_parent(self, z):
        """(U^-1)^T z, i.e. z minus the parent's value (root keeps its own)."""
        out = np.array(z, dtype=float)
        nr = self.nonroot
        out[nr] -= z[self.parent_idx[nr]]
        return out

    def subtract_children(self, w):
        """U^-1 w, i.e. w minus the sum of the children's values."""
        out = np.array(w, dtype=float)
        nr = self.nonroot
        np.subtract.at(out, self.parent_idx[nr], w[nr])
        return out

    def gram_lmax(self):
        """Power-iteration estimate of the largest eigenvalue of U^T U."""
        return _power_lmax(lambda x: self.ancestor_cumsum(self.subtree_sum(x)), self.q)


def _power_lmax(apply, q):
    """60 steps of power iteration for the largest eigenvalue of the
    symmetric positive semidefinite operator ``apply`` on R^q, from a
    random start seeded with 0; 1.0 when the iterate vanishes."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(q)
    x /= np.linalg.norm(x)
    lam = 1.0
    for _ in range(60):
        y = apply(x)
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            return 1.0
        x = y / lam
    return lam


def simplex_project(v):
    """Euclidean projection onto {x >= 0, sum x = 1}.

    Sort-free threshold refinement: repeatedly average the surviving active
    set to propose a threshold and drop entries at or below it; terminates
    in at most n rounds with the exact threshold.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    active = v
    tau = (active.sum() - 1.0) / active.size
    while True:
        mask = active > tau
        kept = int(mask.sum())
        if kept == active.size:
            break
        active = active[mask]
        tau = (active.sum() - 1.0) / kept
    return np.maximum(v - tau, 0.0)


def polyhedron_project(a, b, n, return_stats=False):
    """Euclidean projection of (a, b) onto {(z, t): t*1 - z >= n}.

    Dual thresholding: sort the violations r = a + n - b, find the smallest
    sorted position whose suffix average certifies a nonnegative multiplier,
    and shift.  O(q log q), dominated by the single sort.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    n = np.asarray(n, dtype=float).reshape(-1)
    b = float(b)
    q = a.size
    r = a + n - b
    idx = np.argsort(r, kind="stable")
    rs = r[idx]
    suffix = np.cumsum(rs[::-1])[::-1]
    denom = 2.0 + q - np.arange(1, q + 1)
    c = rs - suffix / denom
    nonneg = np.flatnonzero(c >= 0.0)
    stats = {"sort_size": q, "scan_steps": q, "sorts": 1}
    if nonneg.size == 0:
        z, t = a.copy(), b
    else:
        tau = int(nonneg[0])
        lam_total = suffix[tau] / denom[tau]
        lam = np.zeros(q)
        lam[idx[tau:]] = rs[tau:] - lam_total
        z = a - lam
        t = b + lam_total
    if return_stats:
        return (z, t), stats
    return z, t


class _DivergenceGuard:
    """Raises once the objective has risen a fixed number of times in a row."""

    def __init__(self, patience=10):
        self.patience = patience
        self.prev = np.inf
        self.rising = 0

    def check(self, objective):
        if objective > self.prev:
            self.rising += 1
            if self.rising >= self.patience:
                raise RuntimeError(
                    f"objective rose for {self.patience} consecutive "
                    "iterations; the step size is too large, reduce alpha")
        else:
            self.rising = 0
        self.prev = objective


def _iterate(steps, m, cfg, reference_m, guard=None):
    """Run a solver from mutant fractions ``m`` until the error reaches
    ``cfg.tol`` or ``cfg.max_iters`` updates are done.

    ``steps`` yields ``(objective, result)`` after each update, the last
    entry of ``result`` being the new m.  The error is max |m - reference_m|,
    or the max change from the previous m without a reference.  Each
    objective goes to ``guard`` if one is given.  Returns ``(*result, trace)``.
    """
    trace = ConvergenceTrace()
    start = time.perf_counter()
    for it, (obj, result) in zip(range(1, cfg.max_iters + 1), steps):
        prev, m = m, result[-1]
        err = float(np.max(np.abs(m - (prev if reference_m is None else reference_m))))
        trace.record(it, err, obj, time.perf_counter() - start)
        if guard is not None:
            guard.check(obj)
        if err <= cfg.tol:
            trace.converged = True
            break
    return (*result, trace)


def admm_primal(tree: RootedTree, fhat_col, cfg: SolverConfig = None,
                reference_m=None):
    """Consensus ADMM on the primal projection: quadratic prox by a cached
    inverse of the SPD prox matrix, simplex prox, then averaging and dual
    ascent.

    Returns ``(m, trace)``; ``trace.converged`` is False if the iteration
    cap was hit before the tolerance.
    """
    cfg = cfg or SolverConfig()
    f = _column(fhat_col, tree.q)
    q = tree.q
    u = ancestry_matrix(tree).astype(float)
    rho, alpha = cfg.rho, cfg.alpha
    prox = np.linalg.inv(rho * np.eye(q) + u.T @ u)
    utf = u.T @ f

    def steps(m):
        u1 = np.zeros(q)
        u2 = np.zeros(q)
        while True:
            m1 = prox @ (rho * m - rho * u1 + utf)
            m2 = simplex_project(m - u2)
            m = 0.5 * (m1 + u1 + m2 + u2)
            u1 = u1 + alpha * (m1 - m)
            u2 = u2 + alpha * (m2 - m)
            yield float(np.linalg.norm(f - u @ m)), (m,)

    m = np.zeros(q)
    return _iterate(steps(m), m, cfg, reference_m)


def admm_dual(tree: RootedTree, fhat_col, cfg: SolverConfig = None,
              reference_m=None):
    """Three-way consensus ADMM on the dual: quadratic prox, linear-in-t
    prox, and the polyhedron projection.  Returns ``(z, t, m, trace)``."""
    cfg = cfg or SolverConfig()
    q = tree.q
    ops = TreeOps(tree)
    n = ancestor_sums(tree, fhat_col)
    rho, alpha = cfg.rho, cfg.alpha
    # U^-1 = I - T, with T the closest-ancestor adjacency; prox inverse cached.
    uinv = np.eye(q) - closest_ancestor_matrix(tree)
    prox = np.linalg.inv(rho * np.eye(q) + uinv @ uinv.T)

    def steps():
        z = np.zeros(q)
        t = 0.0
        u_z = np.zeros(q)
        u_gz = np.zeros(q)
        u_t = 0.0
        u_gt = 0.0
        while True:
            x_z = prox @ (rho * (z - u_z))
            x_t = (rho * t - rho * u_t - 1.0) / rho
            x_gz, x_gt = polyhedron_project(z - u_gz, t - u_gt, n)
            z = 0.5 * (x_z + u_z + x_gz + u_gz)
            u_z = u_z + alpha * (x_z - z)
            u_gz = u_gz + alpha * (x_gz - z)
            t = 0.5 * (x_t + u_t + x_gt + u_gt)
            u_t = u_t + alpha * (x_t - t)
            u_gt = u_gt + alpha * (x_gt - t)
            d = ops.diff_parent(z)
            yield t + 0.5 * float(np.sum(d ** 2)), (z, t, ops.subtract_children(-d))

    return _iterate(steps(), np.zeros(q), cfg, reference_m)


def default_step(ops: TreeOps, dual: bool = False) -> float:
    """Conservative gradient step: 0.99 over the largest eigenvalue of the
    primal Gram operator, or of the dual quadratic's operator if ``dual``."""
    return 0.99 / (_dual_lmax(ops) if dual else ops.gram_lmax())


def pgd_primal(tree: RootedTree, fhat_col, cfg: SolverConfig = None,
               reference_m=None):
    """Projected gradient on the primal: gradient step, simplex projection.

    Raises RuntimeError when the objective rises for 10 straight iterations,
    which signals a step size above the descent range.
    """
    f = _column(fhat_col, tree.q)
    ops = TreeOps(tree)
    if cfg is None:
        cfg = SolverConfig(alpha=default_step(ops))
    alpha = cfg.alpha

    def steps(m):
        residual = f - ops.subtree_sum(m)
        while True:
            m = simplex_project(m + alpha * ops.ancestor_cumsum(residual))
            residual = f - ops.subtree_sum(m)
            yield float(np.linalg.norm(residual)), (m,)

    m = simplex_project(np.zeros(tree.q))
    return _iterate(steps(m), m, cfg, reference_m, _DivergenceGuard())


def pgd_dual(tree: RootedTree, fhat_col, cfg: SolverConfig = None,
             reference_m=None):
    """Projected gradient on the dual: quadratic gradient via two sparse
    triangular applications, unit drift on t, polyhedron projection.

    Returns ``(z, t, m, trace)``.
    """
    ops = TreeOps(tree)
    n = ancestor_sums(tree, fhat_col)
    if cfg is None:
        # The dual quadratic's curvature is bounded by the Gram spectrum of
        # the inverse ancestry factor; estimate it the same way.
        cfg = SolverConfig(alpha=default_step(ops, dual=True))
    alpha = cfg.alpha

    def steps():
        z = np.zeros(tree.q)
        t = float(np.max(n))
        d = ops.diff_parent(z)
        while True:
            z = z - alpha * ops.subtract_children(d)
            t = t - alpha
            z, t = polyhedron_project(z, t, n)
            d = ops.diff_parent(z)
            yield t + 0.5 * float(np.sum(d ** 2)), (z, t, ops.subtract_children(-d))

    return _iterate(steps(), np.zeros(tree.q), cfg, reference_m, _DivergenceGuard())


def _dual_lmax(ops: TreeOps):
    """Power-iteration estimate of the largest eigenvalue of the dual
    quadratic's operator."""
    return _power_lmax(lambda x: ops.subtract_children(ops.diff_parent(x)), ops.q)


SOLVERS = {
    "admm-primal": admm_primal,
    "admm-dual": admm_dual,
    "pgd-primal": pgd_primal,
    "pgd-dual": pgd_dual,
}


def autotune(solver_id, tree: RootedTree, fhat_col, grid,
             reference_m=None, return_trace=False):
    """Pick the grid config reaching the config's tolerance in the fewest
    iterations on this instance; ties go to the earlier grid entry.

    If nothing converges, the config with the smallest final error is
    returned and a warning is emitted.  A grid point that raises, or whose
    final error is not finite, has diverged and is never picked.  With
    ``return_trace=True`` the winning probe's trace comes back too, saving a
    redundant re-run.
    """
    if solver_id not in SOLVERS:
        raise ValueError(f"unknown solver {solver_id!r}; choose from {sorted(SOLVERS)}")
    grid = list(grid)
    if not grid:
        raise ValueError("autotune grid is empty")
    runs = []
    for cfg in grid:
        try:
            trace = SOLVERS[solver_id](tree, fhat_col, cfg, reference_m=reference_m)[-1]
        except RuntimeError:
            continue
        if trace.final_error < np.inf:
            runs.append((cfg, trace))
    if not runs:
        raise RuntimeError(f"every {solver_id} grid point diverged")
    reached = [run for run in runs if run[1].converged]
    if reached:
        cfg, trace = min(reached, key=lambda run: run[1].iterations_to(run[0].tol))
    else:
        warnings.warn(f"autotune: no grid point converged for {solver_id}; "
                      "returning the best-effort config")
        cfg, trace = min(runs, key=lambda run: run[1].final_error)
    if return_trace:
        return cfg, trace
    return cfg

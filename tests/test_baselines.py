"""Tests for the projection primitives and iterative solvers."""

import io
import itertools

import numpy as np
import pytest

from ppmproj import (
    ConvergenceTrace,
    RootedTree,
    SolverConfig,
    admm_dual,
    admm_primal,
    ancestry_matrix,
    autotune,
    pgd_dual,
    pgd_primal,
    polyhedron_project,
    project,
    simplex_project,
)
from ppmproj.baselines import TreeOps
from ppmproj.generate import random_instance, random_labeled_tree


def chain(q):
    return RootedTree.from_parent_array([0] + list(range(1, q)))


def simplex_project_sorted(v):
    """Sort-based simplex projection; validation twin of simplex_project."""
    v = np.asarray(v, dtype=float).reshape(-1)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    valid = u > css / ks
    k = int(np.max(ks[valid]))
    tau = css[k - 1] / k
    return np.maximum(v - tau, 0.0)


def polyhedron_qp_oracle(a, b, n):
    """Active-set enumeration for min ||(z,t)-(a,b)||^2 s.t. t - z_i >= n_i.

    Independent of the sorting-based implementation: for every candidate
    active set S, pins t - z_i = n_i on S, solves the stationarity equation
    for t in closed form, and checks primal and dual feasibility.
    """
    a = np.asarray(a, dtype=float)
    n = np.asarray(n, dtype=float)
    q = a.size
    for size in range(q + 1):
        for s in itertools.combinations(range(q), size):
            s = list(s)
            t = (b + sum(n[i] + a[i] for i in s)) / (1.0 + len(s))
            z = a.copy()
            z[s] = t - n[s]
            lam = a - z  # multipliers on the active constraints
            if s and np.any(lam[s] < -1e-11):
                continue
            if np.any(t - z - n < -1e-11):
                continue
            return z, t
    raise RuntimeError("QP oracle found no KKT point")


class TestSimplexProject:
    def test_already_on_simplex(self):
        assert simplex_project([0.5, 0.5]) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_symmetry(self):
        assert simplex_project([1.0, 1.0]) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_threshold_case(self):
        assert simplex_project([2.0, 0.0]) == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_properties_and_sorted_twin(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            nlen = int(rng.integers(1, 40))
            v = rng.standard_normal(nlen) * float(rng.uniform(0.1, 10))
            x = simplex_project(v)
            assert np.all(x >= 0)
            assert x.sum() == pytest.approx(1.0, abs=1e-12)
            assert simplex_project(x) == pytest.approx(x, abs=1e-12)
            assert x == pytest.approx(simplex_project_sorted(v), abs=1e-12)


class TestPolyhedronProject:
    def test_feasible_point_unchanged(self):
        a = np.array([-1.0, -2.0])
        z, t = polyhedron_project(a, 0.5, np.array([0.0, 0.0]))
        assert z == pytest.approx(a, abs=0)
        assert t == 0.5

    def test_one_dimensional_kkt(self):
        z, t = polyhedron_project([1.0], 0.0, [0.0])
        assert z == pytest.approx([0.5], abs=1e-15)
        assert t == pytest.approx(0.5, abs=1e-15)

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(150):
            q = int(rng.integers(1, 13))
            a = rng.standard_normal(q) * 2
            b = float(rng.standard_normal())
            n = rng.standard_normal(q)
            z, t = polyhedron_project(a, b, n)
            z_ref, t_ref = polyhedron_qp_oracle(a, b, n)
            assert z == pytest.approx(z_ref, abs=1e-8)
            assert t == pytest.approx(t_ref, abs=1e-8)

    def test_kkt_residuals_and_idempotence(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = int(rng.integers(1, 30))
            a = rng.standard_normal(q)
            b = float(rng.standard_normal())
            n = rng.standard_normal(q)
            z, t = polyhedron_project(a, b, n)
            lam = a - z
            slack = t - z - n
            assert np.all(slack >= -1e-10)
            assert np.all(lam >= -1e-10)
            assert np.max(np.abs(lam * slack)) <= 1e-10
            assert t - b == pytest.approx(lam.sum(), abs=1e-10)
            z2, t2 = polyhedron_project(z, t, n)
            assert z2 == pytest.approx(z, abs=1e-10)
            assert t2 == pytest.approx(t, abs=1e-10)

    def test_operation_counters(self):
        rng = np.random.default_rng(3)
        for q in (10, 100, 1000):
            (z, t), stats = polyhedron_project(
                rng.standard_normal(q), 0.0, rng.standard_normal(q),
                return_stats=True)
            assert stats["sorts"] == 1
            assert stats["sort_size"] == q
            assert stats["scan_steps"] <= q


class TestTreeOps:
    def test_matches_dense_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            q = int(rng.integers(2, 40))
            tree = random_labeled_tree(q, rng)
            u = ancestry_matrix(tree).astype(float)
            ops = TreeOps(tree)
            x = rng.standard_normal(q)
            assert ops.subtree_sum(x) == pytest.approx(u @ x, abs=1e-10)
            assert ops.ancestor_cumsum(x) == pytest.approx(u.T @ x, abs=1e-10)
            uinv = np.linalg.inv(u)
            assert ops.subtract_children(x) == pytest.approx(uinv @ x, abs=1e-9)
            assert ops.diff_parent(x) == pytest.approx(uinv.T @ x, abs=1e-9)

    def test_gram_lmax_close_to_dense(self):
        rng = np.random.default_rng(5)
        tree = random_labeled_tree(25, rng)
        u = ancestry_matrix(tree).astype(float)
        exact = float(np.linalg.eigvalsh(u.T @ u).max())
        assert TreeOps(tree).gram_lmax() == pytest.approx(exact, rel=1e-3)

    def test_power_iterations_match_reference_loop(self):
        from ppmproj.baselines import _dual_lmax

        def reference(apply, q, iters=60, seed=0):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(q)
            x /= np.linalg.norm(x)
            lam = 1.0
            for _ in range(iters):
                y = apply(x)
                lam = float(np.linalg.norm(y))
                if lam == 0.0:
                    return 1.0
                x = y / lam
            return lam

        rng = np.random.default_rng(6)
        for q in (1, 2, 25, 200):
            ops = TreeOps(random_labeled_tree(q, rng))
            gram = reference(lambda x: ops.ancestor_cumsum(ops.subtree_sum(x)), q)
            dual = reference(lambda x: ops.subtract_children(ops.diff_parent(x)), q)
            assert ops.gram_lmax() == gram
            assert _dual_lmax(ops) == dual


CHAIN_CFG = SolverConfig(rho=1.0, alpha=1.0, max_iters=8000, tol=1e-9)


class TestSolversOnHandTrace:
    def test_admm_primal(self):
        m, trace = admm_primal(chain(2), [0.5, 0.7], CHAIN_CFG,
                               reference_m=np.array([0.3, 0.7]))
        assert trace.converged
        assert m == pytest.approx([0.3, 0.7], abs=1e-7)

    def test_admm_dual(self):
        z, t, m, trace = admm_dual(chain(2), [0.5, 0.7], CHAIN_CFG,
                                   reference_m=np.array([0.3, 0.7]))
        assert trace.converged
        assert t == pytest.approx(-0.5, abs=1e-6)
        assert m == pytest.approx([0.3, 0.7], abs=1e-7)

    def test_pgd_primal(self):
        m, trace = pgd_primal(chain(2), [0.5, 0.7],
                              reference_m=np.array([0.3, 0.7]))
        assert m == pytest.approx([0.3, 0.7], abs=1e-7)

    def test_pgd_dual(self):
        z, t, m, trace = pgd_dual(chain(2), [0.5, 0.7],
                                  reference_m=np.array([0.3, 0.7]))
        assert t == pytest.approx(-0.5, abs=1e-6)
        assert m == pytest.approx([0.3, 0.7], abs=1e-7)

    def test_pgd_dual_single_node(self):
        z, t, m, trace = pgd_dual(decode_single(), [0.4],
                                  reference_m=np.array([1.0]))
        assert t == pytest.approx(-0.6, abs=1e-6)

    def test_admm_dual_single_node(self):
        # With q=1 the recovered fraction hits the reference immediately, so
        # drive convergence on the successive-change metric to let t settle.
        cfg = SolverConfig(rho=1.0, alpha=1.0, max_iters=8000, tol=1e-12)
        z, t, m, trace = admm_dual(decode_single(), [0.4], cfg)
        assert t == pytest.approx(-0.6, abs=1e-9)
        assert m == pytest.approx([1.0], abs=1e-9)


def decode_single():
    return RootedTree.from_parent_array([0])


class TestSolversOnRandomInstances:
    def test_feasible_input_is_near_fixed_point(self):
        rng = np.random.default_rng(6)
        tree, fhat = random_instance(12, rng=rng, feasible=True)
        ref = project(tree, fhat[:, 0]).m_star
        m, trace = pgd_primal(tree, fhat[:, 0],
                              SolverConfig(alpha=0.02, max_iters=5000, tol=1e-7),
                              reference_m=ref)
        assert trace.converged

    def test_admm_feasible_input_error_vanishes(self):
        rng = np.random.default_rng(10)
        tree, fhat = random_instance(10, rng=rng, feasible=True)
        ref = project(tree, fhat[:, 0]).m_star
        m, trace = admm_primal(tree, fhat[:, 0],
                               SolverConfig(max_iters=10000, tol=1e-8),
                               reference_m=ref)
        assert trace.converged
        assert trace.final_error <= 1e-8

    def test_all_four_reach_1e6_at_q50(self):
        from ppmproj.baselines import _dual_lmax
        rng = np.random.default_rng(7)
        tree = random_labeled_tree(50, rng)
        f = rng.standard_normal(50)
        ref = project(tree, f).m_star
        cfg = SolverConfig(rho=1.0, alpha=1.0, max_iters=60000, tol=1e-6)
        m, tr = admm_primal(tree, f, cfg, reference_m=ref)
        assert tr.final_error <= 1e-6
        z, t, m, tr = admm_dual(tree, f, cfg, reference_m=ref)
        assert tr.final_error <= 1e-6
        m, tr = pgd_primal(tree, f, SolverConfig(alpha=0.9 / TreeOps(tree).gram_lmax(),
                                                 max_iters=60000, tol=1e-6),
                           reference_m=ref)
        assert tr.final_error <= 1e-6
        z, t, m, tr = pgd_dual(tree, f,
                               SolverConfig(alpha=0.99 / _dual_lmax(TreeOps(tree)),
                                            max_iters=60000, tol=1e-6),
                               reference_m=ref)
        assert tr.final_error <= 1e-6

    def test_pgd_dual_divergence_detection(self):
        # A step beyond the descent range makes the dual quadratic grow
        # geometrically, which the consecutive-rise guard must catch.
        rng = np.random.default_rng(8)
        tree = random_labeled_tree(20, rng)
        f = rng.standard_normal(20)
        with pytest.raises(RuntimeError, match="step size"):
            pgd_dual(tree, f, SolverConfig(alpha=2.0, max_iters=2000, tol=1e-9))

    def test_divergence_guard_counts_consecutive_rises(self):
        from ppmproj.baselines import _DivergenceGuard
        guard = _DivergenceGuard(patience=3)
        guard.check(1.0)
        guard.check(2.0)
        guard.check(1.5)  # reset
        guard.check(2.0)
        guard.check(2.5)
        with pytest.raises(RuntimeError, match="step size"):
            guard.check(3.0)

    def test_admm_primal_prox_solves_normal_equations(self):
        # From zero state one iteration averages the quadratic prox
        # A^-1 U^T f, A = rho I + U^T U, with the simplex prox of 0 (= 1/q).
        rng = np.random.default_rng(9)
        tree = random_labeled_tree(15, rng)
        f = rng.standard_normal(15)
        u = ancestry_matrix(tree).astype(float)
        rho = 1.3
        m, trace = admm_primal(tree, f, SolverConfig(rho=rho, max_iters=1))
        assert trace.iterations == [1]
        prox = np.linalg.solve(rho * np.eye(15) + u.T @ u, u.T @ f)
        assert np.max(np.abs(m - 0.5 * (prox + 1.0 / 15))) <= 1e-10


class TestAutotune:
    def test_grid_of_one(self):
        cfg = SolverConfig(rho=2.0, alpha=1.0, max_iters=2000, tol=1e-5)
        chosen = autotune("admm-primal", chain(2), [0.5, 0.7], [cfg],
                          reference_m=np.array([0.3, 0.7]))
        assert chosen is cfg

    def test_returned_config_minimizes_iterations(self):
        ref = np.array([0.3, 0.7])
        grid = [SolverConfig(rho=r, alpha=1.0, max_iters=4000, tol=1e-6)
                for r in (0.2, 1.0, 5.0)]
        chosen = autotune("admm-primal", chain(2), [0.5, 0.7], grid,
                          reference_m=ref)
        runs = {}
        for cfg in grid:
            _, tr = admm_primal(chain(2), [0.5, 0.7], cfg, reference_m=ref)
            runs[cfg.rho] = tr.iterations_to(cfg.tol)
        best = min(v for v in runs.values() if v is not None)
        assert runs[chosen.rho] == best

    def test_deterministic_first_in_grid_tiebreak(self):
        ref = np.array([0.3, 0.7])
        cfg_a = SolverConfig(rho=1.0, alpha=1.0, max_iters=3000, tol=1e-5)
        cfg_b = SolverConfig(rho=1.0, alpha=1.0, max_iters=3000, tol=1e-5)
        chosen = autotune("admm-primal", chain(2), [0.5, 0.7], [cfg_a, cfg_b],
                          reference_m=ref)
        assert chosen is cfg_a

    def test_no_convergence_warns_and_returns_best_effort(self):
        grid = [SolverConfig(rho=1.0, alpha=1.0, max_iters=3, tol=1e-14)]
        with pytest.warns(UserWarning, match="no grid point converged"):
            cfg = autotune("admm-primal", chain(2), [0.5, 0.7], grid,
                           reference_m=np.array([0.3, 0.7]))
        assert cfg is grid[0]

    def test_fallback_is_smallest_final_error_first_in_grid(self):
        ref = np.array([0.3, 0.7])
        grid = [SolverConfig(rho=r, alpha=1.0, max_iters=3, tol=1e-14)
                for r in (5.0, 1.0, 1.0, 0.2)]
        errors = [admm_primal(chain(2), [0.5, 0.7], cfg, reference_m=ref)[1].final_error
                  for cfg in grid]
        with pytest.warns(UserWarning, match="no grid point converged"):
            cfg = autotune("admm-primal", chain(2), [0.5, 0.7], grid, reference_m=ref)
        assert cfg is grid[errors.index(min(errors))]

    def test_diverging_points_are_skipped(self):
        from ppmproj.baselines import _dual_lmax
        rng = np.random.default_rng(8)
        tree = random_labeled_tree(20, rng)
        f = rng.standard_normal(20)
        diverging = SolverConfig(alpha=2.0, max_iters=2000, tol=1e-9)
        with pytest.raises(RuntimeError, match="every pgd-dual grid point diverged"):
            autotune("pgd-dual", tree, f, [diverging])
        step = SolverConfig(alpha=0.99 / _dual_lmax(TreeOps(tree)), max_iters=5000, tol=1e-5)
        cfg, trace = autotune("pgd-dual", tree, f, [diverging, step], return_trace=True)
        assert cfg is step
        assert trace.converged

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            autotune("newton", chain(2), [0.5, 0.7], [SolverConfig()])


class TestTraceExport:
    def test_first_reach_of_a_tolerance(self):
        trace = ConvergenceTrace()
        for it, (err, elapsed) in enumerate([(1.0, 0.1), (0.01, 0.2), (0.5, 0.3),
                                             (0.001, 0.4)], start=1):
            trace.record(it, err, 0.0, elapsed)
        assert (trace.iterations_to(0.05), trace.time_to(0.05)) == (2, 0.2)
        assert (trace.iterations_to(0.001), trace.time_to(0.001)) == (4, 0.4)
        assert (trace.iterations_to(1e-4), trace.time_to(1e-4)) == (None, None)

    def test_csv_schema(self):
        _, trace = admm_primal(chain(2), [0.5, 0.7],
                               SolverConfig(max_iters=5, tol=1e-15))
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "iteration,error,objective,elapsed-seconds"
        assert len(lines) == 6
        parts = lines[1].split(",")
        assert int(parts[0]) == 1
        float(parts[1]), float(parts[2]), float(parts[3])

    def test_times_non_decreasing(self):
        _, trace = admm_primal(chain(2), [0.5, 0.7],
                               SolverConfig(max_iters=50, tol=1e-15))
        assert all(b >= a for a, b in zip(trace.times, trace.times[1:]))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(rho=0.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        for field in ("rho", "alpha", "tol"):
            with pytest.raises(ValueError, match="must all be positive"):
                SolverConfig(**{field: float("nan")})

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_below_one_rejected(self, max_iters):
        # A run of no iterations has no iterate to return and no trace.
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            SolverConfig(max_iters=max_iters)
        for solver in (admm_primal, admm_dual, pgd_primal, pgd_dual):
            *_, trace = solver(chain(3), [0.9, 0.5, 0.2], SolverConfig(max_iters=1))
            assert trace.iterations == [1]

"""Tests for the path-following sweep, its active-set finish and the tree
elimination behind both: hand traces, closed forms, a dense Laplacian solve,
path invariants, the enumeration oracle and an O(q) KKT certificate."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmproj import (
    DegeneracyError,
    RootedTree,
    ancestor_sums,
    ancestry_matrix,
    compute_rates,
    decode_prufer,
    oracle_dual_at_t,
    oracle_project,
    project,
    project_matrix,
    recover_solution,
)
from ppmproj import projection
from ppmproj.generate import (
    GaltonWatsonSpec,
    galton_watson_tree,
    random_instance,
    random_labeled_tree,
)
from ppmproj.projection import _eliminate


def chain(q):
    return RootedTree.from_parent_array([0] + list(range(1, q)))


def kkt_residual(tree, fhat_col, res):
    """Largest KKT residual of a projection, as a share of its tolerance.

    With tau = 1e-10 * max(1, |n|_inf) for the ancestor sums n: m >= -tau,
    |sum(m) - 1| <= tau, f = U m, and mu = U^T (f - F) + lambda >= -tau with
    |mu . m| <= tau, lambda chosen so that mu vanishes at argmax m.
    """
    f = np.asarray(fhat_col, dtype=float)
    m, fstar = res.m_star, res.f_star
    tau = 1e-10 * max(1.0, float(np.max(np.abs(ancestor_sums(tree, f)))))
    subtree = m.copy()
    for v in reversed(tree.bfs_order()):
        if tree.parent[v]:
            subtree[tree.parent[v] - 1] += subtree[v - 1]
    g = ancestor_sums(tree, fstar - f)
    mu = g - g[int(np.argmax(m))]
    residuals = [
        max(0.0, -float(m.min())),
        abs(float(m.sum()) - 1.0),
        float(np.max(np.abs(fstar - subtree))),
        max(0.0, -float(mu.min())),
        abs(float(mu @ m)),
        abs(res.cost - float(np.linalg.norm(f - fstar))),
    ]
    return max(residuals) / tau


class TestHandTrace:
    """Chain on two nodes with frequencies (0.5, 0.7), traced by hand."""

    def test_final_values(self):
        res = project(chain(2), [0.5, 0.7])
        assert res.t_star == pytest.approx(-0.5, abs=1e-12)
        assert res.z_star == pytest.approx([-1.0, -1.7], abs=1e-12)
        assert res.f_star == pytest.approx([1.0, 0.7], abs=1e-12)
        assert res.m_star == pytest.approx([0.3, 0.7], abs=1e-12)
        assert res.cost == pytest.approx(0.5, abs=1e-12)

    def test_sweep_intermediates(self):
        res = project(chain(2), [0.5, 0.7], keep_path=True)
        s1, s2 = res.path
        assert s1.t == pytest.approx(1.2, abs=1e-12)
        assert s1.boundary == frozenset({2})
        assert s1.z_rate == pytest.approx([0.5, 1.0], abs=1e-12)
        assert s1.lsecond == pytest.approx(0.5, abs=1e-12)
        assert s2.t == pytest.approx(-0.2, abs=1e-12)
        assert s2.boundary == frozenset({1, 2})
        assert s2.lprime == pytest.approx(-0.7, abs=1e-12)
        assert s2.lsecond == pytest.approx(1.0, abs=1e-12)
        assert res.iterations == 2

    def test_single_node(self):
        res = project(decode_prufer((), 1), [0.4])
        assert res.m_star == pytest.approx([1.0], abs=1e-12)
        assert res.f_star == pytest.approx([1.0], abs=1e-12)
        assert res.t_star == pytest.approx(-0.6, abs=1e-12)
        assert res.cost == pytest.approx(0.6, abs=1e-12)

    def test_feasible_point_projects_to_itself(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = int(rng.integers(1, 9))
            tree, fhat = random_instance(q, p=1, rng=rng, feasible=True)
            res = project(tree, fhat[:, 0])
            assert res.cost <= 1e-9
            assert res.f_star == pytest.approx(fhat[:, 0], abs=1e-9)

    def test_sweep_segment_values(self):
        res = project(chain(2), [0.5, 0.7], keep_path=True)
        assert res.t_star == pytest.approx(-0.5, abs=1e-12)
        assert res.m_star == pytest.approx([0.3, 0.7], abs=1e-12)
        assert res.f_star == pytest.approx([1.0, 0.7], abs=1e-12)
        assert res.cost == pytest.approx(0.5, abs=1e-12)
        # Segment values: node 2 joins at t = 1.2, node 1 at t = -0.2.
        s1, s2 = res.path
        assert (s1.t, s2.t) == pytest.approx((1.2, -0.2), abs=1e-12)
        assert s1.z_rate == pytest.approx([0.5, 1.0], abs=1e-12)
        assert (s1.lprime, s1.lsecond) == pytest.approx((0.0, 0.5), abs=1e-12)
        assert (s2.lprime, s2.lsecond) == pytest.approx((-0.7, 1.0), abs=1e-12)
        assert s2.z == pytest.approx([-0.7, -1.4], abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            project(chain(2), [np.inf, 0.0])


class TestOracleAndCertificate:
    """``project`` held to the enumeration oracle at small q and to the
    O(q) KKT certificate at larger q."""

    def test_tiny_trees(self):
        for q, f in ((1, [0.4]), (2, [0.9, 0.2]), (2, [-0.3, 1.5])):
            tree = decode_prufer((), q)
            res = project(tree, f)
            orc = oracle_project(tree, f)
            assert res.m_star == pytest.approx(orc.m, abs=1e-12)
            assert res.cost == pytest.approx(orc.cost, abs=1e-12)

    def test_symmetric_ties(self):
        tree = RootedTree.from_parent_array([0, 1, 1])
        f = [0.1, 0.4, 0.4]
        res = project(tree, f)
        orc = oracle_project(tree, f)
        assert res.m_star == pytest.approx(orc.m, abs=1e-12)
        assert res.m_star[1] == res.m_star[2]

    def test_oracle_agreement_small_q(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            q = int(rng.integers(1, 11))
            tree, fhat = random_instance(q, rng=rng, feasible=bool(rng.integers(2)))
            f = fhat[:, 0] + 0.01 * rng.standard_normal(q)
            res = project(tree, f)
            orc = oracle_project(tree, f)
            assert np.max(np.abs(res.m_star - orc.m)) <= 1e-9
            assert abs(res.cost - orc.cost) <= 1e-9

    def test_thousand_random_q100_instances(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            tree = random_labeled_tree(100, rng)
            f = rng.standard_normal(100)
            worst = max(worst, kkt_residual(tree, f, project(tree, f)))
        assert worst <= 1.0

    def test_feasible_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = int(rng.integers(1, 12))
            tree, fhat = random_instance(q, rng=rng, feasible=True)
            res = project(tree, fhat[:, 0])
            assert res.cost <= 1e-9

    def test_galton_watson_shapes(self):
        rng = np.random.default_rng(2)
        for q in (2, 17, 130):
            tree = galton_watson_tree(GaltonWatsonSpec(q=q), rng=rng)
            f = rng.standard_normal(q)
            res = project(tree, f)
            assert kkt_residual(tree, f, res) <= 1.0
            assert res.iterations <= q
            feasible = random_instance(q, rng=rng, feasible=True, tree=tree)[1][:, 0]
            near = feasible + 0.01 / np.sqrt(q) * rng.standard_normal(q)
            assert kkt_residual(tree, near, project(tree, near)) <= 1.0


class TestProjectMatrix:
    def test_identical_columns(self):
        tree = chain(2)
        fhat = np.array([[0.5, 0.5], [0.7, 0.7]])
        results, total = project_matrix(tree, fhat)
        assert results[0].cost == results[1].cost == pytest.approx(0.5, abs=1e-12)
        assert results[0].m_star == pytest.approx(results[1].m_star, abs=0)
        assert total == pytest.approx(0.5 * np.sqrt(2), abs=1e-12)

    def test_single_column_matches_project(self):
        tree = chain(2)
        results, total = project_matrix(tree, np.array([[0.5], [0.7]]))
        assert total == pytest.approx(results[0].cost, abs=0)

    def test_columns_match_oracle(self):
        rng = np.random.default_rng(1)
        tree = random_labeled_tree(6, rng)
        fhat = rng.standard_normal((6, 3))
        results, total = project_matrix(tree, fhat)
        for s in range(3):
            orc = oracle_project(tree, fhat[:, s])
            assert results[s].m_star == pytest.approx(orc.m, abs=1e-9)
            assert results[s].cost == pytest.approx(orc.cost, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            project_matrix(chain(2), np.zeros((3, 1)))

    @pytest.mark.parametrize("scale", [1.4e154, 1e300])
    def test_costs_past_the_square_overflow_are_finite(self, scale):
        tree = RootedTree.from_parent_array([0, 1, 1, 2])
        f = scale * np.array([0.3, 0.5, 0.2, 0.9])
        res = project(tree, f)
        assert math.isfinite(res.cost)
        assert res.cost == math.hypot(*(f - res.f_star))
        results, total = project_matrix(tree, np.c_[f, 2.0 * f])
        assert math.isfinite(total)
        assert total == math.hypot(*(r.cost for r in results))

    def test_costs_at_ordinary_scale_are_root_sums_of_squares(self):
        rng = np.random.default_rng(3)
        tree = random_labeled_tree(7, rng)
        fhat = rng.standard_normal((7, 4))
        results, total = project_matrix(tree, fhat)
        assert total == math.sqrt(sum(r.cost ** 2 for r in results))
        for s, res in enumerate(results):
            assert res.cost == math.sqrt(sum(float(d) * float(d)
                                             for d in fhat[:, s] - res.f_star))


class TestNextCritical:
    """The next critical value: the largest crossing point below t of a free
    node's path line with its constraint line."""

    def test_chain_first_segment(self):
        # From t = 1.2 node 1 moves at slope 0.5 from z = 0 and meets its
        # constraint line t - 0.5 at t = (0.5 + 0 - 1.2 * 0.5) / 0.5 = -0.2.
        res = project(chain(2), [0.5, 0.7], keep_path=True)
        first, second = res.path
        assert first.z == pytest.approx([0.0, 0.0], abs=1e-12)
        assert second.t == pytest.approx(-0.2, abs=1e-12)
        assert second.boundary - first.boundary == frozenset({1})

    def test_symmetric_star_fixes_together(self):
        tree = RootedTree.from_parent_array([0, 1, 1])
        res = project(tree, [0.1, 0.4, 0.4], keep_path=True)
        for state in res.path:
            if {2, 3} & state.boundary:
                assert {2, 3} <= state.boundary
                break
        else:
            pytest.fail("children never entered the boundary")

    def test_all_unit_rates_no_candidate(self):
        # Once every node is on the boundary all slopes are 1, no line
        # crosses, and the sweep ends on the derivative test.
        res = project(chain(2), [0.5, 0.7], keep_path=True)
        last = res.path[-1]
        assert last.boundary == frozenset({1, 2})
        assert np.all(last.z_rate == 1.0)
        assert last.lprime + (res.t_star - last.t) * last.lsecond == \
            pytest.approx(-1.0, abs=1e-12)


class TestRecoverSolution:
    def test_chain_hand_values(self):
        m, f = recover_solution(chain(2), [-1.0, -1.7])
        assert f == pytest.approx([1.0, 0.7], abs=1e-15)
        assert m == pytest.approx([0.3, 0.7], abs=1e-15)

    def test_zero_map(self):
        m, f = recover_solution(chain(3), np.zeros(3))
        assert np.all(m == 0) and np.all(f == 0)

    def test_ancestry_consistency_on_random_sweeps(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = int(rng.integers(2, 10))
            tree = random_labeled_tree(q, rng)
            res = project(tree, rng.standard_normal(q))
            u = ancestry_matrix(tree).astype(float)
            assert u @ res.m_star == pytest.approx(res.f_star, abs=1e-10)
            # The sweep ends in the same recovery, so the bits agree.
            m, f = recover_solution(tree, res.z_star)
            assert (m.tolist(), f.tolist()) == (res.m_star.tolist(), res.f_star.tolist())


def random_boundary(rng, q):
    k = int(rng.integers(1, q + 1))
    return set(int(x) + 1 for x in rng.choice(q, size=k, replace=False))


def dense_solve(tree, boundary, held):
    """Node values by a dense solve of the free nodes' stationarity system.

    The values minimize the sum over edges of squared differences, the
    root's edge running to a zero anchor, with boundary node b held at
    ``held[b - 1]``: the free-node block of the weighted graph Laplacian
    against the pull of the boundary neighbours.
    """
    q = tree.q
    free = [v for v in range(1, q + 1) if v not in boundary]
    index = {v: i for i, v in enumerate(free)}
    lap = np.zeros((len(free), len(free)))
    rhs = np.zeros(len(free))
    for v in free:
        i = index[v]
        neighbours = list(tree.children[v])
        if tree.parent[v]:
            neighbours.append(tree.parent[v])
        lap[i, i] = len(tree.children[v]) + 1.0
        for w in neighbours:
            if w in boundary:
                rhs[i] += held[w - 1]
            else:
                lap[i, index[w]] -= 1.0
    values = np.array(held, dtype=float)
    if free:
        values[[v - 1 for v in free]] = np.linalg.solve(lap, rhs)
    return values


def dense_rates(tree, boundary):
    """Node slopes: the dense solve with every boundary node at slope 1."""
    return dense_solve(tree, boundary, np.ones(tree.q))


def curvature(tree, rates):
    return sum((rates[v - 1] - (rates[tree.parent[v] - 1] if tree.parent[v] else 0.0)) ** 2
               for v in range(1, tree.q + 1))


def slope_state(tree, fixed_nodes):
    """One elimination's slopes: (rate, s_arr, a_arr, lsecond), the lists
    1-indexed."""
    q = tree.q
    fixed = [False] * (q + 1)
    rate = [0.0] * (q + 1)
    for v in fixed_nodes:
        fixed[v] = True
        rate[v] = 1.0
    s_arr = [0.0] * (q + 1)
    a_arr = [0.0] * (q + 1)
    free_desc = [u for u in reversed(tree.bfs_order()) if not fixed[u]]
    _, lsecond = _eliminate(free_desc, tree.parent, tree.children, fixed,
                            [0.0] * (q + 1), 0.0, [0.0] * (q + 1), rate,
                            s_arr, a_arr)
    return rate, s_arr, a_arr, lsecond


class TestEliminateStarSolve:
    """The star step: a free node's slope averages its parent's and its
    reduced children's."""

    def test_equal_alphas_pass_through(self):
        # A free node whose parent and children all move at slope 1 takes
        # slope 1 itself.
        t = RootedTree.from_parent_array([0, 1, 2, 2, 2])
        rates, _ = compute_rates(t, {1, 3, 4, 5})
        assert rates[1] == pytest.approx(1.0, abs=1e-15)

    def test_chain_trace_values(self):
        # The hand trace's first segment: the root hangs from the zero
        # anchor with one unit-weight child on t - 1.2, so it moves on the
        # line 0.5 t - 0.6.
        rates, _ = compute_rates(chain(2), {2})
        assert rates[0] == pytest.approx(0.5, abs=1e-15)
        first = project(chain(2), [0.5, 0.7], keep_path=True).path[0]
        assert first.z_rate[0] == pytest.approx(0.5, abs=1e-15)
        intercept = first.z[0] - first.t * first.z_rate[0]
        assert intercept == pytest.approx(-0.6, abs=1e-15)


class TestEliminateReduce:
    """The reduction step: fixed and reduced children collapse into one line
    with a harmonic weight."""

    def test_single_child_line_passes_up(self):
        # A free node with one fixed child reduces to that child's line
        # (slope 1) at weight 1, which reaches its free parent at the
        # harmonic weight 1 / (1 + 1/1) = 1/2.
        tree = chain(3)
        rate, s_arr, a_arr, _ = slope_state(tree, {3})
        assert s_arr[2] == 1.0 and a_arr[2] == 1.0
        assert s_arr[1] == pytest.approx(0.5, abs=1e-15)
        assert a_arr[1] / s_arr[1] == pytest.approx(1.0, abs=1e-15)

    def test_identical_children_average_to_same_line(self):
        # r fixed children on the same line reduce to that line at weight r.
        for r in (2, 3, 5):
            tree = RootedTree.from_parent_array([0, 1] + [2] * r)
            _, s_arr, a_arr, _ = slope_state(tree, set(range(3, 3 + r)))
            assert s_arr[2] == r
            assert a_arr[2] / s_arr[2] == pytest.approx(1.0, rel=1e-14)

    def test_harmonic_weight_below_both_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gj = float(rng.uniform(0.1, 5.0))
            gs = rng.uniform(0.1, 5.0, size=int(rng.integers(1, 5)))
            combined = 1.0 / (1.0 / gj + 1.0 / gs.sum())
            assert combined < min(gj, gs.sum())


class TestEliminatePrune:
    """The pruning step: free subtrees without boundary nodes get weight 0
    and copy their parent's slope."""

    def test_free_chain_hanging_off_root_is_pruned(self):
        # Root 1 carries a free chain 2-3-4 plus a fixed child 5: the chain
        # contributes nothing and every node of it takes 1's rate.
        tree = RootedTree.from_parent_array([0, 1, 2, 3, 1])
        _, s_arr, _, _ = slope_state(tree, {5})
        assert s_arr[2] == s_arr[3] == s_arr[4] == 0.0
        rates, _ = compute_rates(tree, {5})
        assert rates[0] == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(rates[1:4], rates[0], atol=0)

    def test_no_free_leaves_is_identity(self):
        # A free node is pruned (weight 0) exactly when no boundary node
        # lies below it; with every leaf on the boundary, none is.
        rng = np.random.default_rng(8)
        for _ in range(30):
            q = int(rng.integers(2, 14))
            tree = random_labeled_tree(q, rng)
            boundary = random_boundary(rng, q)
            _, s_arr, _, _ = slope_state(tree, boundary)
            for v in range(1, q + 1):
                if v in boundary:
                    continue
                below = [w for w in range(1, q + 1)
                         if w != v and tree.is_ancestor(v, w)]
                assert (s_arr[v] > 0.0) == any(w in boundary for w in below)
            leaves = {v for v in range(1, q + 1) if not tree.children[v]}
            _, s_arr, _, _ = slope_state(tree, leaves)
            assert all(s_arr[v] > 0.0 for v in range(1, q + 1) if v not in leaves)

    def test_all_free_tree_prunes_to_root_with_zero_rate(self):
        tree = decode_prufer((2, 3, 1), 5)
        rate, s_arr, _, lsecond = slope_state(tree, set())
        assert all(s == 0.0 for s in s_arr)
        assert all(r == 0.0 for r in rate)
        assert lsecond == 0.0


class TestComputeRatesClosedForms:
    """Slopes of whole free components against closed forms."""

    def test_single_free_node_star(self):
        # The free root hangs from the zero anchor with r children fixed on
        # slope 1, unit weights.
        for r in (1, 2, 4):
            tree = RootedTree.from_parent_array([0] + [1] * r)
            rates, _ = compute_rates(tree, set(range(2, 2 + r)))
            assert rates[0] == pytest.approx(r / (r + 1.0), abs=1e-15)

    def test_two_free_chain_against_direct_solve(self):
        # Oracle first: the stationarity system for the two free values
        #   2 a = 0 + b,  2 b = a + 1
        # solved directly as a 2x2 linear system.
        sys_m = np.array([[2.0, -1.0], [-1.0, 2.0]])
        rhs = np.array([0.0, 1.0])
        direct = np.linalg.solve(sys_m, rhs)
        assert direct == pytest.approx([1.0 / 3.0, 2.0 / 3.0])

        rates, _ = compute_rates(chain(3), {3})
        assert rates[0] == pytest.approx(direct[0], abs=1e-14)
        assert rates[1] == pytest.approx(direct[1], abs=1e-14)

    def test_constant_alpha_gives_constant_rates(self):
        # Away from the zero anchor every neighbour line has slope 1, so a
        # free component below a boundary node moves at slope 1 throughout.
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(40):
            q = int(rng.integers(3, 10))
            tree = random_labeled_tree(q, rng)
            boundary = random_boundary(rng, q)
            rates, _ = compute_rates(tree, boundary)
            for v in range(1, q + 1):
                top = v
                while tree.parent[top] and tree.parent[top] not in boundary:
                    top = tree.parent[top]
                if v not in boundary and tree.parent[top]:
                    assert rates[v - 1] == pytest.approx(1.0, abs=1e-12)
                    checked += 1
        assert checked > 20


class TestComputeRates:
    def test_chain_boundary_two(self):
        rates, lsecond = compute_rates(chain(2), {2})
        assert rates == pytest.approx([0.5, 1.0], abs=1e-15)
        assert lsecond == pytest.approx(0.5, abs=1e-15)

    def test_all_fixed(self):
        t = decode_prufer((2, 4), 4)
        rates, lsecond = compute_rates(t, {1, 2, 3, 4})
        assert np.all(rates == 1.0)
        assert lsecond == pytest.approx(1.0, abs=1e-15)

    def test_star_two_fixed_leaves(self):
        t = RootedTree.from_parent_array([0, 1, 1])
        rates, lsecond = compute_rates(t, {2, 3})
        assert rates[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert lsecond == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_empty_boundary_rejected(self):
        with pytest.raises(ValueError):
            compute_rates(chain(3), set())
        for label in (0, 4):
            with pytest.raises(ValueError, match="1..3"):
                compute_rates(chain(3), {2, label})

    def test_non_integral_label_rejected(self):
        with pytest.raises(ValueError, match="2.5"):
            compute_rates(chain(3), {2.5})
        rates, lsecond = compute_rates(chain(3), {2.0})
        assert rates.tolist() == compute_rates(chain(3), {2})[0].tolist()
        assert lsecond == compute_rates(chain(3), {2})[1]

    def test_rates_within_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            q = int(rng.integers(2, 15))
            t = random_labeled_tree(q, rng)
            boundary = random_boundary(rng, q)
            rates, lsecond = compute_rates(t, boundary)
            assert np.all(rates >= -1e-15)
            assert np.all(rates <= 1.0 + 1e-15)
            assert lsecond > 0

    def test_matches_dense_laplacian_solve(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            q = int(rng.integers(2, 40))
            t = random_labeled_tree(q, rng)
            boundary = random_boundary(rng, q)
            rates, lsecond = compute_rates(t, boundary)
            assert rates == pytest.approx(dense_rates(t, boundary), abs=1e-12)
            assert lsecond == pytest.approx(curvature(t, rates), rel=1e-12)
            assert lsecond > 0

            # The values at a point of the path: boundary nodes on t - n.
            n = rng.standard_normal(q)
            at = float(rng.standard_normal())
            fixed = [False] + [v in boundary for v in range(1, q + 1)]
            z, rate = [0.0] * (q + 1), [0.0] * (q + 1)
            free_desc = [u for u in reversed(t.bfs_order()) if not fixed[u]]
            lprime, lpp = _eliminate(free_desc, t.parent, t.children, fixed,
                                     [0.0] + n.tolist(), at, z, rate,
                                     [0.0] * (q + 1), [0.0] * (q + 1))
            values = dense_solve(t, boundary, at - n)
            free = [v for v in range(1, q + 1) if v not in boundary]
            assert [z[v] for v in free] == pytest.approx(
                [values[v - 1] for v in free], abs=1e-12)
            assert lprime == pytest.approx(values[0], abs=1e-12)
            assert lpp == pytest.approx(lsecond, rel=1e-12)
            # L'(t) = z[1](t) and L'' = rate[1] for the inner dual L, half
            # the sum of squared value gaps, which is quadratic in t on a
            # fixed boundary set, so central differences are exact.
            lo, mid, hi = (0.5 * curvature(t, dense_solve(t, boundary, x - n))
                           for x in (at - 0.5, at, at + 0.5))
            assert lprime == pytest.approx(hi - lo, rel=1e-9, abs=1e-9)
            assert lpp == pytest.approx(4.0 * (hi - 2.0 * mid + lo), rel=1e-9, abs=1e-9)

    def test_edges_touched_linear_per_call(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = int(rng.integers(5, 60))
            t = random_labeled_tree(q, rng)
            boundary = random_boundary(rng, q)
            counters = {}
            compute_rates(t, boundary, counters=counters)
            assert counters.get("edges_touched", 0) <= 6 * q
            assert counters.get("nodes_visited", 0) <= 2 * q
            free = q - len(boundary)
            assert counters["star_ops"] == counters["nodes_visited"] == free
            assert counters["components"] + counters["reduce_ops"] == free


def _path_segments(path):
    return list(zip(path[:-1], path[1:]))


def _assert_path_invariants(path, n):
    """Monotone boundary, L' and t along the path; slopes in [0, 1]; the
    boundary on its lines t - n at slope 1, every node on or below its own."""
    for a, b in _path_segments(path):
        assert a.boundary <= b.boundary
        assert a.lprime >= b.lprime - 1e-12
        assert b.t < a.t
    for state in path:
        assert np.all(state.z_rate >= -1e-12)
        assert np.all(state.z_rate <= 1.0 + 1e-12)
        for j in state.boundary:
            assert state.z[j - 1] == pytest.approx(state.t - n[j - 1], abs=1e-10)
            assert state.z_rate[j - 1] == 1.0
        assert np.all(state.z <= state.t - n + 1e-10)


class TestPathProperties:
    """Path-structure property suite on random instances."""

    def _random_case(self, rng, qmax=12):
        q = int(rng.integers(1, qmax + 1))
        tree = random_labeled_tree(q, rng)
        f = rng.standard_normal(q)
        return tree, f

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tree, f = self._random_case(rng)
            q = tree.q
            n = ancestor_sums(tree, f)
            res = project(tree, f, keep_path=True)

            assert res.iterations <= q
            assert 1 <= len(res.path) <= q
            _assert_path_invariants(res.path, n)

            # Feasibility and optimality certificate of the output.
            assert np.all(res.m_star >= -1e-10)
            assert abs(res.m_star.sum() - 1.0) <= 1e-10
            u = ancestry_matrix(tree).astype(float)
            assert np.max(np.abs(u @ res.m_star - res.f_star)) <= 1e-10
            last = res.path[-1]
            lprime_at_tstar = last.lprime + (res.t_star - last.t) * last.lsecond
            assert lprime_at_tstar == pytest.approx(-1.0, abs=1e-10)

    def test_mid_segment_linearity_matches_dual_oracle(self):
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(40):
            tree, f = self._random_case(rng, qmax=9)
            n = ancestor_sums(tree, f)
            res = project(tree, f, keep_path=True)
            for a, b in _path_segments(res.path):
                t_mid = 0.5 * (a.t + b.t)
                z_line = a.z + (t_mid - a.t) * a.z_rate
                z_oracle, _ = oracle_dual_at_t(tree, n, t_mid)
                assert np.max(np.abs(z_line - z_oracle)) <= 1e-9
                checked += 1
        assert checked > 20

    def test_continuity_under_perturbation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tree, f = self._random_case(rng, qmax=10)
            base = project(tree, f).m_star
            for delta in (1e-7, 1e-5):
                shift = project(tree, f + delta * rng.standard_normal(tree.q)).m_star
                assert np.max(np.abs(shift - base)) <= 100 * delta

    def test_rate_recomputations_bounded_by_q(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            tree, f = self._random_case(rng)
            counters = {}
            res = project(tree, f, counters=counters)
            assert res.rate_recomputations <= tree.q
            assert counters.get("edges_touched", 0) <= 6 * tree.q * res.iterations


def _subtree_sums(tree, m):
    """F = U m in O(q), without the dense ancestry matrix."""
    total = np.array(m, dtype=float)
    for v in reversed(tree.bfs_order()):
        if tree.parent[v]:
            total[tree.parent[v] - 1] += total[v - 1]
    return total


def _near_feasible(tree, rng, noise=0.01):
    """U m for flat Dirichlet fractions m, plus noise / sqrt(q) N(0, 1)."""
    q = tree.q
    return (_subtree_sums(tree, rng.dirichlet(np.ones(q)))
            + noise / np.sqrt(q) * rng.standard_normal(q))


def _column(kind, tree, rng):
    if kind == "normal":
        return rng.standard_normal(tree.q)
    if kind == "tiny-normal":
        return 1e-8 * rng.standard_normal(tree.q)
    near = _near_feasible(tree, rng)
    if kind == "quantized":
        # Steps of 1/20 tie many ancestor sums exactly.
        return np.round(near * 20.0) / 20.0
    return {"near": 1.0, "tiny": 1e-8, "huge": 1e6}[kind] * near


SHAPES = ("chain", "star", "galton-watson", "prufer")


def _tree(shape, q, rng):
    if shape == "chain":
        return chain(q)
    if shape == "star":
        return RootedTree.from_parent_array([0] + [1] * (q - 1))
    if shape == "galton-watson":
        return galton_watson_tree(GaltonWatsonSpec(q=q), rng=rng)
    return random_labeled_tree(q, rng)


@pytest.fixture
def finishes(monkeypatch):
    """Pass counts of every active-set finish run, None for one that did
    not certify."""
    seen = []
    real = projection._active_set

    def spy(*args, **kwargs):
        done = real(*args, **kwargs)
        seen.append(None if done is None else done[2])
        return done

    monkeypatch.setattr(projection, "_active_set", spy)
    return seen


def _plain(tree, f, **kw):
    """``project`` with a finish that never certifies, so the sweep resumes
    and runs to the end: the plain sweep.  The ``finishes`` spy is swapped
    out too, so it does not see these calls."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_active_set", lambda *a, **k: None)
        return project(tree, f, **kw)


class TestActiveSetFinish:
    """``project`` hands a column to the active-set finish once the sweep's
    forecast of the nodes about to join holds steady, with more than
    2 ceil(log2 q) nodes free, and in any case once the column outlasts
    ceil(log2 q) sweep segments with more nodes than that still free; also
    with ``keep_path=True``.  The plain sweep that the finish is checked
    against is the finish's own fallback, reached through :func:`_plain`."""

    @staticmethod
    def _agree(tree, f):
        """The finish and the plain sweep agree within 1e-9 max(1, |n|_inf)
        and the finish's answer passes the KKT certificate."""
        tau = 1e-9 * max(1.0, float(np.max(np.abs(ancestor_sums(tree, f)))))
        counters = {}
        res = project(tree, f, counters=counters)
        plain = _plain(tree, f)
        assert np.max(np.abs(res.m_star - plain.m_star)) <= tau
        assert np.max(np.abs(res.f_star - plain.f_star)) <= tau
        assert abs(res.cost - plain.cost) <= tau
        assert kkt_residual(tree, f, res) <= 1.0
        assert res.rate_recomputations == res.iterations
        assert counters["edges_touched"] <= 6 * tree.q * res.iterations

    @pytest.mark.parametrize("kind", ["near", "normal", "quantized", "huge"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_agrees_with_plain_sweep(self, shape, kind, finishes):
        rng = np.random.default_rng([SHAPES.index(shape), len(kind)])
        for q in (40, 300, 1000):
            tree = _tree(shape, q, rng)
            self._agree(tree, _column(kind, tree, rng))
        assert None not in finishes
        if kind == "near":
            assert len(finishes) == 3 and max(finishes) <= 10

    @pytest.mark.parametrize("shape", SHAPES)
    def test_agrees_with_plain_sweep_at_q3000(self, shape, finishes):
        rng = np.random.default_rng([3000, SHAPES.index(shape)])
        tree = _tree(shape, 3000, rng)
        self._agree(tree, _near_feasible(tree, rng))
        assert len(finishes) == 1 and finishes[0] <= 10

    @pytest.mark.parametrize("shape", ["prufer", "chain"])
    def test_quantized_agrees_with_plain_sweep_at_q3000(self, shape, finishes):
        # Steps of 1/20 tie many ancestor sums, and the finish can take tens
        # of passes on such columns; its answer is checked, not their number.
        rng = np.random.default_rng([3000, 20, SHAPES.index(shape)])
        for _ in range(3):
            tree = _tree(shape, 3000, rng)
            self._agree(tree, _column("quantized", tree, rng))
        assert len(finishes) == 3 and None not in finishes

    @pytest.mark.parametrize("shape", SHAPES)
    def test_small_scale_is_certified(self, shape, finishes):
        # At scale 1e-8 the plain sweep groups events within its tie
        # tolerance of 1e-9 and can miss this certificate (ROADMAP item 3),
        # so a finished column is held to the certificate, and to the sweep
        # only where the sweep passes it too.
        rng = np.random.default_rng([8, SHAPES.index(shape)])
        finished = 0
        for q in (40, 300, 1000):
            for kind in ("tiny", "tiny-normal"):
                tree = _tree(shape, q, rng)
                f = _column(kind, tree, rng)
                del finishes[:]
                res = project(tree, f)
                if not finishes:
                    continue
                finished += 1
                assert None not in finishes
                assert kkt_residual(tree, f, res) <= 1.0
                plain = _plain(tree, f)
                if kkt_residual(tree, f, plain) <= 1.0:
                    assert np.max(np.abs(res.m_star - plain.m_star)) <= 1e-9
                    assert abs(res.cost - plain.cost) <= 1e-9
        assert finished >= 2

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), q=st.integers(1, 10),
           noise=st.sampled_from([0.0, 1e-3, 0.01, 0.1]))
    def test_matches_oracle_from_any_start_set(self, data, q, noise):
        code = data.draw(st.lists(st.integers(1, q), min_size=max(q - 2, 0),
                                  max_size=max(q - 2, 0)))
        tree = decode_prufer(code, q)
        # Small integer weights give zero fractions and tied sums.
        weights = np.array(data.draw(st.lists(st.integers(0, 4), min_size=q,
                                              max_size=q)), dtype=float)
        weights[0] += weights.sum() == 0
        shift = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=q, max_size=q))
        f = _subtree_sums(tree, weights / weights.sum()) + noise * np.array(shift)
        start = data.draw(st.lists(st.booleans(), min_size=q, max_size=q).filter(any))

        fixed = [False] + start
        n = [0.0] + ancestor_sums(tree, f).tolist()
        done = projection._active_set(tree, n, fixed)
        assert fixed == [False] + start
        assert done is not None
        t_star, z, passes = done
        assert passes <= q + 1
        m, f_star = recover_solution(tree, z[1:])
        orc = oracle_project(tree, f)
        assert np.max(np.abs(m - orc.m)) <= 1e-9
        assert abs(np.linalg.norm(f - f_star) - orc.cost) <= 1e-9

    def test_small_trees_stay_on_the_sweep(self, finishes):
        # Below q = 11 no column outlasts the switch with enough nodes
        # free, so the search's re-scores are the plain sweep's numbers.
        rng = np.random.default_rng(11)
        for _ in range(300):
            q = int(rng.integers(1, 11))
            tree = random_labeled_tree(q, rng)
            f = _near_feasible(tree, rng)
            res, plain = project(tree, f), _plain(tree, f, keep_path=True)
            assert res.m_star.tolist() == plain.m_star.tolist()
            assert res.cost == plain.cost
            assert res.iterations == len(plain.path)
        assert finishes == []

    @pytest.mark.parametrize("q", [300, 3000])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_keep_path_records_the_run(self, shape, q, finishes):
        # keep_path and counters only watch: the traced column runs the same
        # finish to the same bits, and its path ends at the handover.
        rng = np.random.default_rng([q, 7, SHAPES.index(shape)])
        tree = _tree(shape, q, rng)
        f = _near_feasible(tree, rng)
        res = project(tree, f)
        counted, traced = {}, {}
        project(tree, f, counters=counted)
        watched = project(tree, f, keep_path=True, counters=traced)
        assert watched.m_star.tolist() == res.m_star.tolist()
        assert watched.f_star.tolist() == res.f_star.tolist()
        assert (watched.t_star, watched.cost, watched.iterations) == \
            (res.t_star, res.cost, res.iterations)
        assert traced == counted
        assert len(finishes) == 3 and None not in finishes

        assert 1 <= len(watched.path) <= 3
        _assert_path_invariants(watched.path, ancestor_sums(tree, f))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_normal_columns_finish_only_through_the_backstop(self, shape, finishes):
        # On N(0, 1) columns the forecast does not hold steady, so a column
        # reaches the finish, if at all, past ceil(log2 q) segments.
        q = 2000
        rng = np.random.default_rng([q, 1, SHAPES.index(shape)])
        for _ in range(4):
            tree = _tree(shape, q, rng)
            del finishes[:]
            res = project(tree, _column("normal", tree, rng), keep_path=True)
            if finishes:
                assert len(res.path) > math.ceil(math.log2(q))

    @pytest.mark.parametrize("noise", [1e-3, 0.01, 0.1, 1.0, "quantized"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_noise_sweep_is_capped_by_the_backstop(self, shape, noise, finishes):
        # From nearly feasible to N(0, 1)-like columns, and with ties: every
        # answer agrees with the plain sweep, and a column whose forecast
        # never holds steady still hands over at the backstop.
        q = 1000
        rng = np.random.default_rng([q, 2, SHAPES.index(shape)])
        tree = _tree(shape, q, rng)
        if noise == "quantized":
            f = _column("quantized", tree, rng)
        else:
            f = _near_feasible(tree, rng, noise)
        self._agree(tree, f)
        res = project(tree, f, keep_path=True)
        assert len(res.path) <= math.ceil(math.log2(q)) + 1
        assert None not in finishes

    def test_uncertified_finish_resumes_the_sweep(self, monkeypatch):
        real = projection._active_set
        calls = []

        def no_certificate(tree, n, fixed, counters=None):
            before = list(fixed)
            assert real(tree, n, fixed, counters) is not None
            assert fixed == before
            calls.append(tree.q)
            return None

        monkeypatch.setattr(projection, "_active_set", no_certificate)
        rng = np.random.default_rng(12)
        tree = galton_watson_tree(GaltonWatsonSpec(q=300), rng=rng)
        f = _near_feasible(tree, rng)
        res = project(tree, f)
        plain = _plain(tree, f, keep_path=True)
        assert calls == [300]
        assert res.m_star.tolist() == plain.m_star.tolist()
        assert (res.t_star, res.cost) == (plain.t_star, plain.cost)
        assert res.iterations == len(plain.path) + 301

    def test_vanishing_curvature_raises(self, monkeypatch):
        real = projection._active_set
        calls = []

        def entered(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(projection, "_active_set", entered)
        monkeypatch.setattr(projection, "LSECOND_GUARD", 1e6)
        rng = np.random.default_rng(13)
        tree = random_labeled_tree(300, rng)
        f = _near_feasible(tree, rng)
        with pytest.raises(DegeneracyError):
            project(tree, f)
        assert calls == [1]
        with pytest.raises(DegeneracyError):
            _plain(tree, f)


def test_mass_sums_to_one_at_small_scale():
    """The sweep solves z[1](t*) = -1 directly and sum(m) = -z[1], so the
    fractions sum to 1 to rounding, also where the tie tolerance is coarse
    against the data."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = int(rng.integers(2, 11))
        tree = random_labeled_tree(q, rng)
        res = project(tree, 1e-8 * rng.standard_normal(q))
        assert abs(res.m_star.sum() - 1.0) <= 1e-14


def test_near_feasible_scaling_slope():
    """ROADMAP item 2's gate, next to criterion 5: near-feasible columns on
    branching trees cost about O(q), log-log slope < 1.5 over q = 300..3000."""
    sizes = [300, 1000, 3000]
    trials = [20, 8, 4]
    means = []
    for size, reps in zip(sizes, trials):
        rng = np.random.default_rng(205 + size)
        total = 0.0
        for _ in range(reps):
            tree = galton_watson_tree(GaltonWatsonSpec(q=size), rng=rng)
            f = _near_feasible(tree, rng)
            t0 = time.perf_counter()
            project(tree, f)
            total += time.perf_counter() - t0
        means.append(total / reps)
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    assert slope < 1.5, (slope, means)

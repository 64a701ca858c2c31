"""Tests for the path-following sweep: fixtures, invariants, oracle checks."""

import numpy as np
import pytest

from ppmproj import (
    RootedTree,
    ancestor_sums,
    ancestry_matrix,
    decode_prufer,
    oracle_dual_at_t,
    oracle_project,
    project,
    project_matrix,
    recover_solution,
)
from ppmproj.generate import random_instance, random_labeled_tree


def chain(q):
    return RootedTree.from_parent_array([0] + list(range(1, q)))


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

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            project(chain(2), [np.inf, 0.0])


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


def _path_segments(path):
    return list(zip(path[:-1], path[1:]))


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

            for a, b in _path_segments(res.path):
                assert a.boundary <= b.boundary
                assert a.lprime >= b.lprime - 1e-12
                assert b.t < a.t

            for state in res.path:
                assert np.all(state.z_rate >= -1e-12)
                assert np.all(state.z_rate <= 1.0 + 1e-12)
                for j in state.boundary:
                    assert state.z[j - 1] == pytest.approx(
                        state.t - n[j - 1], abs=1e-10)
                    assert state.z_rate[j - 1] == 1.0
                assert np.all(state.z <= state.t - n + 1e-10)

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

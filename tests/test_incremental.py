"""``project_incremental``, the name kept for ``project``, held to the
enumeration oracle at small q and to an O(q) KKT certificate at larger q."""

import numpy as np
import pytest

from ppmproj import (
    RootedTree,
    ancestor_sums,
    decode_prufer,
    oracle_project,
    project_incremental,
)
from ppmproj.generate import (
    GaltonWatsonSpec,
    galton_watson_tree,
    random_instance,
    random_labeled_tree,
)


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


class TestAgainstPlainSweep:
    """Judges independent of the sweep: hand values, the oracle and the
    KKT certificate."""

    def test_hand_trace(self):
        res = project_incremental(chain(2), [0.5, 0.7], keep_path=True)
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

    def test_tiny_trees(self):
        for q, f in ((1, [0.4]), (2, [0.9, 0.2]), (2, [-0.3, 1.5])):
            tree = decode_prufer((), q)
            res = project_incremental(tree, f)
            orc = oracle_project(tree, f)
            assert res.m_star == pytest.approx(orc.m, abs=1e-12)
            assert res.cost == pytest.approx(orc.cost, abs=1e-12)

    def test_symmetric_ties(self):
        tree = RootedTree.from_parent_array([0, 1, 1])
        f = [0.1, 0.4, 0.4]
        res = project_incremental(tree, f)
        orc = oracle_project(tree, f)
        assert res.m_star == pytest.approx(orc.m, abs=1e-12)
        assert res.m_star[1] == res.m_star[2]

    def test_feasible_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = int(rng.integers(1, 12))
            tree, fhat = random_instance(q, rng=rng, feasible=True)
            res = project_incremental(tree, fhat[:, 0])
            assert res.cost <= 1e-9

    def test_oracle_agreement_small_q(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            q = int(rng.integers(1, 11))
            tree, fhat = random_instance(q, rng=rng, feasible=bool(rng.integers(2)))
            f = fhat[:, 0] + 0.01 * rng.standard_normal(q)
            res = project_incremental(tree, f)
            orc = oracle_project(tree, f)
            assert np.max(np.abs(res.m_star - orc.m)) <= 1e-9
            assert abs(res.cost - orc.cost) <= 1e-9

    def test_thousand_random_q100_instances(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            tree = random_labeled_tree(100, rng)
            f = rng.standard_normal(100)
            worst = max(worst, kkt_residual(tree, f, project_incremental(tree, f)))
        assert worst <= 1.0

    def test_galton_watson_shapes(self):
        rng = np.random.default_rng(2)
        for q in (2, 17, 130):
            tree = galton_watson_tree(GaltonWatsonSpec(q=q), rng=rng)
            f = rng.standard_normal(q)
            res = project_incremental(tree, f)
            assert kkt_residual(tree, f, res) <= 1.0
            assert res.iterations <= q
            feasible = random_instance(q, rng=rng, feasible=True, tree=tree)[1][:, 0]
            near = feasible + 0.01 / np.sqrt(q) * rng.standard_normal(q)
            assert kkt_residual(tree, near, project_incremental(tree, near)) <= 1.0

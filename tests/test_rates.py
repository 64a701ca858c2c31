"""Tests for the segment slopes and values: ``compute_rates`` and the
two-pass elimination behind it, checked against closed forms and a dense
Laplacian solve."""

import numpy as np
import pytest

from ppmproj import RootedTree, compute_rates, decode_prufer
from ppmproj.projection import _eliminate


def chain(q):
    return RootedTree.from_parent_array([0] + list(range(1, q)))


def random_tree(rng, q):
    return decode_prufer(rng.integers(1, q + 1, size=max(q - 2, 0)), q)


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


class TestStarSolve:
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
        from ppmproj import project
        rates, _ = compute_rates(chain(2), {2})
        assert rates[0] == pytest.approx(0.5, abs=1e-15)
        first = project(chain(2), [0.5, 0.7], keep_path=True).path[0]
        assert first.z_rate[0] == pytest.approx(0.5, abs=1e-15)
        intercept = first.z[0] - first.t * first.z_rate[0]
        assert intercept == pytest.approx(-0.6, abs=1e-15)


class TestReduceNode:
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


class TestPruneFreeLeaves:
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
            tree = random_tree(rng, q)
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


class TestComputeRatesRec:
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
            tree = random_tree(rng, q)
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

    def test_rates_within_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            q = int(rng.integers(2, 15))
            t = random_tree(rng, q)
            boundary = random_boundary(rng, q)
            rates, lsecond = compute_rates(t, boundary)
            assert np.all(rates >= -1e-15)
            assert np.all(rates <= 1.0 + 1e-15)
            assert lsecond > 0

    def test_matches_dense_laplacian_solve(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            q = int(rng.integers(2, 40))
            t = random_tree(rng, q)
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
            t = random_tree(rng, q)
            boundary = random_boundary(rng, q)
            counters = {}
            compute_rates(t, boundary, counters=counters)
            assert counters.get("edges_touched", 0) <= 6 * q
            assert counters.get("nodes_visited", 0) <= 2 * q
            free = q - len(boundary)
            assert counters["star_ops"] == counters["nodes_visited"] == free
            assert counters["components"] + counters["reduce_ops"] == free

"""Tests for rooted trees, Prüfer codes, ancestor sums, ancestry matrices,
and the frequency-column check every solver entry point shares."""

import itertools

import numpy as np
import pytest

from ppmproj import (
    GaltonWatsonSpec,
    RootedTree,
    SolverConfig,
    TreeInputError,
    admm_dual,
    admm_primal,
    ancestor_sums,
    ancestry_matrix,
    closest_ancestor_matrix,
    count_trees,
    decode_prufer,
    encode_prufer,
    galton_watson_tree,
    oracle_dual_at_t,
    oracle_project,
    pgd_dual,
    pgd_primal,
    project,
)
from ppmproj.tree import _tree_from_parent


def chain(q):
    return RootedTree.from_parent_array([0] + list(range(1, q)))


def reference_encode(tree):
    """Textbook O(q^2) Prüfer encode: strip the smallest leaf, emit its
    neighbour, q-2 times."""
    q = tree.q
    adjacency = {v: set() for v in range(1, q + 1)}
    for v in range(2, q + 1):
        adjacency[v].add(tree.parent[v])
        adjacency[tree.parent[v]].add(v)
    code = []
    for _ in range(q - 2):
        leaf = min(v for v, nbrs in adjacency.items() if len(nbrs) == 1)
        (neighbour,) = adjacency.pop(leaf)
        adjacency[neighbour].discard(leaf)
        code.append(neighbour)
    return tuple(code)


def random_recursive_tree(q, rng):
    """Each node in a random labeling, node 1 first, hangs from a uniformly
    chosen earlier node; reaches every labeled tree rooted at 1."""
    labels = [1] + [int(v) for v in rng.permutation(np.arange(2, q + 1))]
    parents = [0] * q
    for i in range(1, q):
        parents[labels[i] - 1] = labels[int(rng.integers(i))]
    return RootedTree.from_parent_array(parents)


class TestRootedTree:
    def test_chain_structure(self):
        t = chain(3)
        assert t.parent == (0, 0, 1, 2)
        assert t.children[1] == (2,)
        assert t.children[2] == (3,)
        assert t.children[3] == ()

    def test_children_sorted_ascending(self):
        t = RootedTree.from_parent_array([0, 1, 1, 1])
        assert t.children[1] == (2, 3, 4)

    def test_single_node(self):
        t = RootedTree.from_parent_array([0])
        assert t.q == 1 and t.bfs_order() == (1,)

    def test_root_must_be_node_one(self):
        with pytest.raises(TreeInputError):
            RootedTree.from_parent_array([2, 0])

    def test_exactly_one_root(self):
        with pytest.raises(TreeInputError):
            RootedTree.from_parent_array([0, 0])
        with pytest.raises(TreeInputError):
            RootedTree.from_parent_array([1, 1])

    def test_parent_out_of_range(self):
        with pytest.raises(TreeInputError):
            RootedTree.from_parent_array([0, 3])

    def test_cycle_detected(self):
        with pytest.raises(TreeInputError):
            RootedTree.from_parent_array([0, 3, 2])

    def test_self_parent(self):
        with pytest.raises(TreeInputError):
            RootedTree.from_parent_array([0, 2])

    def test_fractional_parent_rejected(self):
        with pytest.raises(TreeInputError, match="node 2"):
            RootedTree.from_parent_array([0, 1.5, 1])
        with pytest.raises(TreeInputError, match="node 3"):
            RootedTree.from_parent_array(np.array([0.0, 1.0, 0.999]))

    def test_integral_float_parents_accepted(self):
        t = RootedTree.from_parent_array(np.array([0.0, 1.0, 1.0]))
        assert t == RootedTree.from_parent_array([0, 1, 1])
        assert all(type(p) is int for p in t.parent)

    def test_unchecked_constructor_equals_checked(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = int(rng.integers(1, 60))
            cmax = int(rng.integers(1, 6))
            tree = galton_watson_tree(GaltonWatsonSpec(q=q, cmax=cmax), rng=rng)
            fast = _tree_from_parent(list(tree.parent))
            checked = RootedTree.from_parent_array(tree.parent[1:])
            assert fast == checked
            assert fast.children == checked.children
            assert fast.bfs_order() == checked.bfs_order()

    def test_text_round_trip(self):
        t = RootedTree.from_parent_array([0, 1, 1, 2])
        assert t.parent == (0, 0, 1, 1, 2)
        assert t.to_text() == "0 1 1 2"
        assert RootedTree.from_parent_array([int(x) for x in t.to_text().split()]) == t

    def test_is_ancestor(self):
        t = RootedTree.from_parent_array([0, 1, 1, 2])
        assert t.is_ancestor(1, 4)
        assert t.is_ancestor(2, 4)
        assert t.is_ancestor(4, 4)
        assert not t.is_ancestor(3, 4)
        assert not t.is_ancestor(4, 2)


class TestPrufer:
    def test_decode_star(self):
        t = decode_prufer((1, 1), 4)
        assert t.children[1] == (2, 3, 4)
        assert all(t.parent[v] == 1 for v in (2, 3, 4))

    def test_decode_two_nodes(self):
        t = decode_prufer((), 2)
        assert t.parent == (0, 0, 1)

    def test_decode_one_node(self):
        assert decode_prufer((), 1).q == 1

    def test_encode_star(self):
        t = RootedTree.from_parent_array([0, 1, 1, 1])
        assert encode_prufer(t) == (1, 1)

    def test_encode_chain3(self):
        assert encode_prufer(chain(3)) == (2,)

    def test_round_trip_exhaustive_q5(self):
        for code in itertools.product(range(1, 6), repeat=3):
            assert encode_prufer(decode_prufer(code, 5)) == code

    def test_round_trip_exhaustive_q6(self):
        for code in itertools.product(range(1, 7), repeat=4):
            assert encode_prufer(decode_prufer(code, 6)) == code

    def test_round_trip_exhaustive_q7(self):
        for code in itertools.product(range(1, 8), repeat=5):
            assert encode_prufer(decode_prufer(code, 7)) == code

    def test_encode_matches_reference_encode_exhaustive(self):
        for q in range(1, 8):
            for code in itertools.product(range(1, q + 1), repeat=max(q - 2, 0)):
                tree = decode_prufer(code, q)
                assert encode_prufer(tree) == reference_encode(tree)

    def test_encode_matches_reference_encode_random(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            tree = random_recursive_tree(int(rng.integers(1, 41)), rng)
            assert encode_prufer(tree) == reference_encode(tree)

    def test_round_trip_random_q16(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = int(rng.integers(3, 17))
            code = tuple(int(c) for c in rng.integers(1, q + 1, size=q - 2))
            tree = decode_prufer(code, q)
            assert encode_prufer(tree) == code
            assert decode_prufer(encode_prufer(tree), q) == tree

    def test_decode_matches_reference_decode_exhaustive(self):
        # Textbook O(q^2) decode (repeatedly join the smallest leaf to the
        # next code entry), oriented away from node 1 by a DFS.
        def reference_parents(code, q):
            degree = [1] * (q + 1)
            for c in code:
                degree[c] += 1
            edges = []
            for c in code:
                leaf = min(v for v in range(1, q + 1) if degree[v] == 1)
                edges.append((leaf, c))
                degree[leaf] -= 1
                degree[c] -= 1
            last = [v for v in range(1, q + 1) if degree[v] == 1]
            if len(last) == 2:
                edges.append(tuple(last))
            adjacency = {v: [] for v in range(1, q + 1)}
            for a, b in edges:
                adjacency[a].append(b)
                adjacency[b].append(a)
            parents = [0] * q
            stack = [1]
            seen = {1}
            while stack:
                v = stack.pop()
                for w in adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        parents[w - 1] = v
                        stack.append(w)
            return parents

        for q in range(1, 8):
            for code in itertools.product(range(1, q + 1), repeat=max(q - 2, 0)):
                tree = decode_prufer(code, q)
                ref = RootedTree.from_parent_array(reference_parents(code, q))
                assert tree == ref
                assert tree.children == ref.children
                assert tree.bfs_order() == ref.bfs_order()

    def test_decode_rejects_bad_labels(self):
        with pytest.raises(TreeInputError):
            decode_prufer((0, 1), 4)
        with pytest.raises(TreeInputError):
            decode_prufer((5, 1), 4)

    def test_decode_names_the_position_of_a_label_out_of_range(self):
        with pytest.raises(TreeInputError, match=r"^code\[1\] = 9 is outside 1\.\.4$"):
            decode_prufer((1, 9), 4)
        with pytest.raises(TreeInputError, match=r"^code\[2\] = 0 is outside 1\.\.5$"):
            decode_prufer((2, 3, 0), 5)

    def test_decode_rejects_fractional_labels(self):
        with pytest.raises(TreeInputError, match=r"code\[0\]"):
            decode_prufer([1.7], 3)
        with pytest.raises(TreeInputError, match=r"code\[1\]"):
            decode_prufer(np.array([2.0, 2.5, 1.0]), 5)
        assert decode_prufer(np.array([2.0, 2.0]), 4) == decode_prufer((2, 2), 4)

    def test_decode_rejects_bad_length(self):
        with pytest.raises(TreeInputError):
            decode_prufer((1,), 4)
        with pytest.raises(TreeInputError):
            decode_prufer((1,), 2)


class TestCountTrees:
    def test_search_relevant_sizes(self):
        assert count_trees(10) == 100_000_000
        assert count_trees(11) == 2_357_947_691

    def test_small(self):
        assert count_trees(1) == 1
        assert count_trees(2) == 1
        assert count_trees(3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_trees(0)


class TestAncestorSums:
    def test_chain_hand_sum(self):
        n = ancestor_sums(chain(2), [0.5, 0.7])
        assert np.allclose(n, [0.5, 1.2], atol=1e-15)

    def test_zero_input(self):
        t = decode_prufer((3, 3, 1), 5)
        assert np.all(ancestor_sums(t, np.zeros(5)) == 0)

    def test_star_hand_sum(self):
        t = RootedTree.from_parent_array([0, 1, 1])
        n = ancestor_sums(t, [1.0, 2.0, 3.0])
        assert np.allclose(n, [1.0, 3.0, 4.0], atol=1e-15)

    def test_parent_increment_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = int(rng.integers(2, 12))
            code = rng.integers(1, q + 1, size=max(q - 2, 0))
            t = decode_prufer(code, q) if q >= 3 else decode_prufer((), q)
            f = rng.standard_normal(q)
            n = ancestor_sums(t, f)
            for i in range(2, q + 1):
                p = t.parent[i]
                assert n[i - 1] - n[p - 1] == pytest.approx(f[i - 1], abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ancestor_sums(chain(2), [np.nan, 0.0])


FEW_ITERS = SolverConfig(max_iters=5)
COLUMN_ENTRY_POINTS = {
    "project": project,
    "ancestor_sums": ancestor_sums,
    "oracle_project": oracle_project,
    "oracle_dual_at_t": lambda tree, col: oracle_dual_at_t(tree, col, 1.0),
    "admm_primal": lambda tree, col: admm_primal(tree, col, FEW_ITERS),
    "admm_dual": lambda tree, col: admm_dual(tree, col, FEW_ITERS),
    "pgd_primal": lambda tree, col: pgd_primal(tree, col, FEW_ITERS),
    "pgd_dual": lambda tree, col: pgd_dual(tree, col, FEW_ITERS),
}


@pytest.mark.parametrize("column, message", [
    ([0.5, np.nan, 0.2], "non-finite"),
    ([0.5, np.inf, 0.2], "non-finite"),
    ([0.5], "length-3"),
], ids=["nan", "inf", "length"])
@pytest.mark.parametrize("entry", list(COLUMN_ENTRY_POINTS))
def test_column_check_at_every_entry_point(entry, column, message):
    tree = RootedTree.from_parent_array([0, 1, 1])
    with pytest.raises(ValueError, match=message):
        COLUMN_ENTRY_POINTS[entry](tree, column)


class TestAncestryMatrix:
    def test_chain(self):
        assert ancestry_matrix(chain(2)).tolist() == [[1, 1], [0, 1]]

    def test_star(self):
        t = RootedTree.from_parent_array([0, 1, 1])
        assert ancestry_matrix(t).tolist() == [[1, 1, 1], [0, 1, 0], [0, 0, 1]]

    def test_inverse_identity_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            q = int(rng.integers(2, 9))
            code = rng.integers(1, q + 1, size=max(q - 2, 0))
            t = decode_prufer(code, q) if q >= 3 else decode_prufer((), q)
            u = ancestry_matrix(t)
            tmat = closest_ancestor_matrix(t)
            assert np.array_equal(u @ (np.eye(q, dtype=np.int64) - tmat),
                                  np.eye(q, dtype=np.int64))

    def test_unit_upper_triangular_in_topological_order(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = int(rng.integers(3, 12))
            t = decode_prufer(rng.integers(1, q + 1, size=q - 2), q)
            u = ancestry_matrix(t)
            perm = [v - 1 for v in t.bfs_order()]
            up = u[np.ix_(perm, perm)]
            assert np.array_equal(np.diag(up), np.ones(q, dtype=np.int64))
            assert np.all(np.tril(up, -1) == 0)

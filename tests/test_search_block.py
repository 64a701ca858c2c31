"""Tests for the branch-and-bound search: the block sweep kernel on the
walk's parent and depth rows, the lower bound on complete and partial
trees, the penalty floor, the screen in front of the scalar core, and the
forked children."""

import itertools
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmproj import SearchSpec, count_trees, search_all
from ppmproj import projection
from ppmproj import search as search_mod
from ppmproj.cli import main
from ppmproj.generate import random_instance
from ppmproj.projection import DegeneracyError, _sweep, _sweep_block
from ppmproj.search import (
    _SCREEN_SLACK,
    _evaluate_tree,
    _Walk,
    resolve_penalty,
    resolve_scaling,
)
from ppmproj.tree import _tree_from_parent, decode_prufer


def all_codes(q):
    """Every Prüfer code at q, in lexicographic order."""
    codes = list(itertools.product(range(1, q + 1), repeat=max(q - 2, 0)))
    return np.array(codes, dtype=np.int64).reshape(len(codes), max(q - 2, 0))


def parent_rows(codes, q):
    """The (B, q+1) parent rows of the trees with Prüfer ``codes``."""
    return np.array([decode_prufer(code, q).parent for code in codes.tolist()])


def custom_penalty(tree):
    return 0.05 * len(tree.children[1]) + 0.01 * tree.parent[tree.q]


def reference_ranking(spec):
    """Every tree scored by ``_evaluate_tree``, sorted by (objective, code)."""
    q = spec.q
    fcols = [[0.0] + spec.fhat[:, s].tolist() for s in range(spec.fhat.shape[1])]
    jfn, _ = resolve_scaling(spec.scaling)
    penalty, _ = resolve_penalty(spec.penalty, q)
    rows = []
    for code in map(tuple, all_codes(q).tolist()):
        tree = decode_prufer(code, q)
        pen = float(penalty(np.array([tree.parent]))[0])
        obj, cost, m_cols, f_cols = _evaluate_tree(tree, fcols, jfn, pen)
        rows.append((obj, code, cost, np.array(m_cols).T, np.array(f_cols).T))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def assert_ranking_equals(report, reference):
    assert len(report.ranked) == len(reference)
    for entry, (obj, code, cost, m_star, f_star) in zip(report.ranked, reference):
        assert (entry.code, entry.objective, entry.cost) == (code, obj, cost)
        assert np.array_equal(entry.m_star, m_star)
        assert np.array_equal(entry.f_star, f_star)


def depths(parent):
    """Depth of every node of each (B, q+1) parent row, by relaxation."""
    rows = np.arange(len(parent))[:, None]
    depth = np.zeros(parent.shape, dtype=np.int64)
    for _ in range(parent.shape[1]):
        depth[:, 2:] = depth[rows, parent[:, 2:]] + 1
    return depth


class TestSweepBlock:
    Q = 6

    @staticmethod
    def columns(kind, rng):
        q = TestSweepBlock.Q
        if kind == "normal":
            return rng.standard_normal((q, 3))
        if kind == "feasible":
            return random_instance(q, p=3, rng=rng, feasible=True)[1]
        if kind == "quantized":
            return rng.integers(-2, 6, size=(q, 3)) / 4.0
        # duplicated rows: entries come in equal pairs
        return np.repeat(rng.random((q // 2, 3)), 2, axis=0)

    @pytest.mark.parametrize("kind", ["normal", "feasible", "quantized", "duplicated"])
    def test_cost_matches_scalar_sweep_on_every_tree(self, kind):
        q = self.Q
        codes = all_codes(q)
        scalar_trees = [decode_prufer(c, q) for c in codes.tolist()]
        parent = np.array([tree.parent for tree in scalar_trees])
        depth = depths(parent)
        fhat = self.columns(kind, np.random.default_rng(7))
        for scale in (1.0, 1e6):
            for s in range(fhat.shape[1]):
                col = [0.0] + (scale * fhat[:, s]).tolist()
                cost2 = _sweep_block(parent, depth, np.array(col))
                assert cost2.shape == (len(codes),)
                assert not np.isnan(cost2).any()
                for got, tree in zip(cost2.tolist(), scalar_trees):
                    want = _sweep(tree, col)[4]
                    assert abs(got - want) <= 1e-12 * max(1.0, want)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: both sweeps group events within an absolute tie "
        "tolerance, so at scale 1e-8 their costs differ in the ninth digit"))
    def test_cost_matches_scalar_sweep_at_small_scale(self):
        q = self.Q
        codes = all_codes(q)
        scalar_trees = [decode_prufer(c, q) for c in codes.tolist()]
        parent = np.array([tree.parent for tree in scalar_trees])
        depth = depths(parent)
        for kind in ("normal", "feasible", "quantized", "duplicated"):
            fhat = self.columns(kind, np.random.default_rng(7))
            for s in range(fhat.shape[1]):
                col = [0.0] + (1e-8 * fhat[:, s]).tolist()
                cost2 = _sweep_block(parent, depth, np.array(col))
                for got, tree in zip(cost2.tolist(), scalar_trees):
                    want = _sweep(tree, col)[4]
                    assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_non_finite_cost_is_uncertified(self):
        parent = parent_rows(all_codes(4), 4)
        cost2 = _sweep_block(parent, depths(parent), np.array([0.0, 0.5, np.nan, 0.1, 0.2]))
        assert np.isnan(cost2).all()

    def test_vanishing_curvature_is_uncertified(self, monkeypatch):
        # L'' is at most 1, so a guard above 1 fails every row.
        monkeypatch.setattr(projection, "LSECOND_GUARD", 2.0)
        parent = parent_rows(all_codes(5), 5)
        col = [0.0] + np.random.default_rng(5).standard_normal(5).tolist()
        assert np.isnan(_sweep_block(parent, depths(parent), np.array(col))).all()

    @pytest.mark.parametrize("q", [11, 12])
    def test_int8_rows_of_a_chain(self, q):
        # The walk's rows are int8, and on a chain depth * (q+1) + label
        # reaches 131 at q=11 and 155 at q=12.
        parent = np.zeros((1, q + 1), dtype=np.int8)
        parent[0, 2:] = np.arange(1, q)
        depth = depths(parent).astype(np.int8)
        col = [0.0] + np.random.default_rng(q).standard_normal(q).tolist()
        cost2 = _sweep_block(parent, depth, np.array(col))
        want = _sweep(_tree_from_parent(parent[0].tolist()), col)[4]
        assert abs(cost2[0] - want) <= 1e-12 * max(1.0, want)


def _lower_bound_block(parent, depth, fblock):
    """Lower bounds on the squared projection cost of p columns on each of
    B trees, with no segment loop.

    ``parent`` and ``depth`` (B, q+1) are complete rows of the walk, and
    ``fblock`` (p, q+1) holds the columns; column 0 of each is unused.
    Returns a (B, p) array.

    For one column y the model set is {F_1 = 1, F_u >= sum of F over the
    children C(u), F >= 0}.  Since F >= 0, every node u >= 2 pays at least
    min(y_u, 0)^2 and the root pays exactly (y_1 - 1)^2.  Against y+ =
    max(y, 0), the constraint of a non-root u is a half-space on the group
    {u} + C(u) at squared distance (sum_C y+_c - y+_u)+^2 / (|C(u)| + 1); the
    root's group C(1) must sum to at most 1, at squared distance
    (sum_C y+_c - 1)+^2 / |C(1)|.  Groups of nodes at even depths are
    pairwise disjoint, and so are those at odd depths, so the larger of the
    two families' sums adds to the bound.  On complete trees it is the bound
    that ``search._child_bounds`` carries over to forests.
    """
    fblock = np.asarray(fblock, dtype=float)
    b, width = parent.shape
    below = np.minimum(fblock[:, 2:], 0.0)
    base = (fblock[:, 1] - 1.0) ** 2 + np.einsum("sj,sj->s", below, below)
    slot = (parent[:, 2:] + width * np.arange(b)[:, None]).ravel()
    # Group sizes: |C(u)| + 1, but |C(1)| at the root, where a childless
    # root's term is 0 whatever its size.  Column 0 weighs nothing.
    size = np.bincount(slot, minlength=b * width).reshape(b, width) + 1.0
    size[:, 1] = np.maximum(size[:, 1] - 1.0, 1.0)
    odd = (depth & 1).astype(bool)
    odd_weight = np.where(odd, 1.0 / size, 0.0)
    even_weight = np.where(odd, 0.0, 1.0 / size)
    even_weight[:, 0] = 0.0
    above = np.maximum(fblock, 0.0)
    # The root's group is bounded by F_1 = 1 in place of its own entry.
    above[:, 1] = 1.0
    bound = np.empty((b, len(fblock)))
    for s, y in enumerate(above):
        kids = np.bincount(slot, weights=np.broadcast_to(y[2:], (b, width - 2)).ravel(),
                           minlength=b * width).reshape(b, width)
        gap = np.maximum(kids - y, 0.0)
        gap *= gap
        bound[:, s] = base[s] + np.maximum(np.einsum("bj,bj->b", gap, even_weight),
                                           np.einsum("bj,bj->b", gap, odd_weight))
    return bound


def lower_bounds_and_costs(q, fhat):
    """Block bound and scalar squared cost of every column on every tree at q,
    each a (trees, p) array."""
    fblock = np.zeros((fhat.shape[1], q + 1))
    fblock[:, 1:] = fhat.T
    parent = parent_rows(all_codes(q), q)
    bound = _lower_bound_block(parent, depths(parent), fblock)
    trees = [decode_prufer(c, q) for c in all_codes(q).tolist()]
    cost2 = np.array([[_sweep(tree, f)[4] for f in fblock.tolist()] for tree in trees])
    return bound, cost2


def bound_columns(kind, q, rng):
    if kind == "normal":
        return rng.standard_normal((q, 2))
    if kind == "uniform":
        return rng.random((q, 2))
    if kind == "feasible":
        return random_instance(q, p=2, rng=rng, feasible=True)[1]
    if kind == "quantized":
        return rng.integers(-2, 6, size=(q, 2)) / 4.0
    if kind == "duplicated":
        return np.repeat(rng.random((q, 2)), 2, axis=0)[:q]
    if kind == "tiny":
        return 1e-8 * rng.standard_normal((q, 2))
    return 1e6 * rng.standard_normal((q, 2))


class TestLowerBound:
    @pytest.mark.parametrize("q", range(1, 8))
    @pytest.mark.parametrize("kind", ["normal", "uniform", "feasible", "quantized",
                                      "duplicated", "tiny", "huge"])
    def test_bound_is_below_scalar_cost_on_every_tree(self, q, kind):
        bound, cost2 = lower_bounds_and_costs(q, bound_columns(kind, q, np.random.default_rng(q)))
        assert bound.shape == cost2.shape == (count_trees(q), 2)
        # At scale 1e-8 the raw bound may beat the sweep's cost by its absolute
        # tolerances, so the comparison is made after the screen's slack.
        assert (np.sqrt(bound) * (1.0 - _SCREEN_SLACK) <= np.sqrt(cost2)).all()

    def test_bound_is_tight_on_some_trees(self):
        # A bound scaled up by 1% must break somewhere, or the check above
        # could not tell a good bound from a slack one.
        q = 7
        bound, cost2 = lower_bounds_and_costs(q, np.random.default_rng(0).standard_normal((q, 3)))
        assert (1.01 * bound.sum(axis=1) > cost2.sum(axis=1)).any()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), q=st.integers(3, 30),
           scale=st.sampled_from([1e-8, 1.0, 1e6]))
    def test_bound_is_below_scalar_cost_on_random_trees(self, data, q, scale):
        code = data.draw(st.lists(st.integers(1, q), min_size=q - 2, max_size=q - 2))
        column = data.draw(st.lists(
            st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
            min_size=q, max_size=q))
        f = [0.0] + [scale * x for x in column]
        tree = decode_prufer(code, q)
        parent = np.array([tree.parent])
        bound = _lower_bound_block(parent, depths(parent), np.array([f]))[0, 0]
        cost2 = _sweep(tree, f)[4]
        assert math.sqrt(bound) * (1.0 - _SCREEN_SLACK) <= math.sqrt(cost2)


def levels_and_completions(q, fhat):
    """Every partial and complete tree at q, level by level, from the walk
    with no bar, and the scalar squared cost of every column on each
    complete tree (rows of the last level)."""
    walk = _Walk(SearchSpec(fhat=fhat))
    rows = walk._root()
    levels = []
    for u in range(2, q + 1):
        rows = walk._expand(rows, u)
        levels.append((u, rows))
    trees = [_tree_from_parent(row) for row in rows.parent.astype(np.int64).tolist()]
    cost2 = np.array([[_sweep(tree, f)[4] for f in walk.fcols] for tree in trees])
    return levels, cost2


def cheapest_completions(levels, cost2):
    """For each level, the smallest cost of each column over the completions
    of each of its rows: a (rows, p) array per level."""
    complete = levels[-1][1].parent
    out = []
    for u, rows in levels:
        cheapest = {}
        for prefix, c2 in zip(map(tuple, complete[:, 2:u + 1].tolist()), cost2):
            cheapest[prefix] = np.minimum(cheapest.get(prefix, c2), c2)
        out.append(np.array([cheapest[prefix]
                             for prefix in map(tuple, rows.parent[:, 2:u + 1].tolist())]))
    return out


class TestPartialBound:
    @pytest.mark.parametrize("q", range(2, 7))
    @pytest.mark.parametrize("kind", ["normal", "feasible", "quantized", "tiny", "huge"])
    def test_bound_is_below_every_completion(self, q, kind):
        levels, cost2 = levels_and_completions(q, bound_columns(kind, q, np.random.default_rng(q)))
        assert len(levels[-1][1]) == count_trees(q)
        assert sum(len(rows) for _, rows in levels) == sum(
            (q - j) * q ** (j - 1) for j in range(1, q))
        for (u, rows), cheapest in zip(levels, cheapest_completions(levels, cost2)):
            assert (np.sqrt(rows.bound) * (1.0 - _SCREEN_SLACK) <= np.sqrt(cheapest)).all()

    @pytest.mark.parametrize("q", range(1, 8))
    def test_complete_bound_equals_block_bound(self, q):
        fhat = np.random.default_rng(q).standard_normal((q, 3))
        walk = _Walk(SearchSpec(fhat=fhat))
        rows = walk._root()
        for u in range(2, q + 1):
            rows = walk._expand(rows, u)
        parent = rows.parent.astype(np.int64)
        assert len(parent) == count_trees(q)
        assert np.array_equal(rows.depth, depths(parent))
        reference = _lower_bound_block(parent, depths(parent), walk.fblock)
        assert np.allclose(rows.bound, reference, rtol=1e-12, atol=0.0)

    def test_scaled_bound_fails_on_some_partial_tree(self):
        # A partial bound scaled up by 1% must exceed some completion's cost,
        # or the check above could not tell a tight bound from a slack one.
        q = 6
        levels, cost2 = levels_and_completions(q, np.random.default_rng(0).standard_normal((q, 3)))
        cheapest = cheapest_completions(levels, cost2)
        assert any((1.01 * rows.bound.sum(axis=1) > best.sum(axis=1)).any()
                   for (u, rows), best in zip(levels[:-1], cheapest))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), q=st.integers(1, 30), weight=st.sampled_from([-0.5, 0.0, 0.3]))
    def test_penalty_floor_is_below_every_tree(self, data, q, weight):
        code = data.draw(st.lists(st.integers(1, q), min_size=max(q - 2, 0),
                                  max_size=max(q - 2, 0)))
        parent = np.array([decode_prufer(code, q).parent])
        penalty, floor = resolve_penalty(f"leaves:{weight}", q)
        assert floor <= penalty(parent)[0]
        assert resolve_penalty("zero", q)[1] == 0.0
        assert resolve_penalty(custom_penalty, q)[1] == -math.inf


class TestScreen:
    K = 4

    @pytest.mark.parametrize("q", range(1, 7))
    @pytest.mark.parametrize("scaling", ["identity", "log1p", "square"])
    @pytest.mark.parametrize("penalty", ["zero", "leaves:0.3", custom_penalty])
    def test_ranking_equals_reference(self, q, scaling, penalty, monkeypatch):
        rng = np.random.default_rng(q)
        # Feasible data puts many trees at cost 0, so the code tie-break counts.
        fhat = (random_instance(q, p=2, rng=rng, feasible=True)[1] if q % 2
                else rng.standard_normal((q, 2)))
        # The bound and the screen widen costs by a relative slack, which
        # must hold at extreme scales too.
        for scale in (1.0, 1e-8, 1e6):
            spec = SearchSpec(fhat=scale * fhat, k=self.K, scaling=scaling, penalty=penalty)
            reference = reference_ranking(spec)[:self.K]
            for block in (1, 7, 8192):
                monkeypatch.setattr(search_mod, "_BLOCK", block)
                for workers in (1, 2, 8):
                    report = search_all(spec, workers=workers)
                    assert_ranking_equals(report, reference)
                    assert len(reference) <= report.trees_rescored <= count_trees(q)
                    assert report.trees_rescored <= report.trees_swept <= count_trees(q)

    def test_uncertified_rows_are_rescored(self, monkeypatch):
        q = 6
        spec = SearchSpec(fhat=np.random.default_rng(3).standard_normal((q, 2)), k=3)
        ranking = reference_ranking(spec)
        # The best and the worst tree get a NaN cost.
        best, worst = (decode_prufer(ranking[i][1], q).parent for i in (0, -1))
        sweep_block = search_mod._sweep_block

        def spoiled(parent, depth, f):
            cost2 = sweep_block(parent, depth, f)
            cost2[(parent == best).all(axis=1) | (parent == worst).all(axis=1)] = np.nan
            return cost2

        evaluate = search_mod._evaluate_tree
        rescored = []

        def recording(tree, *args):
            rescored.append(tree.parent)
            return evaluate(tree, *args)

        monkeypatch.setattr(search_mod, "_sweep_block", spoiled)
        monkeypatch.setattr(search_mod, "_evaluate_tree", recording)
        # A zero bound lets the worst tree through to the block sweep.
        child_bounds = search_mod._child_bounds

        def zero_bounds(rows, u, above, base):
            src, a, bound = child_bounds(rows, u, above, base)
            return src, a, np.zeros_like(bound)

        monkeypatch.setattr(search_mod, "_child_bounds", zero_bounds)
        for block in (7, 8192):
            monkeypatch.setattr(search_mod, "_BLOCK", block)
            rescored.clear()
            assert_ranking_equals(search_all(spec), ranking[:spec.k])
            assert worst in rescored

    def test_screen_rescores_few_trees(self):
        rng = np.random.default_rng(5)
        _, fhat = random_instance(7, p=3, rng=rng, feasible=False)
        report = search_all(SearchSpec(fhat=fhat, k=5))
        assert report.trees_rescored <= 0.01 * report.trees_evaluated

    def test_trees_dropped_by_the_bound_are_not_swept(self, monkeypatch):
        q, k = 7, 5
        rng = np.random.default_rng(11)
        _, fhat = random_instance(q, p=3, rng=rng, feasible=True)
        spec = SearchSpec(fhat=fhat + 0.01 * rng.standard_normal(fhat.shape), k=k)
        sweep_rows = search_mod._sweep_rows
        rescore = _Walk._rescore
        swept = []
        scored = []

        def recording_sweep(rows, parent, depth, fblock, tail, pens, bar, jfn_block):
            # Each tree sent to the block sweep has a lower objective, from
            # the block bound of the whole tree, within the bar of the moment.
            chosen = parent[rows]
            bound = _lower_bound_block(chosen, depths(chosen), fblock)
            lower = search_mod._lower_objective(np.sqrt(bound.sum(axis=1)), 0.0, np.asarray)
            assert (lower <= bar + 1e-12 * max(1.0, bar)).all()
            swept.extend(map(tuple, chosen.tolist()))
            return sweep_rows(rows, parent, depth, fblock, tail, pens, bar, jfn_block)

        def recording_rescore(walk, parent, pens, index):
            # The walk's exact scores, those it takes from the beam included.
            scored.extend(map(tuple, parent[index].tolist()))
            return rescore(walk, parent, pens, index)

        monkeypatch.setattr(search_mod, "_BLOCK", 1000)
        monkeypatch.setattr(search_mod, "_sweep_rows", recording_sweep)
        monkeypatch.setattr(_Walk, "_rescore", recording_rescore)
        report = search_all(spec)
        assert_ranking_equals(report, reference_ranking(spec)[:k])
        # The walk's leaves score trees exactly or sweep them.
        walk_scored = len(scored)
        assert walk_scored == report.trees_rescored
        assert len(set(swept)) == len(swept)
        assert len(swept) <= report.trees_swept <= walk_scored + len(swept)
        assert report.trees_rescored <= report.trees_swept <= 0.01 * report.trees_evaluated

        # On a planted q=8 instance the walk bounds under 1% of the 8^6 trees.
        _, fhat = random_instance(8, p=3, rng=rng, feasible=True)
        spec = SearchSpec(fhat=fhat + 0.01 * rng.standard_normal(fhat.shape), k=k)
        report = search_all(spec)
        assert report.trees_swept <= report.nodes_bounded <= 0.01 * 8 ** 6


def beam_rows(spec):
    """The complete trees that the beam of ``_Walk.first_bar`` reaches."""
    walk = _Walk(spec)
    rows = walk._root()
    for u in range(2, spec.q + 1):
        rows = walk._expand(rows, u).take(slice(0, 4 * spec.k))
    return rows


def planted_spec(q, seed, k=5):
    """Near-feasible data on a planted tree, as the benchmark's search draws it."""
    rng = np.random.default_rng(seed)
    _, fhat = random_instance(q, p=3, rng=rng, feasible=True)
    return SearchSpec(fhat=fhat + 0.01 / math.sqrt(q) * rng.standard_normal(fhat.shape), k=k)


class TestFirstBar:
    @pytest.mark.parametrize("scaling", ["identity", "log1p", "square"])
    @pytest.mark.parametrize("penalty", ["zero", "leaves:0.3", custom_penalty])
    @pytest.mark.parametrize("kind", ["normal", "feasible", "quantized"])
    def test_bar_equals_scoring_the_whole_beam(self, scaling, penalty, kind):
        rng = np.random.default_rng(17)
        for q in range(4, 8):
            fhat = bound_columns(kind, q, rng)
            # At q=4, k=20 is larger than the beam, which holds all 16 trees.
            for k in (1, 5, 20):
                spec = SearchSpec(fhat=fhat, k=k, scaling=scaling, penalty=penalty)
                walk = _Walk(spec)
                rows = beam_rows(spec)
                pens = walk.penalty(rows.parent)
                objectives = sorted(
                    _evaluate_tree(_tree_from_parent(row), walk.fcols, walk.jfn, float(pen))[0]
                    for row, pen in zip(rows.parent.tolist(), pens))
                reference = objectives[k - 1] if len(objectives) >= k else math.inf
                walk.first_bar()
                assert float(walk.bar).hex() == float(reference).hex()
                assert len(walk.beam) <= len(rows)

    def test_beam_skips_trees_that_cannot_lower_the_bar(self, monkeypatch):
        k = 5
        spec = planted_spec(7, 1, k)
        assert len(beam_rows(spec)) == 4 * k
        evaluate = search_mod._evaluate_tree
        scored = []

        def recording(tree, *args):
            scored.append(tree.parent)
            return evaluate(tree, *args)

        monkeypatch.setattr(search_mod, "_evaluate_tree", recording)
        walk = _Walk(spec)
        walk.first_bar()
        assert k <= len(scored) < 4 * k
        assert len(walk.beam) == len(scored)

    @pytest.mark.parametrize("spec", [planted_spec(7, 2), planted_spec(7, 3, k=1)])
    def test_no_tree_is_scored_twice(self, spec, monkeypatch):
        evaluate = search_mod._evaluate_tree
        scored = []

        def recording(tree, *args):
            scored.append(tuple(tree.parent))
            return evaluate(tree, *args)

        monkeypatch.setattr(search_mod, "_evaluate_tree", recording)
        report = search_all(spec, workers=1)
        assert len(set(scored)) == len(scored)
        # The walk counts the scores it takes from the beam as its own.
        assert report.trees_rescored <= len(scored)
        assert_ranking_equals(report, reference_ranking(spec)[:spec.k])


class _Pipe:
    """One end pair of an in-process pipe."""

    def __init__(self):
        self.sent = []

    def send(self, value):
        self.sent.append(value)

    def recv(self):
        if not self.sent:
            raise EOFError
        return self.sent.pop(0)

    def close(self):
        pass


class _InlineProcess:
    def __init__(self, target, args):
        self.target, self.args = target, args
        self.exitcode = None

    def start(self):
        self.target(*self.args)
        self.exitcode = 0

    def terminate(self):
        pass

    def join(self):
        pass


class _RecordingContext:
    """Stands in for the fork context: counts the children started and runs
    each in this process, so that no process is started."""

    def __init__(self):
        self.children = 0

    def Pipe(self, duplex):
        pipe = _Pipe()
        return pipe, pipe

    def Process(self, target, args):
        self.children += 1
        return _InlineProcess(target, args)


def _tiny_spec(q=5):
    return SearchSpec(fhat=np.random.default_rng(0).standard_normal((q, 1)), k=2)


def _fork_at_first_level(monkeypatch):
    """One row per step of the walk, so that even a tiny search forks at its
    first level of two rows or more."""
    monkeypatch.setattr(search_mod, "_BLOCK", 1)


def _ranking(report):
    return [(entry.code, entry.objective) for entry in report.ranked]


class TestForkPolicy:
    """The caller forks only when a level of the walk outgrows one step."""

    @staticmethod
    def _children(spec, workers, cpus, monkeypatch):
        """The report of a search on ``cpus`` CPUs and the children it started."""
        context = _RecordingContext()
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
        monkeypatch.setattr(search_mod.os, "cpu_count", lambda: cpus)
        return search_all(spec, workers=workers), context.children

    def test_levels_within_one_step_start_no_child(self, monkeypatch):
        q = 7
        rng = np.random.default_rng(7)
        _, fhat = random_instance(q, p=3, rng=rng, feasible=True)
        spec = SearchSpec(fhat=fhat + 0.01 / math.sqrt(q) * rng.standard_normal(fhat.shape),
                          k=5)
        walk = _Walk(spec)
        walk.first_bar()
        _, u = walk.open_rows()
        assert u > q
        reference = _ranking(search_all(spec))
        for workers, cpus in [(2, 2), (8, 8)]:
            report, children = self._children(spec, workers, cpus, monkeypatch)
            assert children == 0
            assert _ranking(report) == reference
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers, cpus", [(2, 2), (8, 3), (3, 8)])
    def test_level_beyond_one_step_starts_a_child_per_worker(self, workers, cpus,
                                                             monkeypatch):
        spec = _tiny_spec(7)
        walk = _Walk(spec)
        walk.first_bar()
        rows, u = walk.open_rows()
        assert u <= spec.q and len(rows) > walk.step
        reference = _ranking(search_all(spec))
        report, children = self._children(spec, workers, cpus, monkeypatch)
        assert children == min(workers, cpus)
        assert _ranking(report) == reference
        assert multiprocessing.active_children() == []


class TestWorkerCount:
    @pytest.mark.parametrize("q, workers", [(3, 8), (4, 10 ** 6), (5, 2), (5, 1)])
    def test_one_child_per_share(self, q, workers, monkeypatch):
        context = _RecordingContext()
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
        _fork_at_first_level(monkeypatch)
        # Shares are capped at the CPU count; 8 keeps every case's count on any machine.
        monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 8)
        deal = search_mod._deal
        shares = []

        def recording_deal(rows, parts):
            shares.append(deal(rows, parts))
            return shares[-1]

        monkeypatch.setattr(search_mod, "_deal", recording_deal)
        spec = _tiny_spec(q)
        report = search_all(spec, workers=workers)
        [dealt] = shares
        assert 1 <= len(dealt) <= workers
        # A single share runs in the calling process.
        assert context.children == (len(dealt) if len(dealt) > 1 else 0)
        if (q, workers) == (5, 2):
            assert context.children == 2
        assert [r.code for r in report.ranked] == [r.code for r in search_all(spec).ranked]

    @pytest.mark.parametrize("cpus, workers", [(None, 10 ** 6), (1, 10 ** 6), (2, 10 ** 6),
                                               (8, 10 ** 6), (8, 8), (8, 3)])
    def test_children_capped_at_cpu_count(self, cpus, workers, monkeypatch):
        context = _RecordingContext()
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
        monkeypatch.setattr(search_mod.os, "cpu_count", lambda: cpus)
        spec = _tiny_spec(7)
        report = search_all(spec, workers=workers)
        shares = min(workers, cpus or 1)
        # A single share runs in the calling process.
        assert context.children == (shares if shares > 1 else 0)
        assert [(r.code, r.objective) for r in report.ranked] == \
            [(r.code, r.objective) for r in search_all(spec).ranked]

    def test_children_are_joined(self, monkeypatch):
        _fork_at_first_level(monkeypatch)
        report = search_all(_tiny_spec(6), workers=2)
        assert report.ranked
        assert multiprocessing.active_children() == []

    def test_child_exception_keeps_its_type(self, monkeypatch):
        caller = os.getpid()
        sweep = search_mod._sweep

        def degenerate_in_children(tree, f):
            if os.getpid() != caller:
                raise DegeneracyError("forced in a child")
            return sweep(tree, f)

        monkeypatch.setattr(search_mod, "_sweep", degenerate_in_children)
        _fork_at_first_level(monkeypatch)
        with pytest.raises(DegeneracyError, match="forced in a child"):
            search_all(_tiny_spec(6), workers=2)
        assert multiprocessing.active_children() == []

    def test_child_without_result_is_an_error(self, monkeypatch):
        caller = os.getpid()
        evaluate = search_mod._evaluate_tree

        def exit_in_children(*args):
            if os.getpid() != caller:
                os._exit(7)
            return evaluate(*args)

        monkeypatch.setattr(search_mod, "_evaluate_tree", exit_in_children)
        _fork_at_first_level(monkeypatch)
        with pytest.raises(RuntimeError, match=r"share \d of 2 exited with code 7"):
            search_all(_tiny_spec(6), workers=2)
        assert multiprocessing.active_children() == []

    def test_cli_exits_3_when_a_child_degenerates(self, tmp_path, monkeypatch, capsys):
        caller = os.getpid()
        child_bounds = search_mod._child_bounds

        # Here the children score no tree the beam has not scored, and sweep
        # no block, but each bounds the children of its rows.
        def degenerate_in_children(rows, u, above, base):
            if os.getpid() != caller:
                raise DegeneracyError("forced in a child")
            return child_bounds(rows, u, above, base)

        monkeypatch.setattr(search_mod, "_child_bounds", degenerate_in_children)
        _fork_at_first_level(monkeypatch)
        matrix = tmp_path / "m.csv"
        np.savetxt(matrix, np.random.default_rng(1).standard_normal((6, 2)), delimiter=",")
        assert main(["search", str(matrix), "--workers", "2"]) == 3
        assert "forced in a child" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -3, 2.5, "2"])
    def test_non_positive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            search_all(SearchSpec(fhat=np.zeros((3, 1))), workers=workers)

    def test_cli_workers_zero_exits_2(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("0.5\n0.3\n0.1\n")
        assert main(["search", str(matrix), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

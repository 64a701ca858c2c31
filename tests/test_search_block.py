"""Tests for the lockstep block search: the block decoder, the block sweep
kernel, the lower bound in front of it, the screen in front of the scalar
core, and the worker pool size."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmproj import SearchSpec, count_trees, search_all
from ppmproj import search as search_mod
from ppmproj.cli import main
from ppmproj.generate import random_instance
from ppmproj.projection import _lower_bound_block, _sweep, _sweep_block
from ppmproj.search import (
    _SCREEN_SLACK,
    _evaluate_tree,
    index_to_code,
    resolve_penalty,
    resolve_scaling,
)
from ppmproj.tree import _tree_from_parent, decode_prufer, decode_prufer_block, encode_prufer


def all_codes(q):
    total = count_trees(q)
    codes = [index_to_code(i, q) for i in range(total)]
    return np.array(codes, dtype=np.int64).reshape(total, max(q - 2, 0))


def custom_penalty(tree):
    return 0.05 * len(tree.children[1]) + 0.01 * tree.parent[tree.q]


def reference_ranking(spec):
    """Every tree scored by ``_evaluate_tree``, sorted by (objective, code)."""
    q = spec.q
    fcols = [[0.0] + spec.fhat[:, s].tolist() for s in range(spec.fhat.shape[1])]
    jfn = resolve_scaling(spec.scaling)
    penalty = resolve_penalty(spec.penalty)
    rows = []
    for index in range(count_trees(q)):
        code = index_to_code(index, q)
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


class TestDecodePruferBlock:
    @pytest.mark.parametrize("q", range(1, 8))
    def test_parents_equal_scalar_decoder(self, q):
        codes = all_codes(q)
        parent, order, depth = decode_prufer_block(codes, q)
        assert parent.shape == depth.shape == (len(codes), q + 1)
        assert order.shape == (len(codes), q)
        for row, code in zip(parent.tolist(), codes.tolist()):
            assert tuple(row) == decode_prufer(code, q).parent

    @pytest.mark.parametrize("q", range(1, 8))
    def test_order_puts_parents_before_children(self, q):
        parent, order, depth = decode_prufer_block(all_codes(q), q)
        assert (np.sort(order, axis=1) == np.arange(1, q + 1)).all()
        rows = np.arange(len(order))[:, None]
        position = np.zeros_like(parent)
        position[rows, order] = np.arange(q)
        assert (order[:, 0] == 1).all()
        assert (position[rows, parent[:, 2:]] < position[:, 2:]).all()
        assert (depth[:, :2] == 0).all()
        assert (depth[:, 2:] == depth[rows, parent[:, 2:]] + 1).all()
        assert (np.diff(depth[rows, order], axis=1) >= 0).all()


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
        parent, order, _ = decode_prufer_block(codes, q)
        scalar_trees = [decode_prufer(c, q) for c in codes.tolist()]
        fhat = self.columns(kind, np.random.default_rng(7))
        for s in range(fhat.shape[1]):
            col = [0.0] + fhat[:, s].tolist()
            cost2, uncertified = _sweep_block(parent, order, np.array(col))
            assert cost2.shape == uncertified.shape == (len(codes),)
            assert not uncertified.any()
            for got, tree in zip(cost2.tolist(), scalar_trees):
                want = _sweep(tree, col)[4]
                assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_non_finite_cost_is_uncertified(self):
        parent, order, _ = decode_prufer_block(all_codes(4), 4)
        cost2, uncertified = _sweep_block(parent, order,
                                          np.array([0.0, 0.5, np.nan, 0.1, 0.2]))
        assert uncertified.all()


def lower_bounds_and_costs(q, fhat):
    """Block bound and scalar squared cost of every column on every tree at q,
    each a (trees, p) array."""
    fblock = np.zeros((fhat.shape[1], q + 1))
    fblock[:, 1:] = fhat.T
    parent, _, depth = decode_prufer_block(all_codes(q), q)
    bound = _lower_bound_block(parent, depth, fblock)
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
        parent, _, depth = decode_prufer_block(np.array([code]), q)
        bound = _lower_bound_block(parent, depth, np.array([f]))[0, 0]
        cost2 = _sweep(decode_prufer(code, q), f)[4]
        assert math.sqrt(bound) * (1.0 - _SCREEN_SLACK) <= math.sqrt(cost2)


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
        # The best tree gets a NaN cost, the worst an uncertified flag.
        best, worst = (decode_prufer(ranking[i][1], q).parent for i in (0, -1))
        sweep_block = search_mod._sweep_block

        def spoiled(parent, order, f):
            cost2, uncertified = sweep_block(parent, order, f)
            cost2[(parent == best).all(axis=1)] = np.nan
            uncertified[(parent == worst).all(axis=1)] = True
            return cost2, uncertified

        evaluate = search_mod._evaluate_tree
        rescored = []

        def recording(tree, *args):
            rescored.append(tree.parent)
            return evaluate(tree, *args)

        monkeypatch.setattr(search_mod, "_sweep_block", spoiled)
        monkeypatch.setattr(search_mod, "_evaluate_tree", recording)
        # A zero bound lets the worst tree through to the block sweep.
        monkeypatch.setattr(search_mod, "_lower_bound_block",
                            lambda parent, depth, fblock: np.zeros((len(parent), len(fblock))))
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
        exact = {code: obj for obj, code, *_ in reference_ranking(spec)}
        bound_block = search_mod._lower_bound_block
        sweep_block = search_mod._sweep_block
        blocks = []

        def recording_bound(parent, depth, fblock):
            bound = bound_block(parent, depth, fblock)
            lower = search_mod._lower_objective(np.sqrt(bound.sum(axis=1)), 0.0, np.asarray)
            blocks.append(({tuple(r): b for r, b in zip(parent.tolist(), lower)}, set()))
            return bound

        def recording_sweep(parent, order, f):
            blocks[-1][1].update(map(tuple, parent.tolist()))
            return sweep_block(parent, order, f)

        monkeypatch.setattr(search_mod, "_BLOCK", 1000)
        monkeypatch.setattr(search_mod, "_lower_bound_block", recording_bound)
        monkeypatch.setattr(search_mod, "_sweep_block", recording_sweep)
        report = search_all(spec)
        assert_ranking_equals(report, reference_ranking(spec)[:k])
        assert report.trees_swept == sum(len(swept) for _, swept in blocks)
        assert report.trees_swept <= 0.01 * report.trees_evaluated

        # Each block sweeps its k lowest-bound trees, then only trees whose
        # lower bound reaches the bar: at most the k-th best objective of
        # the blocks before it.
        seen = []
        for lower, swept in blocks:
            first = sorted(lower.values())[min(k, len(lower)) - 1]
            bar = sorted(seen)[k - 1] if len(seen) >= k else math.inf
            assert all(lower[row] <= max(first, bar) for row in swept)
            seen.extend(exact[encode_prufer(_tree_from_parent(row))] for row in lower)


class _SerialPool:
    def __init__(self, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class _RecordingContext:
    """Stands in for a multiprocessing context: records each pool's size
    and maps in this process, so that no process is started."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes, initializer, initargs):
        self.processes.append(processes)
        return _SerialPool(initializer, initargs)


class TestWorkerCount:
    @pytest.mark.parametrize("q, workers, expected", [
        (3, 8, [3]), (4, 10 ** 6, [16]), (5, 2, [2]), (5, 1, [])])
    def test_pool_has_one_process_per_range(self, q, workers, expected, monkeypatch):
        context = _RecordingContext()
        monkeypatch.setattr(search_mod.mp, "get_context", lambda method: context)
        spec = SearchSpec(fhat=np.random.default_rng(0).standard_normal((q, 1)), k=2)
        report = search_all(spec, workers=workers)
        assert context.processes == expected
        assert [r.code for r in report.ranked] == [r.code for r in search_all(spec).ranked]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_non_positive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            search_all(SearchSpec(fhat=np.zeros((3, 1))), workers=workers)

    def test_cli_workers_zero_exits_2(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("0.5\n0.3\n0.1\n")
        assert main(["search", str(matrix), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

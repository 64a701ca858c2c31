"""Tests for the lockstep block search: the block decoder, the block sweep
kernel, the screen in front of the scalar core, and the worker pool size."""

import numpy as np
import pytest

from ppmproj import SearchSpec, count_trees, search_all
from ppmproj import search as search_mod
from ppmproj.cli import main
from ppmproj.generate import random_instance
from ppmproj.projection import _sweep, _sweep_block
from ppmproj.search import (
    _evaluate_tree,
    index_to_code,
    resolve_penalty,
    resolve_scaling,
)
from ppmproj.tree import decode_prufer, decode_prufer_block


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
        parent, order = decode_prufer_block(codes, q)
        assert parent.shape == (len(codes), q + 1)
        assert order.shape == (len(codes), q)
        for row, code in zip(parent.tolist(), codes.tolist()):
            assert tuple(row) == decode_prufer(code, q).parent

    @pytest.mark.parametrize("q", range(1, 8))
    def test_order_puts_parents_before_children(self, q):
        parent, order = decode_prufer_block(all_codes(q), q)
        assert (np.sort(order, axis=1) == np.arange(1, q + 1)).all()
        rows = np.arange(len(order))[:, None]
        position = np.zeros_like(parent)
        position[rows, order] = np.arange(q)
        assert (order[:, 0] == 1).all()
        assert (position[rows, parent[:, 2:]] < position[:, 2:]).all()


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
        parent, order = decode_prufer_block(codes, q)
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
        parent, order = decode_prufer_block(all_codes(4), 4)
        cost2, uncertified = _sweep_block(parent, order,
                                          np.array([0.0, 0.5, np.nan, 0.1, 0.2]))
        assert uncertified.all()


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
        spec = SearchSpec(fhat=fhat, k=self.K, scaling=scaling, penalty=penalty)
        reference = reference_ranking(spec)[:self.K]
        for block in (1, 7, 8192):
            monkeypatch.setattr(search_mod, "_BLOCK", block)
            for workers in (1, 2, 8):
                report = search_all(spec, workers=workers)
                assert_ranking_equals(report, reference)
                assert len(reference) <= report.trees_rescored <= count_trees(q)

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

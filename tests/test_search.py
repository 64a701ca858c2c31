"""Tests for exhaustive tree search, objectives, and relation comparison."""

import itertools

import numpy as np
import pytest

from ppmproj import (
    RootedTree,
    SearchSpec,
    compare_relations,
    count_trees,
    decode_prufer,
    objective,
    oracle_project,
    search_all,
)
from ppmproj import search as search_mod
from ppmproj.generate import random_instance
from ppmproj.projection import DegeneracyError
from ppmproj.search import CATEGORIES, _deal, _Walk


def all_codes(q):
    """Every Prüfer code at q, in lexicographic order."""
    return list(itertools.product(range(1, q + 1), repeat=q - 2))


class TestEnumeration:
    def test_walk_reaches_every_tree_once(self, monkeypatch):
        # A callable penalty has no floor, so no partial tree is dropped and
        # every complete tree reaches the leaf steps, once.
        leaves = search_mod._Walk._leaves
        reached = []

        def recording(walk, rows):
            reached.extend(map(tuple, rows.parent.tolist()))
            return leaves(walk, rows)

        monkeypatch.setattr(search_mod._Walk, "_leaves", recording)
        spec = SearchSpec(fhat=np.random.default_rng(2).standard_normal((5, 2)), k=3,
                          penalty=lambda tree: 0.0)
        search_all(spec)
        assert sorted(reached) == sorted(decode_prufer(code, 5).parent
                                         for code in all_codes(5))

    def test_ties_break_by_lexicographic_code(self):
        # With F̂ = 0 every tree projects onto m = e_1 at the same cost.
        report = search_all(SearchSpec(fhat=np.zeros((5, 2)), k=10))
        assert len({entry.objective for entry in report.ranked}) == 1
        assert [entry.code for entry in report.ranked] == all_codes(5)[:10]

    def test_partition_exact_cover(self):
        walk = _Walk(SearchSpec(fhat=np.random.default_rng(3).standard_normal((6, 2))))
        walk.first_bar()
        rows, u = walk.open_rows()
        # Whole levels are expanded while one fits in a step of the walk.
        assert len(rows) > walk.step or u > 6
        for workers in (1, 2, 3, 8, 50):
            shares = _deal(rows, workers)
            assert len(shares) == min(workers, len(rows))
            assert max(map(len, shares)) - min(map(len, shares)) <= 1
            covered = sorted(row for share in shares
                             for row in map(tuple, share.parent.tolist()))
            assert covered == sorted(map(tuple, rows.parent.tolist()))
            # Each share stays in bound order, as the walk expects.
            for share in shares:
                assert (np.diff(share.bound.sum(axis=1)) >= 0).all()


class TestSearchAll:
    def test_q2_single_tree(self):
        spec = SearchSpec(fhat=np.array([[0.8], [0.3]]))
        report = search_all(spec)
        assert report.trees_evaluated == 1
        assert report.ranked[0].code == ()

    def test_q1_single_tree(self):
        report = search_all(SearchSpec(fhat=np.array([[0.4]])))
        assert report.trees_evaluated == 1
        assert report.ranked[0].m_star.ravel() == pytest.approx([1.0], abs=1e-12)

    def test_noiseless_recovers_ground_truth(self):
        from ppmproj import project_matrix
        rng = np.random.default_rng(0)
        tree, fhat = random_instance(6, p=2, rng=rng, feasible=True)
        report = search_all(SearchSpec(fhat=fhat, k=3))
        assert report.trees_evaluated == count_trees(6)
        assert report.ranked[0].cost <= 1e-9
        # The generating tree itself sits in the zero-cost set.
        _, truth_cost = project_matrix(tree, fhat)
        assert truth_cost <= 1e-9

    def test_rank1_cost_matches_oracle(self):
        rng = np.random.default_rng(1)
        fhat = rng.standard_normal((5, 2))
        report = search_all(SearchSpec(fhat=fhat, k=1))
        best = report.ranked[0]
        tree = decode_prufer(best.code, 5)
        oracle_cost = np.sqrt(sum(
            oracle_project(tree, fhat[:, s]).cost ** 2 for s in range(2)))
        assert best.cost == pytest.approx(oracle_cost, abs=1e-9)

    def test_deterministic_across_worker_counts(self):
        rng = np.random.default_rng(2)
        fhat = rng.standard_normal((6, 2))
        spec = SearchSpec(fhat=fhat, k=4)
        outputs = []
        for workers in (1, 2, 8):
            report = search_all(spec, workers=workers)
            outputs.append([(r.code, r.objective, r.cost) for r in report.ranked])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_k_entries_returned(self):
        rng = np.random.default_rng(3)
        fhat = rng.standard_normal((5, 1))
        report = search_all(SearchSpec(fhat=fhat, k=5))
        assert len(report.ranked) == 5
        objs = [r.objective for r in report.ranked]
        assert objs == sorted(objs)

    def test_monotone_scaling_preserves_argmin(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            fhat = rng.standard_normal((5, 1))
            a = search_all(SearchSpec(fhat=fhat, k=3, scaling="identity"))
            b = search_all(SearchSpec(fhat=fhat, k=3, scaling="square"))
            assert [r.code for r in a.ranked] == [r.code for r in b.ranked]

    def test_refuses_large_q(self):
        with pytest.raises(ValueError, match="force") as refused:
            search_all(SearchSpec(fhat=np.zeros((12, 1))))
        # One check serves the API and the CLI, so its message names both.
        assert "12^10" in str(refused.value)
        assert "force=True" in str(refused.value)
        assert "--force" in str(refused.value)

    def test_overflowing_scale_raises_in_place_of_an_empty_ranking(self):
        # At |F| near 1e160 the bound's squares overflow and every lower
        # objective is NaN, so no tree can be ranked.
        fhat = 1e160 * np.random.default_rng(0).random((5, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegeneracyError, match="0 of 3 trees"):
                search_all(SearchSpec(fhat=fhat, k=3))

    def test_solutions_match_direct_projection(self):
        from ppmproj import project_matrix
        rng = np.random.default_rng(5)
        fhat = rng.standard_normal((5, 2))
        report = search_all(SearchSpec(fhat=fhat, k=2))
        for entry in report.ranked:
            tree = decode_prufer(entry.code, 5)
            results, total = project_matrix(tree, fhat)
            assert entry.cost == pytest.approx(total, abs=1e-10)
            direct_m = np.column_stack([r.m_star for r in results])
            assert entry.m_star == pytest.approx(direct_m, abs=1e-10)


class TestObjective:
    def test_identity_zero_penalty(self):
        t = decode_prufer((1, 1), 4)
        spec = SearchSpec(fhat=np.zeros((4, 1)))
        assert objective(0.5, t, spec) == 0.5

    def test_square(self):
        t = decode_prufer((1, 1), 4)
        spec = SearchSpec(fhat=np.zeros((4, 1)), scaling="square")
        assert objective(0.5, t, spec) == pytest.approx(0.25)

    def test_leaf_penalty_on_star(self):
        star = RootedTree.from_parent_array([0, 1, 1, 1])
        spec = SearchSpec(fhat=np.zeros((4, 1)), penalty="leaves:0.1")
        assert objective(0.5, star, spec) == pytest.approx(0.8)

    def test_custom_callables(self):
        t = decode_prufer((1, 1), 4)
        spec = SearchSpec(fhat=np.zeros((4, 1)),
                          scaling=lambda c: 2 * c,
                          penalty=lambda tree: tree.q * 1.0)
        assert objective(0.5, t, spec) == pytest.approx(5.0)

    @pytest.mark.parametrize("scaling", ["identity", "log1p", "square"])
    @pytest.mark.parametrize("penalty", [
        "zero", "leaves:0.3",
        lambda tree: 0.05 * len(tree.children[1]) + 0.01 * tree.parent[tree.q]])
    def test_search_scores_every_tree_as_objective_does(self, scaling, penalty):
        rng = np.random.default_rng(4)
        received = []
        if callable(penalty):
            user_penalty = penalty

            def penalty(tree):
                received.append(tree)
                return user_penalty(tree)
        spec = SearchSpec(fhat=rng.standard_normal((5, 2)), k=count_trees(5),
                          scaling=scaling, penalty=penalty)
        report = search_all(spec)
        assert len(report.ranked) == 125
        if callable(penalty):
            # The callable sees every tree as decode_prufer builds it; the
            # beam's trees, scored for the first bar, it sees twice.
            assert set(received) == {decode_prufer(code, 5) for code in all_codes(5)}
        for entry in report.ranked:
            tree = decode_prufer(entry.code, 5)
            assert entry.objective == objective(entry.cost, tree, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frequencies_rejected(self, bad):
        fhat = np.full((4, 2), 0.5)
        fhat[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SearchSpec(fhat=fhat)

    def test_three_dimensional_frequencies_rejected(self):
        with pytest.raises(ValueError, match="3-D"):
            SearchSpec(fhat=np.zeros((4, 2, 1)))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0,)])
    def test_empty_frequencies_rejected(self, shape):
        with pytest.raises(ValueError, match="q >= 1 rows and p >= 1 columns"):
            SearchSpec(fhat=np.zeros(shape))

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(fhat=np.zeros((3, 1)), k=0)
        with pytest.raises(ValueError):
            SearchSpec(fhat=np.zeros((3, 1)), scaling="cube")
        with pytest.raises(ValueError):
            SearchSpec(fhat=np.zeros((3, 1)), penalty="edges")

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            SearchSpec(fhat=np.zeros((3, 1)), k=k)

    def test_numpy_integer_k_accepted(self):
        fhat = np.array([[0.9], [0.5], [0.3], [0.2]])
        ranked = search_all(SearchSpec(fhat=fhat, k=np.int64(2))).ranked
        assert len(ranked) == 2

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_leaf_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="finite"):
            SearchSpec(fhat=np.zeros((3, 1)), penalty=f"leaves:{weight}")


class TestCompareRelations:
    def test_identical_trees_no_errors(self):
        tree = decode_prufer((2, 2), 4)
        assignment = {1: [10], 2: [20, 21], 3: [30], 4: [40]}
        cmp = compare_relations(tree, assignment, tree, assignment)
        assert cmp.mismatched_pairs == 0
        assert all(v == 0.0 for v in cmp.error_fractions.values())
        n = sum(len(v) for v in assignment.values())
        assert cmp.total_pairs == n * (n - 1) // 2
        assert sum(cmp.reference_counts.values()) == cmp.total_pairs
        assert sum(cmp.candidate_counts.values()) == cmp.total_pairs

    def test_ancestor_versus_clustered_is_one_mistake(self):
        # Reference clusters mutations 63 and 57 on one node; the candidate
        # puts 63 at the root above 57, an ancestral call, hence one error.
        reference = RootedTree.from_parent_array([0, 1])
        ref_map = {1: [63, 57], 2: [99]}
        candidate = RootedTree.from_parent_array([0, 1])
        cand_map = {1: [63], 2: [57, 99]}
        cmp = compare_relations(candidate, cand_map, reference, ref_map)
        assert cmp.mismatches["clustered"] == 1
        assert cmp.error_fractions["clustered"] == 1.0

    def test_missing_mutation_category(self):
        reference = RootedTree.from_parent_array([0, 1])
        ref_map = {1: [1], 2: [2, 3]}
        candidate = RootedTree.from_parent_array([0, 1])
        cand_map = {1: [1], 2: [2]}  # mutation 3 missing from the candidate
        cmp = compare_relations(candidate, cand_map, reference, ref_map)
        assert cmp.candidate_counts["missing"] == 2

    def test_random_guess_quarter_correct(self):
        # Uniformly random candidate categories match the reference about a
        # quarter of the time on average.
        rng = np.random.default_rng(6)
        trials = 400
        hits = 0
        total = 0
        for _ in range(trials):
            ref_cat = CATEGORIES[rng.integers(0, 4)]
            cand_cat = CATEGORIES[rng.integers(0, 4)]
            total += 1
            hits += ref_cat == cand_cat
        assert hits / total == pytest.approx(0.25, abs=0.06)

"""Tests of the benchmark's verifier and inputs.

    python3 -m pytest perfbench/test_verify.py -q
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import inputs
import verify
from checkout import load_ppmproj

ppm = load_ppmproj()


@pytest.fixture(params=inputs.REGIMES)
def column(request):
    rng = inputs.rng_for(7, 0)
    parents = inputs.branching_parents(60, rng)
    fhat = inputs.frequencies(request.param, parents, 60, 1, rng)[:, 0]
    tree = ppm.RootedTree.from_parent_array(parents)
    return tree, verify.TreeView(parents), fhat


def test_certificate_passes_exact_results_and_flags_shifted_m(column):
    tree, view, fhat = column
    res = ppm.project(tree, fhat)
    failures, worst = verify.certify(view, fhat, res.m_star, res.f_star, res.cost)
    assert failures == [] and worst < 1e-3

    m = res.m_star.copy()
    m[int(np.argmax(m))] += 1e-6
    failures, _ = verify.certify(view, fhat, m, res.f_star, res.cost)
    assert any(msg.startswith("sum(m) = 1") for msg in failures)
    assert any(msg.startswith("f = U m") for msg in failures)


def test_certificate_flags_a_non_optimal_feasible_point(column):
    tree, view, fhat = column
    m = np.full(view.q, 1.0 / view.q)
    f = inputs.subtree_sums(view.parents, view.order, m)
    failures, _ = verify.certify(view, fhat, m, f, float(np.linalg.norm(fhat - f)))
    assert any(msg.startswith("mu") for msg in failures)


def test_agreement_flags_diverging_solvers(column):
    tree, view, fhat = column
    a = ppm.project(tree, fhat)
    b = ppm.project_incremental(tree, fhat)
    tau = view.tolerance(fhat)
    assert verify.agree(a, b, tau) == []
    b.m_star = b.m_star + 1e-6
    assert verify.agree(a, b, tau)


def test_search_check_flags_swapped_ranking_and_wrong_cost():
    parents, fhat = inputs.search_instance("nearfeasible", 5, 3, seed=3, index=0)
    report = ppm.search_all(ppm.SearchSpec(fhat=fhat, k=3), workers=1)
    assert verify.check_search(ppm, report, fhat, 3, parents) == []

    swapped = copy.deepcopy(report)
    swapped.ranked[0], swapped.ranked[1] = swapped.ranked[1], swapped.ranked[0]
    assert "ranking is not sorted by (objective, code)" in verify.check_search(
        ppm, swapped, fhat, 3, parents)

    wrong = copy.deepcopy(report)
    wrong.ranked[0].cost += 1e-6
    assert verify.check_search(ppm, wrong, fhat, 3, parents)


def test_inputs_follow_the_seed():
    def draw(seed):
        return inputs.projection_round("nearfeasible", tuple(inputs.SHAPES), 40, 2, seed, 1)

    first, again, other = draw(5), draw(5), draw(6)
    for (s1, p1, f1), (s2, p2, f2) in zip(first, again):
        assert s1 == s2 and p1 == p2 and np.array_equal(f1, f2)
        ppm.RootedTree.from_parent_array(p1)
    assert any(not np.array_equal(f1, f2) for (_, _, f1), (_, _, f2) in zip(first, other))


def test_reference_prufer_decode_matches_the_library():
    rng = inputs.rng_for(1)
    for q in (3, 5, 9):
        for _ in range(20):
            code = rng.integers(1, q + 1, size=q - 2).tolist()
            assert inputs.prufer_decode(code, q) == list(ppm.decode_prufer(code, q).parent[1:])

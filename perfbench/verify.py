"""Checks the benchmark applies to every timed result, in the benchmark's own code.

A projection of column F̂ onto {U m : m >= 0, sum(m) = 1} is certified in
O(q) by its KKT conditions, with tolerance tau = 1e-9 * max(1, ||n||_inf)
where n = U.T F̂ are the column's ancestor sums:

* primal feasibility: m >= -tau and |sum(m) - 1| <= tau;
* consistency: f* = U m* (subtree sums) and cost = ||F̂ - f*||;
* dual feasibility and complementary slackness: with
  mu = U.T (f* - F̂) + lambda and lambda chosen so that mu = 0 at argmax m,
  mu >= -tau and |mu . m| <= tau.

Each check returns a list of failure messages; an empty list means the
result passed.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import ancestor_sums, bfs_order, prufer_decode, subtree_sums

REL_TOL = 1e-9


class TreeView:
    """Parent array plus BFS order, all the checks need to walk a tree."""

    def __init__(self, parents):
        self.parents = list(parents)
        self.order = bfs_order(self.parents)
        self.q = len(self.parents)

    def tolerance(self, fhat_col) -> float:
        n = ancestor_sums(self.parents, self.order, fhat_col)
        return REL_TOL * max(1.0, float(np.max(np.abs(n))))


def certify(view: TreeView, fhat_col, m, f, cost=None, tau=None):
    """KKT certificate of one projected column; ``(failures, worst)``.

    ``worst`` is the largest residual as a share of tau, so values below 1
    pass.  ``cost`` is skipped when None (search reports only a total).
    """
    fhat_col = np.asarray(fhat_col, dtype=float)
    m = np.asarray(m, dtype=float)
    f = np.asarray(f, dtype=float)
    if tau is None:
        tau = view.tolerance(fhat_col)
    if m.shape != (view.q,) or f.shape != (view.q,):
        return [f"result shapes {m.shape}, {f.shape} != ({view.q},)"], math.inf
    residuals = {
        "m >= 0": max(0.0, -float(m.min())),
        "sum(m) = 1": abs(float(m.sum()) - 1.0),
        "f = U m": float(np.max(np.abs(f - subtree_sums(view.parents, view.order, m)))),
    }
    if cost is not None:
        residuals["cost = |F - f|"] = abs(float(cost) - float(np.linalg.norm(fhat_col - f)))
    g = ancestor_sums(view.parents, view.order, f - fhat_col)
    mu = g - g[int(np.argmax(m))]
    residuals["mu >= 0"] = max(0.0, -float(mu.min()))
    residuals["mu . m = 0"] = abs(float(mu @ m))
    failures = [f"{name}: residual {r:.3g} > tau {tau:.3g}"
                for name, r in residuals.items() if not r <= tau]
    return failures, max(residuals.values()) / tau


def agree(a, b, tau):
    """``project`` and ``project_incremental`` results agree within tau."""
    failures = []
    dm = float(np.max(np.abs(np.asarray(a.m_star) - np.asarray(b.m_star))))
    if not dm <= tau:
        failures.append(f"m_star differs by {dm:.3g} > tau {tau:.3g}")
    dc = abs(float(a.cost) - float(b.cost))
    if not dc <= tau:
        failures.append(f"cost differs by {dc:.3g} > tau {tau:.3g}")
    return failures


def search_tolerance(fhat) -> float:
    """tau for a whole search: bounds ||n||_inf of every tree and column."""
    return REL_TOL * max(1.0, float(np.max(np.sum(np.abs(fhat), axis=0))))


def check_search(ppm, report, fhat, k, planted_parents):
    """Verify a ``search_all`` report for identity scaling and zero penalty.

    Every reported tree is re-projected with ``project_matrix`` and its
    reported columns are certified; the ranking must be sorted by
    (objective, code) and its best objective may not exceed the planted
    tree's.
    """
    fhat = np.asarray(fhat, dtype=float)
    q, p = fhat.shape
    tau = search_tolerance(fhat)
    failures = []
    total = q ** (q - 2) if q > 2 else 1
    if report.trees_evaluated != total:
        failures.append(f"evaluated {report.trees_evaluated} trees, expected {total}")
    ranked = list(report.ranked)
    if len(ranked) != min(k, total):
        failures.append(f"reported {len(ranked)} trees, expected {min(k, total)}")
    keys = [(float(r.objective), tuple(int(c) for c in r.code)) for r in ranked]
    if keys != sorted(keys):
        failures.append("ranking is not sorted by (objective, code)")
    for r in ranked:
        code = tuple(int(c) for c in r.code)
        parents = prufer_decode(code, q)
        tree = ppm.decode_prufer(code, q)
        if list(tree.parent[1:]) != parents:
            failures.append(f"decode_prufer{code} disagrees with the reference decode")
            continue
        _, reprojected = ppm.project_matrix(tree, fhat)
        if not abs(reprojected - r.cost) <= tau:
            failures.append(f"tree {code}: cost {r.cost!r} but re-projection gives {reprojected!r}")
        if not abs(r.objective - r.cost) <= tau:
            failures.append(f"tree {code}: objective {r.objective!r} != cost {r.cost!r}")
        view = TreeView(parents)
        m_all = np.asarray(r.m_star, dtype=float).reshape(q, p)
        f_all = np.asarray(r.f_star, dtype=float).reshape(q, p)
        for s in range(p):
            bad, _ = certify(view, fhat[:, s], m_all[:, s], f_all[:, s], tau=tau)
            failures.extend(f"tree {code} column {s}: {b}" for b in bad)
        cost = math.sqrt(float(np.sum((fhat - f_all) ** 2)))
        if not abs(cost - r.cost) <= tau:
            failures.append(f"tree {code}: cost {r.cost!r} but |F - f*| = {cost!r}")
    planted = ppm.RootedTree.from_parent_array(planted_parents)
    _, planted_cost = ppm.project_matrix(planted, fhat)
    if ranked and not ranked[0].objective <= planted_cost + tau:
        failures.append(f"best objective {ranked[0].objective!r} exceeds the "
                        f"planted tree's {planted_cost!r}")
    return failures

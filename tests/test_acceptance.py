"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not tuned at runtime.
"""

import os
import statistics
import time

import numpy as np

from ppmproj import (
    RootedTree,
    ancestor_sums,
    ancestry_matrix,
    closest_ancestor_matrix,
    count_trees,
    oracle_dual_at_t,
    oracle_project,
    polyhedron_project,
    project,
    project_incremental,
    project_matrix,
    search_all,
    SearchSpec,
    SolverConfig,
)
from ppmproj.baselines import SOLVERS, TreeOps, autotune, pgd_primal
from ppmproj.bench import default_grid, make_instance
from ppmproj.generate import (
    GaltonWatsonSpec,
    galton_watson_tree,
    random_instance,
    random_labeled_tree,
)
from test_baselines import polyhedron_qp_oracle


def _criterion(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[criterion {num}] {description}: {status}{suffix}")
    assert passed, f"criterion {num} ({description}) failed {suffix}"


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_m = 0.0
    worst_c = 0.0
    for _ in range(1000):
        q = int(rng.integers(1, 11))
        tree = random_labeled_tree(q, rng)
        f = rng.standard_normal(q)
        res = project(tree, f)
        orc = oracle_project(tree, f)
        worst_m = max(worst_m, float(np.max(np.abs(res.m_star - orc.m))))
        worst_c = max(worst_c, abs(res.cost - orc.cost))
    elapsed = time.monotonic() - start
    _criterion(
        1, "oracle equivalence over 1000 random instances",
        worst_m <= 1e-9 and worst_c <= 1e-10 and elapsed <= 120.0,
        f"max M err {worst_m:.2e}, max cost err {worst_c:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_hand_trace_fixture():
    tree = RootedTree.from_parent_array([0, 1])
    res = project(tree, [0.5, 0.7], keep_path=True)
    tol = 1e-12
    checks = [
        abs(res.t_star - (-0.5)) <= tol,
        np.max(np.abs(res.m_star - [0.3, 0.7])) <= tol,
        np.max(np.abs(res.f_star - [1.0, 0.7])) <= tol,
        abs(res.cost - 0.5) <= tol,
        abs(res.path[0].t - 1.2) <= tol,
        abs(res.path[1].t - (-0.2)) <= tol,
        abs(res.path[1].lprime - (-0.7)) <= tol,
    ]
    _criterion(2, "hand-trace fixture at 1e-12", all(checks),
               f"t*={res.t_star!r}, cost={res.cost!r}")


def test_criterion_3_path_structure_suite():
    rng = np.random.default_rng(103)
    ok = True
    detail = ""
    linearity_worst = 0.0
    for case in range(200):
        q = int(rng.integers(1, 13))
        tree = random_labeled_tree(q, rng)
        f = rng.standard_normal(q)
        n = ancestor_sums(tree, f)
        res = project(tree, f, keep_path=True)
        if res.iterations > q:
            ok, detail = False, f"case {case}: {res.iterations} iterations > q={q}"
            break
        for a, b in zip(res.path[:-1], res.path[1:]):
            if not a.boundary <= b.boundary:
                ok, detail = False, f"case {case}: boundary not monotone"
                break
            if a.lprime < b.lprime - 1e-12:
                ok, detail = False, f"case {case}: derivative increased"
                break
        if not ok:
            break
        for state in res.path:
            if np.any(state.z_rate < -1e-12) or np.any(state.z_rate > 1 + 1e-12):
                ok, detail = False, f"case {case}: rate outside [0,1]"
                break
        if not ok:
            break
        segments = list(zip(res.path[:-1], res.path[1:]))
        if segments:
            picks = {0, len(segments) // 2, len(segments) - 1}
            for idx in picks:
                a, b = segments[idx]
                t_mid = 0.5 * (a.t + b.t)
                z_line = a.z + (t_mid - a.t) * a.z_rate
                z_oracle, _ = oracle_dual_at_t(tree, n, t_mid)
                dev = float(np.max(np.abs(z_line - z_oracle)))
                linearity_worst = max(linearity_worst, dev)
                if dev > 1e-9:
                    ok, detail = False, f"case {case}: linearity dev {dev:.2e}"
                    break
        if not ok:
            break
    _criterion(3, "path-structure properties on 200 random instances", ok,
               detail or f"worst mid-segment deviation {linearity_worst:.2e}")


def test_criterion_4_baseline_convergence_and_ordering():
    rng = np.random.default_rng(104)
    tol = 1e-4
    worst = {name: 0.0 for name in SOLVERS}
    for _ in range(50):
        tree = random_labeled_tree(50, rng)
        f = rng.standard_normal(50)
        ref = project_incremental(tree, f).m_star
        for name in SOLVERS:
            grid = default_grid(name, tree, tol, max_iters=30000)
            _, trace = autotune(name, tree, f, grid, reference_m=ref,
                                return_trace=True)
            worst[name] = max(worst[name], trace.final_error)
    part1 = all(err <= tol for err in worst.values())

    exact_times = []
    pgd_times = []
    for trial in range(20):
        _, tree, fhat = make_instance(104, 1000, trial)
        f = fhat[:, 0]
        t0 = time.perf_counter()
        ref = project_incremental(tree, f)
        exact_times.append(time.perf_counter() - t0)
        step = 0.99 / TreeOps(tree).gram_lmax()
        grid = [SolverConfig(alpha=s * step, max_iters=30000, tol=1e-3)
                for s in (1.0, 0.5)]
        cfg = autotune("pgd-primal", tree, f, grid, reference_m=ref.m_star)
        _, trace = pgd_primal(tree, f, cfg, reference_m=ref.m_star)
        reached = trace.time_to(1e-3)
        pgd_times.append(reached if reached is not None else trace.times[-1])
    med_exact = statistics.median(exact_times)
    med_pgd = statistics.median(pgd_times)
    part2 = med_exact < med_pgd

    _criterion(
        4, "baseline convergence at 1e-4 and exact-faster-than-PGD ordering",
        part1 and part2,
        f"worst errors {{{', '.join(f'{k}: {v:.1e}' for k, v in worst.items())}}}, "
        f"median exact {med_exact * 1e3:.1f} ms vs pgd-primal {med_pgd * 1e3:.1f} ms",
    )


def test_criterion_5_scaling_slope():
    sizes = [100, 300, 1000, 3000, 10000]
    trials = [500, 100, 50, 20, 10]
    means = []
    for size, reps in zip(sizes, trials):
        rng = np.random.default_rng(105 + size)
        total = 0.0
        for _ in range(reps):
            tree = galton_watson_tree(GaltonWatsonSpec(q=size), rng=rng)
            f = rng.standard_normal(size)
            t0 = time.perf_counter()
            project_incremental(tree, f)
            total += time.perf_counter() - t0
        means.append(total / reps)
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    _criterion(5, "exact-solver scaling log-log slope < 1.5", slope < 1.5,
               f"slope {slope:.3f}, means "
               + ", ".join(f"q={s}: {m * 1e3:.2f} ms" for s, m in zip(sizes, means)))


def test_criterion_6_exhaustive_search():
    rng = np.random.default_rng(106)
    tree, fhat = random_instance(7, p=2, rng=rng, feasible=True)
    outputs = []
    trees_evaluated = None
    for workers in (1, 2, 8):
        report = search_all(SearchSpec(fhat=fhat, k=3), workers=workers)
        trees_evaluated = report.trees_evaluated
        outputs.append([(r.code, r.objective, r.cost) for r in report.ranked])
    count_ok = trees_evaluated == 16807 == count_trees(7)
    deterministic = outputs[0] == outputs[1] == outputs[2]
    _, truth_cost = project_matrix(tree, fhat)
    recovery = truth_cost <= 1e-9 and outputs[0][0][2] <= 1e-9

    fhat8 = np.random.default_rng(1066).standard_normal((8, 3))
    t0 = time.monotonic()
    report8 = search_all(SearchSpec(fhat=fhat8, k=1), workers=8)
    elapsed8 = time.monotonic() - t0
    throughput = report8.trees_evaluated == 262144 and elapsed8 < 60.0
    # search_all runs at most one worker per CPU.
    used8 = min(8, os.cpu_count() or 1)

    _criterion(
        6, "exhaustive search: count, recovery, determinism, q=8 throughput",
        count_ok and deterministic and recovery and throughput,
        f"q=7 count {trees_evaluated}, q=8 in {elapsed8:.1f}s on {used8} workers",
    )


def test_criterion_7_polyhedron_projection():
    rng = np.random.default_rng(107)
    worst_qp = 0.0
    worst_kkt = 0.0
    counts_ok = True
    for _ in range(500):
        q = int(rng.integers(1, 13))
        a = 2.0 * rng.standard_normal(q)
        b = float(rng.standard_normal())
        n = rng.standard_normal(q)
        (z, t), stats = polyhedron_project(a, b, n, return_stats=True)
        lam = a - z
        slack = t - z - n
        worst_kkt = max(
            worst_kkt,
            float(-np.min(slack)) if np.min(slack) < 0 else 0.0,
            float(-np.min(lam)) if np.min(lam) < 0 else 0.0,
            float(np.max(np.abs(lam * slack))),
            abs((t - b) - lam.sum()),
        )
        z_ref, t_ref = polyhedron_qp_oracle(a, b, n)
        worst_qp = max(worst_qp, float(np.max(np.abs(z - z_ref))), abs(t - t_ref))
        if stats["sorts"] != 1 or stats["scan_steps"] > q:
            counts_ok = False
    _criterion(
        7, "polyhedron projection KKT, QP-oracle agreement, op counts",
        worst_kkt <= 1e-10 and worst_qp <= 1e-8 and counts_ok,
        f"worst KKT {worst_kkt:.2e}, worst vs QP oracle {worst_qp:.2e}",
    )


def test_criterion_8_identities_and_counts():
    rng = np.random.default_rng(108)
    identity_ok = True
    for _ in range(100):
        q = int(rng.integers(2, 17))
        tree = random_labeled_tree(q, rng)
        u = ancestry_matrix(tree)
        tmat = closest_ancestor_matrix(tree)
        if not np.array_equal(u @ (np.eye(q, dtype=np.int64) - tmat),
                              np.eye(q, dtype=np.int64)):
            identity_ok = False
            break
    counts_ok = (count_trees(10) == 100_000_000
                 and count_trees(11) == 2_357_947_691)
    _criterion(8, "ancestry-inverse identity and labeled-tree counts",
               identity_ok and counts_ok,
               "U(I-T)=I exact on 100 trees; q=10 -> 1e8, q=11 -> 2357947691")

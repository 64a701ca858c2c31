"""Benchmark harness: random instances, timed solver runs, CSV rows.

Protocol per (size, trial): grow a branching-process tree, draw standard
normal frequencies, compute the exact reference, then time each requested
solver.  Iterative solvers are autotuned on a small grid first and their
reported time is the wall time at which the error against the exact mutant
fractions first dipped below the target.  All randomness derives from
(seed, size, trial), so every field except the timing column reproduces
byte-for-byte across runs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .baselines import SOLVERS, SolverConfig, TreeOps, autotune, default_step
from .generate import GaltonWatsonSpec, galton_watson_tree
from .projection import project

BENCH_HEADER = "size,solver,trial,seed,time_sec,error,converged"


@dataclass
class BenchRow:
    size: int
    solver: str
    trial: int
    seed: int
    time_sec: float
    error: float
    converged: bool

    def csv(self):
        return (f"{self.size},{self.solver},{self.trial},{self.seed},"
                f"{self.time_sec:.17g},{self.error:.17g},"
                f"{str(self.converged).lower()}")


def trial_seed(base_seed: int, size: int, trial: int) -> int:
    """Stable per-trial seed derived from the run seed, size and trial index."""
    ss = np.random.SeedSequence([base_seed, size, trial])
    return int(ss.generate_state(1)[0])


def make_instance(base_seed: int, size: int, trial: int, cmin=1, cmax=4):
    seed = trial_seed(base_seed, size, trial)
    rng = np.random.default_rng(seed)
    tree = galton_watson_tree(GaltonWatsonSpec(q=size, cmin=cmin, cmax=cmax),
                              rng=rng)
    fhat = rng.standard_normal((size, 1))
    return seed, tree, fhat


def default_grid(solver_id, tree, tol, max_iters):
    """Small per-solver tuning grid; the benchmark always autotunes."""
    if solver_id.startswith("admm"):
        return [SolverConfig(rho=r, alpha=1.0, max_iters=max_iters, tol=tol)
                for r in (0.3, 1.0, 3.0)]
    base = default_step(TreeOps(tree), dual=solver_id == "pgd-dual")
    return [SolverConfig(rho=1.0, alpha=s * base, max_iters=max_iters, tol=tol)
            for s in (1.0, 0.5)]


def run_bench(sizes, solvers, trials, seed, cmin=1, cmax=4,
              tol=1e-3, max_iters=30000, out=None):
    """Run the protocol and return (rows, summary).

    ``summary`` maps (size, solver) to mean time over the trials.  ``out``
    is an optional text file the CSV is streamed to.
    """
    for s in solvers:
        if s != "exact" and s not in SOLVERS:
            raise ValueError(f"unknown solver {s!r}")
    rows = []
    if out is not None:
        out.write(BENCH_HEADER + "\n")
    for size in sizes:
        for trial in range(trials):
            inst_seed, tree, fhat = make_instance(seed, size, trial,
                                                  cmin=cmin, cmax=cmax)
            fcol = fhat[:, 0]
            t0 = time.perf_counter()
            ref = project(tree, fcol)
            exact_time = time.perf_counter() - t0
            for solver_id in solvers:
                if solver_id == "exact":
                    row = BenchRow(size, solver_id, trial, inst_seed,
                                   exact_time, 0.0, True)
                else:
                    grid = default_grid(solver_id, tree, tol, max_iters)
                    _, trace = autotune(solver_id, tree, fcol, grid,
                                        reference_m=ref.m_star,
                                        return_trace=True)
                    reached = trace.time_to(tol)
                    converged = reached is not None
                    elapsed = reached if converged else trace.times[-1]
                    row = BenchRow(size, solver_id, trial, inst_seed,
                                   elapsed, trace.final_error, converged)
                rows.append(row)
                if out is not None:
                    out.write(row.csv() + "\n")
    summary = {}
    for size in sizes:
        for solver_id in solvers:
            times = [r.time_sec for r in rows
                     if r.size == size and r.solver == solver_id]
            if times:
                summary[(size, solver_id)] = statistics.fmean(times)
    return rows, summary

"""One sha256 over a fixed grid of iterative-solver runs, to show that a
change to ``ppmproj.baselines`` leaves every iterate bit-identical.

The grid is the four solvers on ``bench.make_instance`` trees of sizes 1, 2,
7 and 40 (seed 0, trial 0, one column), each run with ``cfg=None`` and with
every ``bench.default_grid`` config (tol 1e-6, at most 3000 iterations),
plus, for the gradient solvers, a step 4 times the default one so that the
divergence guard fires.  Every run goes once against the exact m* and once
on the change between iterates.  Each run contributes the ``float.hex`` of
its returned arrays and scalars, its trace's iterations, errors, objectives
and ``converged`` (not its wall times), or the message of the RuntimeError
it raised.  Then ``autotune`` picks from the same grid, and again from it cut
to 5 iterations, so that nothing converges and the fallback pick is taken;
each pick's index and any warning go in too.

Run it against the source tree to be checked:

    PYTHONPATH=src python tools/baseline_hash.py
"""

import hashlib
import sys
import warnings
from dataclasses import replace

import numpy as np

from ppmproj import autotune, project
from ppmproj.baselines import SOLVERS
from ppmproj.bench import default_grid, make_instance

SIZES = (1, 2, 7, 40)
TOL = 1e-6
MAX_ITERS = 3000
SHORT = 5


def hexes(values):
    return ",".join(float(v).hex() for v in np.ravel(values))


def run_lines(solver_id, tree, f, cfg, reference_m):
    try:
        *arrays, trace = SOLVERS[solver_id](tree, f, cfg, reference_m=reference_m)
    except RuntimeError as exc:
        yield f"raised {exc}"
        return
    for value in arrays:
        yield hexes(value)
    yield ",".join(map(str, trace.iterations))
    yield hexes(trace.errors)
    yield hexes(trace.objectives)
    yield f"converged={trace.converged}"


def add_pick(add, solver_id, tree, f, grid, reference_m):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            pick = autotune(solver_id, tree, f, grid, reference_m=reference_m)
            add(f"autotune pick {[cfg is pick for cfg in grid].index(True)}")
        except RuntimeError as exc:
            add(f"autotune raised {exc}")
    for w in caught:
        add(f"warning {w.message}")


def main():
    digest = hashlib.sha256()

    def add(line):
        digest.update(line.encode() + b"\n")

    for size in SIZES:
        _, tree, fhat = make_instance(0, size, 0)
        f = fhat[:, 0]
        exact = project(tree, f).m_star
        for solver_id in sorted(SOLVERS):
            grid = default_grid(solver_id, tree, TOL, MAX_ITERS)
            if solver_id.startswith("pgd"):
                grid.append(replace(grid[0], alpha=4 * grid[0].alpha))
            for reference_m in (exact, None):
                where = "reference" if reference_m is not None else "successive"
                for i, cfg in enumerate([None, *grid]):
                    add(f"size={size} {solver_id} {where} cfg={i}")
                    for line in run_lines(solver_id, tree, f, cfg, reference_m):
                        add(line)
                for tune in (grid, [replace(cfg, max_iters=SHORT) for cfg in grid]):
                    add_pick(add, solver_id, tree, f, tune, reference_m)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())

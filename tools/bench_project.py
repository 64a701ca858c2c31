"""Time ``project`` on single columns and print one JSON record per
(regime, shape, q).

The columns are the benchmark's (``perfbench/inputs.py``): round r of a
(regime, shape, q) cell is ``projection_round(regime, [shape], q, 1, seed,
r)``, one fresh tree and a q-by-1 column, N(0, 1) or near-feasible
(``U @ M`` plus small noise).  Each record holds the command, the commit of
the imported source tree (``git describe``, null outside a git checkout),
the unscaled wall time of every column in ms, and per column:

* ``segments`` and ``finish_passes``, the sweep's segments and the
  active-set finish's passes, split by a spy on ``projection._active_set``
  (passes are null for a source tree without the finish, whose iterations
  are all segments; a finish that did not certify counts its q + 1
  passes);
* ``nodes_visited``, the nodes that all eliminations of the column visited,
  from ``project(..., counters=)`` in a second, untimed call, so that a
  record shows where a change to the sweep's work lands;
* ``costs``, the projection cost as ``float.hex``, so that records of two
  source trees can be compared bit for bit.

``worst_certificate`` is the largest KKT residual of the columns as a share
of the benchmark's tolerance (``perfbench/verify.py``), so values below 1
pass.  Run it against the source tree to be timed:

    PYTHONPATH=src python tools/bench_project.py --regime nearfeasible --q 300,3000
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import inputs  # noqa: E402
import verify  # noqa: E402
import ppmproj  # noqa: E402
from ppmproj import projection  # noqa: E402
from bench_search import source_commit  # noqa: E402


def finish_spy():
    """Wrap ``projection._active_set`` so that each call's passes are
    recorded; returns the list they go to, or None without a finish."""
    real = getattr(projection, "_active_set", None)
    if real is None:
        return None
    seen = []

    def spy(tree, *args, **kwargs):
        done = real(tree, *args, **kwargs)
        seen.append(tree.q + 1 if done is None else done[2])
        return done

    projection._active_set = spy
    return seen


def nodes_visited(tree, col):
    """Nodes visited by every elimination of one ``project`` call."""
    counters = {}
    ppmproj.project(tree, col, counters=counters)
    return counters.get("nodes_visited", 0)


def cell(regime, shape, q, columns, seed, seen):
    """Time ``columns`` columns of one (regime, shape, q) cell."""
    wall, segments, passes, visited, costs, worst = [], [], [], [], [], 0.0
    for rnd in range(columns):
        ((_, parents, fhat),) = inputs.projection_round(regime, [shape], q, 1, seed, rnd)
        tree = ppmproj.RootedTree.from_parent_array(parents)
        col = fhat[:, 0]
        if seen is not None:
            del seen[:]
        start = time.perf_counter()
        res = ppmproj.project(tree, col)
        wall.append(round((time.perf_counter() - start) * 1e3, 3))
        finish = sum(seen) if seen is not None else None
        passes.append(finish)
        segments.append(res.iterations - (finish or 0))
        visited.append(nodes_visited(tree, col))
        costs.append(float(res.cost).hex())
        _, share = verify.certify(verify.TreeView(parents), col, res.m_star,
                                  res.f_star, res.cost)
        worst = max(worst, share)
    return {
        "wall_ms": wall,
        "wall_ms_median": round(statistics.median(wall), 3),
        "wall_ms_max": max(wall),
        "segments": segments,
        "finish_passes": passes,
        "nodes_visited": visited,
        "costs": costs,
        "worst_certificate": worst,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regime", choices=inputs.REGIMES + ("all",),
                        default="all")
    parser.add_argument("--shapes", default="branching,prufer,chain,star",
                        help="comma-separated, from " + ",".join(inputs.SHAPES))
    parser.add_argument("--q", default="300,1000,3000,10000",
                        help="comma-separated tree sizes")
    parser.add_argument("--columns", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    regimes = inputs.REGIMES if args.regime == "all" else (args.regime,)
    shapes = [s for s in args.shapes.split(",") if s]
    sizes = [int(x) for x in args.q.split(",") if x]
    for shape in shapes:
        if shape not in inputs.SHAPES:
            parser.error(f"--shapes: unknown shape {shape!r}")
    if args.columns < 1 or min(sizes, default=0) < 1:
        parser.error("--columns and every --q must be >= 1")

    command = " ".join(["python", "tools/bench_project.py"]
                       + (sys.argv[1:] if argv is None else list(argv)))
    commit = source_commit()
    seen = finish_spy()
    for regime in regimes:
        for q in sizes:
            for shape in shapes:
                record = {"command": command, "commit": commit,
                          "regime": regime, "shape": shape, "q": q,
                          "columns": args.columns, "seed": args.seed}
                record.update(cell(regime, shape, q, args.columns, args.seed, seen))
                record.update(python=platform.python_version(), cpus=os.cpu_count())
                print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time ``project`` on single columns and print one JSON record per
(regime, shape, q).

The columns are the benchmark's (``perfbench/inputs.py``): round r of a
(regime, shape, q) cell is ``projection_round(regime, [shape], q, 1, seed,
r)``, one fresh tree and a q-by-1 column, N(0, 1) or near-feasible
(``U @ M`` plus small noise).  Each record holds the command, the commit of
the imported source tree (``git describe``, null outside a git checkout),
the unscaled wall time of every column in ms (the median of ``--repeats``
calls), and per column:

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

Cells timed one after the other swing with the host, so a ratio of two
such runs does not back a per-shape claim.  ``--against DIR`` imports a
second source tree, ``DIR/src/ppmproj``, under its own package name and
times both on every column, alternating which goes first, ``--repeats``
calls each.  Its records add the other tree's commit and times
(``against_commit``, ``against_wall_ms``), the per-column ratio of this
tree's time to the other's (``ratio``, with ``ratio_median``), and per
column whether t*, z*, m*, f*, cost and iterations match byte for byte
(``same``):

    PYTHONPATH=src python tools/bench_project.py --q 2000 --repeats 5 --against ../parent
"""

import argparse
import importlib.util
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
from bench_search import source_commit  # noqa: E402


def load_source(root, name="ppmproj_against"):
    """The package ``root/src/ppmproj``, imported as ``name``."""
    pkg = os.path.join(os.path.abspath(root), "src", "ppmproj")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    if spec is None:
        raise FileNotFoundError(f"no package at {pkg}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def finish_spy(package):
    """Wrap ``package.projection._active_set`` so that each call's passes
    are recorded; returns the list they go to, or None without a finish."""
    projection = sys.modules[package.__name__ + ".projection"]
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


def nodes_visited(package, tree, col):
    """Nodes visited by every elimination of one ``project`` call."""
    counters = {}
    package.project(tree, col, counters=counters)
    return counters.get("nodes_visited", 0)


def timed(package, tree, col):
    """``(ms, result)`` of one ``project`` call."""
    start = time.perf_counter()
    res = package.project(tree, col)
    return (time.perf_counter() - start) * 1e3, res


def same_result(a, b):
    """Whether two results agree on t*, z*, m*, f*, cost and iterations,
    byte for byte."""
    return (float(a.t_star).hex() == float(b.t_star).hex()
            and float(a.cost).hex() == float(b.cost).hex()
            and a.z_star.tobytes() == b.z_star.tobytes()
            and a.m_star.tobytes() == b.m_star.tobytes()
            and a.f_star.tobytes() == b.f_star.tobytes()
            and a.iterations == b.iterations)


def cell(regime, shape, q, args, seen, against):
    """Time ``args.columns`` columns of one (regime, shape, q) cell."""
    wall, segments, passes, visited, costs, worst = [], [], [], [], [], 0.0
    other, same = [], []
    for rnd in range(args.columns):
        ((_, parents, fhat),) = inputs.projection_round(regime, [shape], q, 1,
                                                        args.seed, rnd)
        tree = ppmproj.RootedTree.from_parent_array(parents)
        col = fhat[:, 0]
        if against is not None:
            other_tree = against.RootedTree.from_parent_array(parents)
        mine, theirs = [], []
        for rep in range(args.repeats):
            if seen is not None:
                del seen[:]
            if against is not None and (rnd + rep) % 2:
                ms, ref = timed(against, other_tree, col)
                theirs.append(ms)
            ms, res = timed(ppmproj, tree, col)
            mine.append(ms)
            finish = sum(seen) if seen is not None else None
            if against is not None and not (rnd + rep) % 2:
                ms, ref = timed(against, other_tree, col)
                theirs.append(ms)
        wall.append(round(statistics.median(mine), 3))
        if against is not None:
            other.append(round(statistics.median(theirs), 3))
            same.append(same_result(res, ref))
        passes.append(finish)
        segments.append(res.iterations - (finish or 0))
        visited.append(nodes_visited(ppmproj, tree, col))
        costs.append(float(res.cost).hex())
        _, share = verify.certify(verify.TreeView(parents), col, res.m_star,
                                  res.f_star, res.cost)
        worst = max(worst, share)
    record = {
        "wall_ms": wall,
        "wall_ms_median": round(statistics.median(wall), 3),
        "wall_ms_max": max(wall),
        "segments": segments,
        "finish_passes": passes,
        "nodes_visited": visited,
        "costs": costs,
        "worst_certificate": worst,
    }
    if against is not None:
        ratio = [round(a / b, 4) for a, b in zip(wall, other)]
        record.update(against_wall_ms=other, ratio=ratio,
                      ratio_median=round(statistics.median(ratio), 4), same=same)
    return record


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
    parser.add_argument("--repeats", type=int, default=1,
                        help="timed calls per column and source tree")
    parser.add_argument("--against", metavar="DIR",
                        help="a second checkout, timed alternately per column")
    args = parser.parse_args(argv)
    regimes = inputs.REGIMES if args.regime == "all" else (args.regime,)
    shapes = [s for s in args.shapes.split(",") if s]
    sizes = [int(x) for x in args.q.split(",") if x]
    for shape in shapes:
        if shape not in inputs.SHAPES:
            parser.error(f"--shapes: unknown shape {shape!r}")
    if args.columns < 1 or args.repeats < 1 or min(sizes, default=0) < 1:
        parser.error("--columns, --repeats and every --q must be >= 1")
    against = None
    if args.against is not None:
        try:
            against = load_source(args.against)
        except (FileNotFoundError, ImportError) as exc:
            parser.error(f"--against: {exc}")

    command = " ".join(["python", "tools/bench_project.py"]
                       + (sys.argv[1:] if argv is None else list(argv)))
    commit = source_commit()
    seen = finish_spy(ppmproj)
    for regime in regimes:
        for q in sizes:
            for shape in shapes:
                record = {"command": command, "commit": commit,
                          "regime": regime, "shape": shape, "q": q,
                          "columns": args.columns, "seed": args.seed,
                          "repeats": args.repeats}
                if against is not None:
                    record.update(against=args.against,
                                  against_commit=source_commit(against))
                record.update(cell(regime, shape, q, args, seen, against))
                record.update(python=platform.python_version(), cpus=os.cpu_count())
                print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

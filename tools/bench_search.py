"""Time one full exhaustive search and print one JSON record of it.

The instance is the benchmark's search instance (``perfbench/inputs.py``):
a planted uniform Prüfer tree with a q-by-p matrix drawn on it, either
near-feasible (``U @ M`` plus small noise) or N(0, 1).  The record holds the
wall time, the tree counts of the report (``trees_swept`` is null for a
source tree whose report lacks it) and the sha256 of the ranking as
``tools/search_hash.py`` writes it, so that runs of two source trees can be
compared.  Run it against the source tree to be timed:

    PYTHONPATH=src python tools/bench_search.py --regime nearfeasible --q 10
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import inputs  # noqa: E402
import ppmproj  # noqa: E402
from search_hash import report_lines  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regime", choices=inputs.REGIMES, default="nearfeasible")
    parser.add_argument("--q", type=int, default=9)
    parser.add_argument("--p", type=int, default=3)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    parents, fhat = inputs.search_instance(args.regime, args.q, args.p, args.seed, 0)
    spec = ppmproj.SearchSpec(fhat=fhat, k=args.k)
    start = time.perf_counter()
    report = ppmproj.search_all(spec, workers=args.workers, force=True)
    wall = time.perf_counter() - start
    digest = hashlib.sha256()
    for line in report_lines(report):
        digest.update(line.encode() + b"\n")
    record = {
        "regime": args.regime, "q": args.q, "p": args.p, "k": args.k,
        "workers": args.workers, "seed": args.seed,
        "wall_s": round(wall, 3),
        "trees_evaluated": report.trees_evaluated,
        "trees_swept": getattr(report, "trees_swept", None),
        "trees_rescored": report.trees_rescored,
        "report_sha256": digest.hexdigest(),
        "best_code": list(report.ranked[0].code),
        "planted_parents": list(parents),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time one full exhaustive search and print one JSON record of it.

The instance is the benchmark's search instance (``perfbench/inputs.py``):
a planted uniform Prüfer tree with a q-by-p matrix drawn on it, either
near-feasible (``U @ M`` plus small noise) or N(0, 1).  The record holds the
command, the commit of the imported source tree (``git describe``, null
outside a git checkout), the wall time, the counts of the report (null for
a source tree whose report lacks one), the peak resident set of this
process or its largest child, and the sha256 of the ranking as
``tools/search_hash.py`` writes it, so that runs of two source trees can be
compared.  Run it against the source tree to be timed:

    PYTHONPATH=src python tools/bench_search.py --regime nearfeasible --q 10
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import inputs  # noqa: E402
import ppmproj  # noqa: E402
from search_hash import report_lines  # noqa: E402


def source_commit():
    """``git describe`` of the checkout ppmproj was imported from, or None."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=os.path.dirname(os.path.abspath(ppmproj.__file__)),
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def peak_rss_mb():
    """Peak resident set of this process or its largest child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return round(max(own, children) / 1024.0, 1)


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
        "command": " ".join(["python", "tools/bench_search.py"]
                            + (sys.argv[1:] if argv is None else list(argv))),
        "commit": source_commit(),
        "regime": args.regime, "q": args.q, "p": args.p, "k": args.k,
        "workers": args.workers, "seed": args.seed,
        "wall_s": round(wall, 3),
        "trees_evaluated": report.trees_evaluated,
        "trees_swept": getattr(report, "trees_swept", None),
        "trees_rescored": report.trees_rescored,
        "nodes_bounded": getattr(report, "nodes_bounded", None),
        "peak_rss_mb": peak_rss_mb(),
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

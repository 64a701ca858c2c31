"""Two sha256 lines over a fixed grid of exhaustive searches: the first shows
that a change to the search leaves every reported number bit-identical, the
second that it does the same work.

The grid is q = 6 and 7; N(0, 1) and feasible data (p = 3, k = 5); the
identity, log1p and square scalings; the zero, ``leaves:0.3`` and a callable
penalty; and 1, 2 and 8 workers: 108 searches.  The search uses at most
one worker per CPU, so the 8-worker searches deal 8 shares only on a machine
with 8 CPUs or more.  Each search contributes its codes, its objectives and
costs as ``float.hex``, and the sha256 of its m* and f* bytes.

The second line hashes ``trees_swept``, ``trees_rescored`` and
``nodes_bounded`` of the 36 one-worker searches.  These counts are
deterministic and do not depend on the machine; with more workers they
depend on the CPU count, so those searches are left out of this line.

Run it against the source tree to be checked:

    PYTHONPATH=src python tools/search_hash.py
"""

import hashlib
import sys

import numpy as np

from ppmproj import SearchSpec, search_all
from ppmproj.generate import random_instance

QS = (6, 7)
P = 3
K = 5
SCALINGS = ("identity", "log1p", "square")
WORKERS = (1, 2, 8)


def root_fanout_penalty(tree):
    return 0.05 * len(tree.children[1]) + 0.01 * tree.parent[tree.q]


PENALTIES = ("zero", "leaves:0.3", root_fanout_penalty)


def instance(q, kind):
    rng = np.random.default_rng(q)
    if kind == "normal":
        return rng.standard_normal((q, P))
    return random_instance(q, p=P, rng=rng, feasible=True)[1]


def report_lines(report):
    for entry in report.ranked:
        solution = hashlib.sha256(np.ascontiguousarray(entry.m_star).tobytes()
                                  + np.ascontiguousarray(entry.f_star).tobytes())
        yield " ".join([",".join(map(str, entry.code)), float(entry.objective).hex(),
                        float(entry.cost).hex(), solution.hexdigest()])


def main():
    digest = hashlib.sha256()
    counts = hashlib.sha256()
    for q in QS:
        for kind in ("normal", "feasible"):
            fhat = instance(q, kind)
            for scaling in SCALINGS:
                for penalty in PENALTIES:
                    name = getattr(penalty, "__name__", penalty)
                    spec = SearchSpec(fhat=fhat, k=K, scaling=scaling, penalty=penalty)
                    for workers in WORKERS:
                        report = search_all(spec, workers=workers)
                        header = f"q={q} {kind} {scaling} {name} workers={workers}"
                        for line in [header, *report_lines(report)]:
                            digest.update(line.encode() + b"\n")
                        if workers == 1:
                            line = (f"{header} {report.trees_swept} {report.trees_rescored}"
                                    f" {report.nodes_bounded}")
                            counts.update(line.encode() + b"\n")
    print(digest.hexdigest())
    print(counts.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())

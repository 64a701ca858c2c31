"""Command-line interface.

Commands: project, search, bench, gen, prufer encode|decode.
Exit codes: 0 success, 2 input error, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from . import io as pio
from .baselines import SOLVERS
from .bench import run_bench
from .generate import GaltonWatsonSpec, galton_watson_tree, random_instance
from .projection import DegeneracyError, project_matrix
from .search import SCALINGS, SEARCH_Q_LIMIT, SearchReport, SearchSpec, search_all
from .tree import TreeInputError, decode_prufer, encode_prufer

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ppmproj",
        description="Exact projection onto the perfect phylogeny model, "
                    "iterative baselines, and exhaustive tree search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project a frequency matrix onto a tree")
    p.add_argument("tree", help="tree file (parent-array format)")
    p.add_argument("matrix", help="frequency matrix CSV")
    p.add_argument("-o", "--out", help="output JSON path (default stdout)")

    s = sub.add_parser("search", help="search all labeled rooted trees")
    s.add_argument("matrix", help="frequency matrix CSV")
    s.add_argument("-o", "--out", help="output JSON path (default stdout)")
    s.add_argument("--k", type=int, default=1, help="number of trees to report")
    s.add_argument("--j", default="identity", choices=sorted(SCALINGS),
                   help="cost scaling")
    s.add_argument("--q-penalty", default="zero",
                   help="topology penalty: 'zero' or 'leaves:<weight>'")
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--force", action="store_true",
                   help=f"allow q > {SEARCH_Q_LIMIT}")
    s.add_argument("--include-solutions", action="store_true",
                   help="embed per-tree mutant fractions in the report")

    b = sub.add_parser("bench", help="timed solver comparison on random instances")
    b.add_argument("--sizes", default="100", help="comma-separated tree sizes")
    b.add_argument("--solvers", default="exact",
                   help="comma-separated: exact,admm-primal,admm-dual,"
                        "pgd-primal,pgd-dual")
    b.add_argument("--trials", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--cmin", type=int, default=1)
    b.add_argument("--cmax", type=int, default=4)
    b.add_argument("--tol", type=float, default=1e-3)
    b.add_argument("--out", help="CSV output path (default stdout)")

    g = sub.add_parser("gen", help="generate a random tree and matrix")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--p", type=int, default=1)
    g.add_argument("--cmin", type=int, default=1)
    g.add_argument("--cmax", type=int, default=4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--feasible", action="store_true",
                   help="draw simplex fractions and emit exactly consistent "
                        "frequencies instead of normal noise")
    g.add_argument("--out-tree", required=True)
    g.add_argument("--out-matrix", required=True)

    pr = sub.add_parser("prufer", help="encode or decode Prüfer sequences")
    prsub = pr.add_subparsers(dest="prufer_command", required=True)
    enc = prsub.add_parser("encode", help="tree file -> Prüfer sequence")
    enc.add_argument("tree")
    dec = prsub.add_parser("decode", help="Prüfer sequence -> tree")
    dec.add_argument("code", help="space-separated labels, e.g. '1 1'; "
                                  "'-' for the empty code")
    dec.add_argument("--q", type=int, required=True)

    return parser


def _emit(payload, out_path):
    if out_path:
        pio.write_json(payload, out_path)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _cmd_project(args):
    tree = pio.load_tree(args.tree)
    fhat = pio.load_matrix(args.matrix)
    if fhat.shape[0] != tree.q:
        raise pio.ParseError(
            f"matrix has {fhat.shape[0]} rows but the tree has {tree.q} nodes",
            args.matrix)
    for note in pio.frequency_warnings(fhat):
        print(f"warning: {note}", file=sys.stderr)
    results, total = project_matrix(tree, fhat)
    _emit(pio.projection_payload(results, total), args.out)
    return EXIT_OK


def _cmd_search(args):
    fhat = pio.load_matrix(args.matrix)
    for note in pio.frequency_warnings(fhat):
        print(f"warning: {note}", file=sys.stderr)
    spec = SearchSpec(fhat=fhat, k=args.k, scaling=args.j,
                      penalty=args.q_penalty)
    report: SearchReport = search_all(spec, workers=args.workers,
                                      force=args.force)
    _emit(pio.report_payload(report, include_solutions=args.include_solutions),
          args.out)
    return EXIT_OK


def _cmd_bench(args):
    # Every option is checked before the output is opened, so a bad one
    # leaves neither a file nor a CSV header behind.
    try:
        sizes = [int(x) for x in args.sizes.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"--sizes: expected comma-separated integers, "
                         f"got {args.sizes!r}") from None
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--sizes: every size must be >= 1, got {args.sizes!r}")
    solvers = [x.strip() for x in args.solvers.split(",") if x.strip()]
    for solver_id in solvers:
        if solver_id != "exact" and solver_id not in SOLVERS:
            raise ValueError(f"--solvers: unknown solver {solver_id!r}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if not 1 <= args.cmin <= args.cmax:
        raise ValueError(f"--cmin and --cmax need 1 <= cmin <= cmax, "
                         f"got {args.cmin} and {args.cmax}")
    if not 0.0 < args.tol < math.inf:
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    _check_seed(args.seed)
    out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        _, summary = run_bench(sizes, solvers, args.trials, args.seed,
                               cmin=args.cmin, cmax=args.cmax, tol=args.tol,
                               out=fh)
    for (size, solver_id), mean_time in sorted(summary.items()):
        print(f"# mean size={size} solver={solver_id} "
              f"time_sec={mean_time:.6g}", file=sys.stderr)
    return EXIT_OK


def _check_seed(seed):
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def _cmd_gen(args):
    _check_seed(args.seed)
    spec = GaltonWatsonSpec(q=args.q, cmin=args.cmin, cmax=args.cmax)
    rng = np.random.default_rng(args.seed)
    tree = galton_watson_tree(spec, rng=rng)
    _, fhat = random_instance(args.q, args.p, rng=rng, feasible=args.feasible,
                              tree=tree)
    pio.save_tree(tree, args.out_tree)
    pio.save_matrix(fhat, args.out_matrix)
    return EXIT_OK


def _cmd_prufer(args):
    if args.prufer_command == "encode":
        tree = pio.load_tree(args.tree)
        code = encode_prufer(tree)
        print(" ".join(str(c) for c in code) if code else "-")
    else:
        text = args.code.strip()
        code = []
        for j, tok in enumerate([] if text in ("", "-") else text.split()):
            try:
                code.append(int(tok))
            except ValueError:
                raise ValueError(f"code[{j}] = {tok!r} is not an integer") from None
        tree = decode_prufer(code, args.q)
        print(tree.to_text())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "project": _cmd_project,
        "search": _cmd_search,
        "bench": _cmd_bench,
        "gen": _cmd_gen,
        "prufer": _cmd_prufer,
    }
    try:
        return handlers[args.command](args)
    except (pio.ParseError, TreeInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # A file named on the command line that cannot be read or written.
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except DegeneracyError as exc:
        print(f"error: numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Exhaustive search over all labeled rooted trees on q nodes.

Trees are enumerated through their Prüfer codes: index i in
[0, q^(q-2)) is written in base q, digits shifted to labels 1..q, decoded,
and rooted at node 1.  Workers scan disjoint contiguous index ranges and
keep a local top-k; the reducer merges by (objective, code) so the output
is identical for any worker count.

Each tree is decoded by :func:`ppmproj.tree.decode_prufer_arrays` (the
decoder behind ``decode_prufer``) to flat 1-indexed lists, projected column
by column by ``projection._sweep`` (the sweep behind ``project``) and scored
by the penalty :func:`objective` uses; no :class:`RootedTree` or numpy array
is built per tree, since at these sizes interpreter overhead is the cost.  A
custom penalty callable is the exception: it gets a :class:`RootedTree`
built straight from the decoder's lists.
"""

from __future__ import annotations

import bisect
import math
import multiprocessing as mp
import time
from dataclasses import dataclass

import numpy as np

from .projection import _sweep
from .tree import RootedTree, count_trees, decode_prufer_arrays

SEARCH_Q_LIMIT = 11


# ---------------------------------------------------------------------------
# Objective menu

def _identity(x):
    return x


def _square(x):
    return x * x


SCALINGS = {
    "identity": _identity,
    "log1p": math.log1p,
    "square": _square,
}


def resolve_scaling(spec):
    if callable(spec):
        return spec
    try:
        return SCALINGS[spec]
    except KeyError:
        raise ValueError(
            f"unknown scaling {spec!r}; choose from {sorted(SCALINGS)} "
            "or pass a callable") from None


def resolve_penalty(spec):
    """Penalty as a callable ``penalty(parent, children) -> float`` on the
    flat 1-indexed lists of :func:`ppmproj.tree.decode_prufer_arrays`."""
    if callable(spec):
        return lambda parent, children: spec(RootedTree(
            len(parent) - 1, tuple(parent), tuple(map(tuple, children))))
    if spec == "zero" or spec is None:
        return lambda parent, children: 0.0
    if isinstance(spec, tuple) and spec[0] == "leaves":
        weight = float(spec[1])
    elif isinstance(spec, str) and spec.startswith("leaves:"):
        weight = float(spec.split(":", 1)[1])
    else:
        raise ValueError(
            f"unknown penalty {spec!r}; use 'zero', 'leaves:<weight>' or a callable")
    return lambda parent, children: weight * sum(1 for c in children[1:] if not c)


@dataclass
class SearchSpec:
    """What to search: the data, how many trees to keep, and the objective.

    ``scaling`` transforms the projection cost (identity, log1p, square, or
    any monotone nondecreasing callable); ``penalty`` adds a topology term
    ('zero', 'leaves:<w>' for weight-per-leaf, or a callable taking a
    RootedTree).
    """

    fhat: np.ndarray
    k: int = 1
    scaling: object = "identity"
    penalty: object = "zero"

    def __post_init__(self):
        self.fhat = np.asarray(self.fhat, dtype=float)
        if self.fhat.ndim not in (1, 2):
            raise ValueError(
                f"frequency matrix must be 1-D or 2-D, got {self.fhat.ndim}-D")
        if not np.all(np.isfinite(self.fhat)):
            raise ValueError("frequency matrix contains non-finite entries")
        if self.fhat.ndim == 1:
            self.fhat = self.fhat[:, None]
        if self.k < 1:
            raise ValueError("k must be >= 1")
        resolve_scaling(self.scaling)
        resolve_penalty(self.penalty)

    @property
    def q(self):
        return self.fhat.shape[0]


@dataclass
class RankedTree:
    code: tuple
    objective: float
    cost: float
    m_star: np.ndarray
    f_star: np.ndarray


@dataclass
class SearchReport:
    ranked: list
    trees_evaluated: int
    elapsed: float


def objective(cost: float, tree: RootedTree, spec: SearchSpec) -> float:
    """Scalar search objective: scaled projection cost plus topology penalty."""
    penalty = resolve_penalty(spec.penalty)
    return resolve_scaling(spec.scaling)(cost) + penalty(tree.parent, tree.children)


def index_to_code(index: int, q: int) -> tuple:
    """Prüfer code of enumeration index ``index``, big-endian base-q digits.

    Index order therefore equals lexicographic code order.
    """
    digits = [0] * (q - 2)
    for pos in range(q - 3, -1, -1):
        index, d = divmod(index, q)
        digits[pos] = d + 1
    return tuple(digits)


def partition_ranges(total: int, parts: int):
    """Split [0, total) into ``parts`` contiguous ranges covering it exactly."""
    parts = max(1, min(parts, total)) if total else 1
    base, extra = divmod(total, parts)
    ranges = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


# ---------------------------------------------------------------------------
# Flat-array per-tree evaluation (hot path)

def _evaluate_tree(code, q, fcols, jfn, penalty):
    """(objective, cost, m_cols, f_cols) for one Prüfer code."""
    parent, children, order = decode_prufer_arrays(code, q)
    cost2 = 0.0
    m_cols = []
    f_cols = []
    for f in fcols:
        _, _, m, fstar, c2, _ = _sweep(q, parent, children, order, f)
        cost2 += c2
        m_cols.append(m[1:])
        f_cols.append(fstar[1:])
    cost = math.sqrt(cost2)
    return jfn(cost) + penalty(parent, children), cost, m_cols, f_cols


_WORKER_STATE = {}


def _init_worker(fhat_list, q, k, scaling, penalty):
    fcols = [[0.0] + [row[s] for row in fhat_list]
             for s in range(len(fhat_list[0]))]
    _WORKER_STATE["q"] = q
    _WORKER_STATE["k"] = k
    _WORKER_STATE["fcols"] = fcols
    _WORKER_STATE["jfn"] = resolve_scaling(scaling)
    _WORKER_STATE["penalty"] = resolve_penalty(penalty)


def _scan_range(bounds):
    """Evaluate [start, stop) and return that range's top-k candidate rows."""
    start, stop = bounds
    q = _WORKER_STATE["q"]
    k = _WORKER_STATE["k"]
    fcols = _WORKER_STATE["fcols"]
    jfn = _WORKER_STATE["jfn"]
    penalty = _WORKER_STATE["penalty"]
    top = []
    worst = None
    for index in range(start, stop):
        code = index_to_code(index, q)
        obj, cost, m_cols, f_cols = _evaluate_tree(code, q, fcols, jfn, penalty)
        key = (obj, code)
        if worst is not None and key >= worst and len(top) >= k:
            continue
        bisect.insort(top, (obj, code, cost, m_cols, f_cols))
        if len(top) > k:
            top.pop()
        worst = (top[-1][0], top[-1][1])
    return top


def search_all(spec: SearchSpec, workers: int = 1, force: bool = False) -> SearchReport:
    """Score every labeled rooted tree on q nodes and report the best k.

    Deterministic for any worker count: ranking is by objective with
    lexicographic Prüfer-code tie-break.  Refuses q > 11 unless ``force``
    (the tree count grows as q^(q-2)).
    """
    q = spec.q
    if q > SEARCH_Q_LIMIT and not force:
        raise ValueError(
            f"q={q} means {q}^{q - 2} = {count_trees(q)} trees; "
            "pass force=True to search anyway")
    total = count_trees(q)
    fhat_list = spec.fhat.tolist()
    init_args = (fhat_list, q, spec.k, spec.scaling, spec.penalty)

    start_time = time.perf_counter()
    ranges = partition_ranges(total, workers)
    if workers <= 1 or total == 1:
        _init_worker(*init_args)
        partials = [_scan_range(r) for r in ranges]
    else:
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=workers, initializer=_init_worker,
                      initargs=init_args) as pool:
            partials = pool.map(_scan_range, ranges)
    merged = sorted(row for part in partials for row in part)[:spec.k]
    elapsed = time.perf_counter() - start_time

    ranked = [
        RankedTree(
            code=code, objective=obj, cost=cost,
            m_star=np.array(m_cols).T, f_star=np.array(f_cols).T,
        )
        for obj, code, cost, m_cols, f_cols in merged
    ]
    return SearchReport(ranked=ranked, trees_evaluated=total, elapsed=elapsed)


# ---------------------------------------------------------------------------
# Ancestry-relation comparison

CATEGORIES = ("ancestral", "clustered", "missing", "incomparable")


@dataclass
class RelationComparison:
    """Pairwise mutation-relation comparison of a candidate tree against a
    reference.  Counts are over all unordered pairs of the union mutation
    universe; error fractions are per reference category."""

    reference_counts: dict
    candidate_counts: dict
    mismatches: dict
    error_fractions: dict
    total_pairs: int
    mismatched_pairs: int


def _locate(assignment):
    where = {}
    for node, muts in assignment.items():
        for mut in muts:
            where[mut] = node
    return where


def _pair_category(tree, where, i, j):
    ni = where.get(i)
    nj = where.get(j)
    if ni is None or nj is None:
        return "missing"
    if ni == nj:
        return "clustered"
    if tree.is_ancestor(ni, nj) or tree.is_ancestor(nj, ni):
        return "ancestral"
    return "incomparable"


def compare_relations(candidate: RootedTree, candidate_assignment,
                      reference: RootedTree, reference_assignment) -> RelationComparison:
    """Classify every unordered mutation pair in both trees and compare.

    ``*_assignment`` maps node label -> iterable of mutation ids; the
    mutation universes may differ (pairs touching an absent mutation fall in
    the 'missing' category for that tree).
    """
    cand_where = _locate(candidate_assignment)
    ref_where = _locate(reference_assignment)
    universe = sorted(set(cand_where) | set(ref_where))
    ref_counts = {c: 0 for c in CATEGORIES}
    cand_counts = {c: 0 for c in CATEGORIES}
    mism = {c: 0 for c in CATEGORIES}
    total = 0
    bad = 0
    for a in range(len(universe)):
        for b in range(a + 1, len(universe)):
            i, j = universe[a], universe[b]
            cat_ref = _pair_category(reference, ref_where, i, j)
            cat_cand = _pair_category(candidate, cand_where, i, j)
            ref_counts[cat_ref] += 1
            cand_counts[cat_cand] += 1
            total += 1
            if cat_ref != cat_cand:
                mism[cat_ref] += 1
                bad += 1
    fractions = {
        c: (mism[c] / ref_counts[c] if ref_counts[c] else 0.0)
        for c in CATEGORIES
    }
    return RelationComparison(
        reference_counts=ref_counts, candidate_counts=cand_counts,
        mismatches=mism, error_fractions=fractions,
        total_pairs=total, mismatched_pairs=bad,
    )

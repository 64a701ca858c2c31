"""Exhaustive search over all labeled rooted trees on q nodes.

Trees are enumerated through their Prüfer codes: index i in
[0, q^(q-2)) is written in base q, digits shifted to labels 1..q, decoded,
and rooted at node 1.  Workers scan disjoint contiguous index ranges and
keep a local top-k; the reducer merges by (objective, code) so the output
is identical for any worker count.

Each worker walks its range in blocks of ``_BLOCK`` trees.  A block is
decoded in lockstep by :func:`ppmproj.tree.decode_prufer_block` and scored
by the penalty :func:`objective` uses, once per tree; no per-tree numpy
array is built, and a :class:`RootedTree` only for a custom penalty
callable.  Then four stages narrow the block down:

* bound: ``projection._lower_bound_block`` bounds every tree's cost from
  below with one scatter per column and no segment loop;
* abandon: only the trees whose bound can reach the top k go to
  ``projection._sweep_block``, one column at a time, and a tree leaves as
  soon as its swept columns plus the bound on the rest cannot reach it;
* screen: the costs of the trees swept through every column bound their
  objectives from both sides, and those that cannot reach the top k are
  dropped;
* re-score: the few left, with any tree the block sweep cannot vouch for,
  are scored again in index order by ``projection._sweep`` (the sweep
  behind ``project``) on a :class:`RootedTree` built from the block's
  parent row.

Every bound is widened by a relative ``_SCREEN_SLACK``, and every reported
number comes from the scalar core, whatever the block size.
"""

from __future__ import annotations

import bisect
import math
import multiprocessing as mp
import time
from dataclasses import dataclass

import numpy as np

from .projection import _lower_bound_block, _sweep, _sweep_block
from .tree import RootedTree, _tree_from_parent, count_trees, decode_prufer_block

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


def _scaling_block(jfn):
    """``jfn`` applied entrywise to an array."""
    if jfn is math.log1p:
        return np.log1p
    if jfn is _identity or jfn is _square:
        return jfn
    return np.vectorize(jfn, otypes=[float])


def resolve_penalty(spec):
    """Penalty as a callable ``penalty(parent) -> values`` on a (B, q+1)
    block of parent rows laid out as :func:`ppmproj.tree.decode_prufer_block`
    returns them; it returns one float per row."""
    if callable(spec):
        return lambda parent: np.array(
            [spec(_tree_from_parent(row)) for row in parent.tolist()], dtype=float)
    if spec == "zero":
        return lambda parent: np.zeros(len(parent))
    if not (isinstance(spec, str) and spec.startswith("leaves:")):
        raise ValueError(
            f"unknown penalty {spec!r}; use 'zero', 'leaves:<weight>' or a callable")
    try:
        weight = float(spec.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"penalty weight must be a number, got {spec!r}") from None
    if not math.isfinite(weight):
        raise ValueError(f"penalty weight must be finite, got {spec!r}")
    return lambda parent: weight * _leaf_counts(parent)


def _leaf_counts(parent):
    """Childless nodes of each row of a (B, q+1) parent block."""
    b, width = parent.shape
    has_child = np.zeros((b, width), dtype=bool)
    has_child[np.arange(b)[:, None], parent[:, 2:]] = True
    return (width - 1) - has_child[:, 1:].sum(axis=1)


@dataclass
class SearchSpec:
    """What to search: the data, how many trees to keep, and the objective.

    ``scaling`` transforms the projection cost (identity, log1p, square, or
    any monotone nondecreasing callable); ``penalty`` adds a topology term
    ('zero', 'leaves:<w>' for a finite weight per leaf, or a callable taking a
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
    """The best k trees; ``trees_swept`` of the ``trees_evaluated`` trees
    passed the bound and reached the block sweep for at least one column,
    and ``trees_rescored`` passed the block screen and were scored again by
    the scalar sweep.  Both counts depend on the worker count."""

    ranked: list
    trees_evaluated: int
    trees_swept: int
    trees_rescored: int
    elapsed: float


def objective(cost: float, tree: RootedTree, spec: SearchSpec) -> float:
    """Scalar search objective: scaled projection cost plus topology penalty."""
    penalty = resolve_penalty(spec.penalty)
    return resolve_scaling(spec.scaling)(cost) + float(penalty(np.array([tree.parent]))[0])


def index_to_code(index: int, q: int) -> tuple:
    """Prüfer code of enumeration index ``index``, big-endian base-q digits.

    Index order therefore equals lexicographic code order.
    """
    digits = [0] * (q - 2)
    for pos in range(q - 3, -1, -1):
        index, d = divmod(index, q)
        digits[pos] = d + 1
    return tuple(digits)


def _code_block(start: int, stop: int, q: int):
    """Prüfer codes of the indices [start, stop) as a (stop - start, q-2)
    array: the digits of ``start`` plus each offset, carried in base q, so
    that an index beyond the int64 range never appears."""
    width = max(q - 2, 0)
    codes = np.empty((stop - start, width), dtype=np.int64)
    carry = np.arange(stop - start, dtype=np.int64)
    for pos, digit in zip(range(width - 1, -1, -1), reversed(index_to_code(start, q))):
        carry, codes[:, pos] = np.divmod(carry + (digit - 1), q)
    return codes + 1


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
# Block screen and per-tree evaluation (hot path)

# Trees screened per block; larger blocks amortise numpy's per-call cost.
_BLOCK = 8192
# Relative error allowed between a screened cost and the scalar core's.
_SCREEN_SLACK = 1e-9


def _evaluate_tree(tree, fcols, jfn, penalty):
    """(objective, cost, m_cols, f_cols) for one tree, given its penalty."""
    cost2 = 0.0
    m_cols = []
    f_cols = []
    for f in fcols:
        _, _, m, fstar, c2, _ = _sweep(tree, f)
        cost2 += c2
        m_cols.append(m[1:])
        f_cols.append(fstar[1:])
    cost = math.sqrt(cost2)
    return jfn(cost) + penalty, cost, m_cols, f_cols


_WORKER_STATE = {}


def _init_worker(fhat_list, q, k, scaling, penalty):
    fcols = [[0.0] + [row[s] for row in fhat_list]
             for s in range(len(fhat_list[0]))]
    _WORKER_STATE["q"] = q
    _WORKER_STATE["k"] = k
    _WORKER_STATE["fcols"] = fcols
    _WORKER_STATE["jfn"] = jfn = resolve_scaling(scaling)
    _WORKER_STATE["jfn_block"] = _scaling_block(jfn)
    _WORKER_STATE["penalty"] = resolve_penalty(penalty)


def _lower_objective(cost, pen, jfn_block):
    """Objectives of costs widened downwards by the relative screen slack."""
    return jfn_block(np.maximum(0.0, cost - _SCREEN_SLACK * np.maximum(1.0, cost))) + pen


def _kth_upper(cost, pen, jfn_block, k, bar):
    """``bar``, lowered to the k-th smallest upper objective of ``cost``."""
    if cost.size < k:
        return bar
    upper = jfn_block(cost + _SCREEN_SLACK * np.maximum(1.0, cost)) + pen
    return min(bar, np.partition(upper, k - 1)[k - 1])


def _sweep_rows(rows, parent, order, fblock, tail, pens, bar, jfn_block):
    """Sweep ``rows`` of a block one column at a time, abandoning early.

    ``tail[:, s]`` is the bound on columns s.. of each row.  After column s
    a row's cost is its swept columns plus the bound on the rest, and a row
    whose lower objective then exceeds ``bar`` is dropped.  Returns the
    rows swept through every column, their squared costs, and the rows the
    block sweep could not vouch for, which leave the sweep at once.
    """
    swept = np.zeros(len(rows))
    flagged = []
    for s, f in enumerate(fblock):
        if not rows.size:
            break
        c2, bad = _sweep_block(parent[rows], order[rows], f)
        bad |= ~np.isfinite(c2)
        if bad.any():
            flagged.append(rows[bad])
            rows, swept, c2 = rows[~bad], swept[~bad], c2[~bad]
        swept += c2
        alive = _lower_objective(np.sqrt(swept + tail[rows, s + 1]), pens[rows],
                                 jfn_block) <= bar
        rows, swept = rows[alive], swept[alive]
    return rows, swept, flagged


def _scan_range(bounds):
    """Score [start, stop); return that range's top-k candidate rows, the
    number of trees that reached the block sweep and the number re-scored.

    Each block of ``_BLOCK`` trees goes through five steps.  Every bound
    widens a cost by a relative ``_SCREEN_SLACK`` and holds for any
    nondecreasing scaling and any penalty, since the penalty is computed
    once per tree and reused.  The bar is the k-th best objective so far.

    1. Bound: ``projection._lower_bound_block`` bounds each tree's cost on
       every column from below, and the penalty is computed for every tree.
    2. The k trees of lowest bound are swept by ``projection._sweep_block``;
       their upper objectives tighten the bar.
    3. Only the trees whose lower objective from the bound reaches the bar
       are swept.
    4. They are swept one column at a time: each swept column's cost
       replaces its bound, and a tree whose lower objective then exceeds
       the bar is abandoned.
    5. The trees swept through every column are screened from both sides:
       those whose lower objective reaches the bar (or the k-th upper
       objective among them, if smaller), and every tree the block sweep
       could not vouch for, are re-scored by :func:`_evaluate_tree` in
       index order.  Every reported number comes from there.
    """
    start, stop = bounds
    q = _WORKER_STATE["q"]
    k = _WORKER_STATE["k"]
    fcols = _WORKER_STATE["fcols"]
    jfn = _WORKER_STATE["jfn"]
    jfn_block = _WORKER_STATE["jfn_block"]
    penalty = _WORKER_STATE["penalty"]
    fblock = np.array(fcols)
    top = []
    worst = None
    swept_count = 0
    rescored = 0
    for lo in range(start, stop, _BLOCK):
        codes = _code_block(lo, min(lo + _BLOCK, stop), q)
        parent, order, depth = decode_prufer_block(codes, q)
        pens = penalty(parent)
        bound = _lower_bound_block(parent, depth, fblock)
        tail = np.zeros((len(codes), len(fblock) + 1))
        tail[:, :-1] = np.cumsum(bound[:, ::-1], axis=1)[:, ::-1]
        lower = _lower_objective(np.sqrt(tail[:, 0]), pens, jfn_block)
        bar = top[-1][0] if len(top) >= k else math.inf

        first = (np.argpartition(lower, k - 1)[:k] if len(lower) > k
                 else np.arange(len(lower)))
        done, cost2, flagged = _sweep_rows(first, parent, order, fblock, tail, pens,
                                           bar, jfn_block)
        bar = _kth_upper(np.sqrt(cost2), pens[done], jfn_block, k, bar)
        candidate = lower <= bar
        candidate[first] = False
        rest = np.flatnonzero(candidate)
        more, more_cost2, more_flagged = _sweep_rows(rest, parent, order, fblock, tail,
                                                     pens, bar, jfn_block)
        swept_count += len(first) + len(rest)

        done = np.concatenate([done, more])
        cost = np.sqrt(np.concatenate([cost2, more_cost2]))
        pen = pens[done]
        bar = _kth_upper(cost, pen, jfn_block, k, bar)
        kept = np.sort(np.concatenate(
            [done[_lower_objective(cost, pen, jfn_block) <= bar]] + flagged + more_flagged
        )).tolist()
        rescored += len(kept)
        pens = pens.tolist()
        for i in kept:
            code = tuple(codes[i].tolist())
            obj, cost_i, m_cols, f_cols = _evaluate_tree(
                _tree_from_parent(parent[i].tolist()), fcols, jfn, pens[i])
            key = (obj, code)
            if worst is not None and key >= worst and len(top) >= k:
                continue
            bisect.insort(top, (obj, code, cost_i, m_cols, f_cols))
            if len(top) > k:
                top.pop()
            worst = (top[-1][0], top[-1][1])
    return top, swept_count, rescored


def search_all(spec: SearchSpec, workers: int = 1, force: bool = False) -> SearchReport:
    """Score every labeled rooted tree on q nodes and report the best k.

    Deterministic for any worker count: ranking is by objective with
    lexicographic Prüfer-code tie-break.  Refuses q > 11 unless ``force``
    (the tree count grows as q^(q-2)).
    """
    q = spec.q
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if q > SEARCH_Q_LIMIT and not force:
        raise ValueError(
            f"q={q} means {q}^{q - 2} = {count_trees(q)} trees; "
            "pass force=True to search anyway")
    total = count_trees(q)
    fhat_list = spec.fhat.tolist()
    init_args = (fhat_list, q, spec.k, spec.scaling, spec.penalty)

    start_time = time.perf_counter()
    ranges = partition_ranges(total, workers)
    if len(ranges) == 1:
        _init_worker(*init_args)
        partials = [_scan_range(r) for r in ranges]
    else:
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=len(ranges), initializer=_init_worker,
                      initargs=init_args) as pool:
            partials = pool.map(_scan_range, ranges)
    merged = sorted(row for top, _, _ in partials for row in top)[:spec.k]
    elapsed = time.perf_counter() - start_time

    ranked = [
        RankedTree(
            code=code, objective=obj, cost=cost,
            m_star=np.array(m_cols).T, f_star=np.array(f_cols).T,
        )
        for obj, code, cost, m_cols, f_cols in merged
    ]
    return SearchReport(ranked=ranked, trees_evaluated=total,
                        trees_swept=sum(n for _, n, _ in partials),
                        trees_rescored=sum(n for _, _, n in partials), elapsed=elapsed)


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

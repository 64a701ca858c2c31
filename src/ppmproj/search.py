"""Exhaustive search over all labeled rooted trees on q nodes.

Every tree is rooted at node 1 and given by its parents.  The search walks
them by branch and bound (Land & Doig): it assigns parents to nodes 2..q in
label order, each partial assignment a forest, and drops a forest as soon
as a lower bound on the objective of every tree completing it exceeds the
bar, the k-th best objective known so far.  The Prüfer code decides only
between bit-equal objectives (mathematically equal ones that differ in
their last bits rank by those bits); the output is identical for any
worker count.

* bound: :func:`_child_bounds` carries :func:`_lower_bound_block` over to
  forests, per component, and updates it per child in O(1) per column; a
  partial tree's penalty is bounded by the floor from :func:`resolve_penalty`;
* first bar: before the walk, a beam of the 4k lowest-bound rows per level
  reaches 4k trees, which are scored exactly;
* walk: one recursive descent, depth first, in steps of at most ``_BLOCK``
  rows, lowest bound first and, among equal bounds, tightest fit first; the
  first row whose lower objective at the penalty floor exceeds the bar ends
  its level;
* leaves: complete trees go through the block screen: the bound and the
  penalty; the k of lowest bound scored exactly; ``projection._sweep_block``
  on the others' parent and depth rows, one column at a time with early
  abandonment, then a two-sided screen; a NaN block cost means exact
  scoring.  Exact scores come from ``projection._sweep`` on a tree.

Workers: at most one per CPU.  The caller expands whole levels while a
level fits in one step of the walk.  If the trees complete within those
levels, the caller scores them itself and starts no child: at q=7 a fork
costs more than the whole walk.  Otherwise it deals the open rows out
round-robin in the order the expansion left them, (bound, fit), and walks
each share in a forked child.  Every bound is widened by a relative
``_SCREEN_SLACK``, and every reported number comes from the scalar core.
"""

from __future__ import annotations

import bisect
import math
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from .projection import DegeneracyError, _sweep, _sweep_block
from .tree import RootedTree, _tree_from_parent, count_trees, encode_prufer

SEARCH_Q_LIMIT = 11


# ---------------------------------------------------------------------------
# Objective menu

def _identity(x):
    return x


def _square(x):
    return x * x


SCALINGS = {
    "identity": (_identity, _identity),
    "log1p": (math.log1p, np.log1p),
    "square": (_square, _square),
}


def resolve_scaling(spec):
    """The scaling ``spec`` as its ``(scalar, entrywise)`` pair of functions."""
    if callable(spec):
        return spec, np.vectorize(spec, otypes=[float])
    try:
        return SCALINGS[spec]
    except KeyError:
        raise ValueError(
            f"unknown scaling {spec!r}; choose from {sorted(SCALINGS)} "
            "or pass a callable") from None


def resolve_penalty(spec, q):
    """The penalty ``spec`` as ``(penalty, floor)``: ``penalty(parent)``
    gives one float per row of a (B, q+1) block of parent rows (column 0
    unused, 0 at the root), and no tree on q nodes has a smaller penalty
    than ``floor``, which is what the lower objective of a partial tree adds."""
    if callable(spec):
        return (lambda parent: np.array(
            [spec(_tree_from_parent(row)) for row in parent.tolist()], dtype=float),
            -math.inf)
    if spec == "zero":
        return (lambda parent: np.zeros(len(parent))), 0.0
    if not (isinstance(spec, str) and spec.startswith("leaves:")):
        raise ValueError(
            f"unknown penalty {spec!r}; use 'zero', 'leaves:<weight>' or a callable")
    try:
        weight = float(spec.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"penalty weight must be a number, got {spec!r}") from None
    if not math.isfinite(weight):
        raise ValueError(f"penalty weight must be finite, got {spec!r}")
    # Every tree has between 1 and max(1, q - 1) leaves.
    floor = weight if weight >= 0 else weight * max(1, q - 1)
    return (lambda parent: weight * _leaf_counts(parent)), floor


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
        if min(self.fhat.shape) < 1:
            raise ValueError(
                f"frequency matrix needs q >= 1 rows and p >= 1 columns, "
                f"got shape {self.fhat.shape}")
        if not isinstance(self.k, numbers.Integral) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        resolve_scaling(self.scaling)
        resolve_penalty(self.penalty, self.q)

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
    """The best k of the ``trees_evaluated`` trees, all q^(q-2) of them:
    each was scored or dropped by a valid bound.  ``nodes_bounded`` counts
    the partial and complete trees whose bound was computed, the beam's
    included; ``trees_swept`` the complete trees that passed the bound and
    reached the block sweep; ``trees_rescored`` those that passed the block
    screen and were scored again by the scalar sweep.  The three counts
    depend on the worker count and on whether the search forked, since
    each share tightens its own bar; the ranking does not."""

    ranked: list
    trees_evaluated: int
    trees_swept: int
    trees_rescored: int
    nodes_bounded: int
    elapsed: float


def objective(cost: float, tree: RootedTree, spec: SearchSpec) -> float:
    """Scalar search objective: scaled projection cost plus topology penalty."""
    jfn, _ = resolve_scaling(spec.scaling)
    penalty, _ = resolve_penalty(spec.penalty, tree.q)
    return jfn(cost) + float(penalty(np.array([tree.parent]))[0])


# ---------------------------------------------------------------------------
# Branch-and-bound walk and per-tree evaluation (hot path)

# Candidate rows per step of the walk; larger steps amortise numpy's per-call cost.
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


def _lower_objective(cost, pen, jfn_block):
    """Objectives of costs widened downwards by the relative screen slack."""
    return jfn_block(np.maximum(0.0, cost - _SCREEN_SLACK * np.maximum(1.0, cost))) + pen


def _kth_upper(cost, pen, jfn_block, k, bar):
    """``bar``, lowered to the k-th smallest upper objective of ``cost``."""
    if cost.size < k:
        return bar
    upper = jfn_block(cost + _SCREEN_SLACK * np.maximum(1.0, cost)) + pen
    return min(bar, np.partition(upper, k - 1)[k - 1])


def _sweep_rows(rows, parent, depth, fblock, tail, pens, bar, jfn_block):
    """Sweep ``rows`` of a block one column at a time, abandoning early.

    ``tail[:, s]`` is the bound on columns s.. of each row.  After column s
    a row's cost is its swept columns plus the bound on the rest, and a row
    whose lower objective then exceeds ``bar`` is dropped.  Returns the
    rows swept through every column, their squared costs, and the rows the
    block sweep gave NaN, which leave the sweep at once.
    """
    swept = np.zeros(len(rows))
    flagged = []
    for s, f in enumerate(fblock):
        if not rows.size:
            break
        c2 = _sweep_block(parent[rows], depth[rows], f)
        bad = np.isnan(c2)
        if bad.any():
            flagged.append(rows[bad])
            rows, swept, c2 = rows[~bad], swept[~bad], c2[~bad]
        swept += c2
        alive = _lower_objective(np.sqrt(swept + tail[rows, s + 1]), pens[rows],
                                 jfn_block) <= bar
        rows, swept = rows[alive], swept[alive]
    return rows, swept, flagged


@dataclass
class _Open:
    """Open rows of the walk, all at one level: forests in which nodes
    2..u-1 have parents.  Per node (column 0 unused) the parent (0 where
    none is assigned), the root of its component and its depth below that
    root; per row, the bound on each column's squared cost."""

    parent: np.ndarray
    root: np.ndarray
    depth: np.ndarray
    bound: np.ndarray

    def __len__(self):
        return len(self.bound)

    def take(self, index):
        return _Open(self.parent[index], self.root[index], self.depth[index],
                     self.bound[index])


def _lower_bound_block(parent, depth, fblock):
    """Lower bounds on the squared projection cost of p columns on each of
    B trees, with no segment loop.

    ``parent`` and ``depth`` (B, q+1) are complete rows of the walk, and
    ``fblock`` (p, q+1) holds the columns; column 0 of each is unused.
    Returns a (B, p) array.

    For one column y the model set is {F_1 = 1, F_u >= sum of F over the
    children C(u), F >= 0}.  Since F >= 0, every node u >= 2 pays at least
    min(y_u, 0)^2 and the root pays exactly (y_1 - 1)^2.  Against y+ =
    max(y, 0), the constraint of a non-root u is a half-space on the group
    {u} + C(u) at squared distance (sum_C y+_c - y+_u)+^2 / (|C(u)| + 1); the
    root's group C(1) must sum to at most 1, at squared distance
    (sum_C y+_c - 1)+^2 / |C(1)|.  Groups of nodes at even depths are
    pairwise disjoint, and so are those at odd depths, so the larger of the
    two families' sums adds to the bound.
    """
    fblock = np.asarray(fblock, dtype=float)
    b, width = parent.shape
    below = np.minimum(fblock[:, 2:], 0.0)
    base = (fblock[:, 1] - 1.0) ** 2 + np.einsum("sj,sj->s", below, below)
    slot = (parent[:, 2:] + width * np.arange(b)[:, None]).ravel()
    # Group sizes: |C(u)| + 1, but |C(1)| at the root, where a childless
    # root's term is 0 whatever its size.  Column 0 weighs nothing.
    size = np.bincount(slot, minlength=b * width).reshape(b, width) + 1.0
    size[:, 1] = np.maximum(size[:, 1] - 1.0, 1.0)
    odd = (depth & 1).astype(bool)
    odd_weight = np.where(odd, 1.0 / size, 0.0)
    even_weight = np.where(odd, 0.0, 1.0 / size)
    even_weight[:, 0] = 0.0
    above = np.maximum(fblock, 0.0)
    # The root's group is bounded by F_1 = 1 in place of its own entry.
    above[:, 1] = 1.0
    bound = np.empty((b, len(fblock)))
    for s, y in enumerate(above):
        kids = np.bincount(slot, weights=np.broadcast_to(y[2:], (b, width - 2)).ravel(),
                           minlength=b * width).reshape(b, width)
        gap = np.maximum(kids - y, 0.0)
        gap *= gap
        bound[:, s] = base[s] + np.maximum(np.einsum("bj,bj->b", gap, even_weight),
                                           np.einsum("bj,bj->b", gap, odd_weight))
    return bound


def _child_bounds(rows, u, above, base):
    """Every child of the open ``rows`` at node u, and its bound.

    A child hangs u, still a component root, below a node a outside u's
    component.  ``above`` (q+1, p) holds max(y, 0) of every column, with 1
    at the root, and ``base`` (p,) the part of the bound no tree changes:
    (y_1 - 1)^2 plus min(y_v, 0)^2 over v >= 2.  Returns ``(src, a,
    bound)``: each child's row in ``rows``, its parent of u, and a (C, p)
    bound on each column's squared cost.

    This is :func:`_lower_bound_block` on a forest.  A node's group
    holds it and its assigned children, with the term
    (sum of above over C(v) - above_v)+^2 / (|C(v)| + 1), or / |C(1)| at the
    root; F_v >= sum F_c over every child implies it over the assigned
    ones, so the term holds for every completion.  Groups from different
    components are disjoint, so each component adds the larger of its
    terms' sums at even and at odd depth below its root.  The sums are
    rebuilt for every row, in O(q) per column; a child then changes one
    term and joins two components, in O(1) per column.
    """
    b, width = rows.parent.shape
    cells = b * width
    lift = width * np.arange(b)[:, None]
    # Nodes without a parent scatter into the unused column 0.
    slot = (rows.parent + lift).ravel()
    size = np.bincount(slot, minlength=cells)
    size.reshape(b, width)[:, 2:] += 1
    src, a = np.nonzero(rows.root[:, 1:] != u)
    a += 1
    # Flat positions of each child's a and of the root r of a's component.
    pa = src * width + a
    pr = rows.root.ravel()[pa].astype(np.intp)
    hang = size[pa] + 1
    flip = (rows.depth.ravel()[pa] & 1).astype(bool)
    np.maximum(size, 1, out=size)
    # Component sums are laid out (node, row), so that a row's sum over its
    # components runs in node order; pr becomes a flat position there.
    group = rows.root * np.intp(b)
    group += np.arange(b)[:, None]
    group += np.where(rows.depth & 1, cells, 0)
    group = group.ravel()
    pr *= b
    pr += src
    # One column at a time, so that no (B, q+1, p) or (C, p) temporary is
    # built, and each array goes as soon as it is used.
    bound = np.empty((len(src), len(base)))
    for s, y in enumerate(above.T):
        term = np.tile(y, b)
        kids = np.bincount(slot, weights=term, minlength=cells)
        np.subtract(kids, term, out=term)
        np.maximum(term, 0.0, out=term)
        term *= term
        term /= size
        term[::width] = 0.0
        # The term of a once it holds u.
        grown = y[a]
        np.subtract(y[u], grown, out=grown)
        grown += kids[pa]
        del kids
        np.maximum(grown, 0.0, out=grown)
        grown *= grown
        grown /= hang
        grown -= term[pa]
        even, odd = np.bincount(group, weights=term, minlength=2 * cells).reshape(2, cells)
        del term
        total = base[s] + np.maximum(even, odd).reshape(width, b).sum(axis=0)
        joined_even, joined_odd = even[pr], odd[pr]
        moved, hung_odd = even[u * b:(u + 1) * b][src], odd[u * b:(u + 1) * b][src]
        del even, odd
        # u's component hangs at depth(a) + 1, so its odd depths take a's parity.
        grown += hung_odd
        odd_sum = np.where(flip, grown, moved)
        odd_sum += joined_odd
        np.copyto(grown, moved, where=flip)
        grown += joined_even
        col = bound[:, s]
        np.maximum(grown, odd_sum, out=col)
        col += total[src]
        col -= np.maximum(joined_even, joined_odd, out=joined_even)
        col -= np.maximum(moved, hung_odd, out=moved)
    return src, a, np.maximum(bound, 0.0, out=bound)


def _grow(rows, src, a, u, bound):
    """The children ``(src, a)`` of ``rows`` at node u as open rows."""
    parent, root, depth = rows.parent[src], rows.root[src], rows.depth[src]
    at = np.arange(len(src))
    parent[at, u] = a
    moved = root == u
    depth += moved * (depth[at, a] + 1)[:, None]
    root = np.where(moved, root[at, a][:, None], root)
    return _Open(parent, root, depth, bound)


def _deal(rows, workers):
    """At most ``workers`` shares of the open rows, dealt round-robin in the
    order :meth:`_Walk._expand` left them, (bound, fit), so that each share
    stays in bound order.  When the caller forks, the rows are a level
    larger than one step of the walk, so each share holds hundreds."""
    parts = max(1, min(workers, len(rows)))
    return [rows.take(slice(i, None, parts)) for i in range(parts)]


class _Walk:
    """One search's data, objective and bar, with the running top k and the
    counts of the share being walked."""

    def __init__(self, spec):
        self.q = q = spec.q
        self.k = spec.k
        self.fcols = [[0.0] + spec.fhat[:, s].tolist() for s in range(spec.fhat.shape[1])]
        self.fblock = np.array(self.fcols)
        self.jfn, self.jfn_block = resolve_scaling(spec.scaling)
        self.penalty, self.floor = resolve_penalty(spec.penalty, q)
        self.above = np.maximum(self.fblock.T, 0.0)
        self.above[1] = 1.0
        self.fit = self.above.sum(axis=1)
        below = np.minimum(spec.fhat[1:], 0.0)
        self.base = (spec.fhat[0] - 1.0) ** 2 + (below * below).sum(axis=0)
        self.dtype = np.int8 if q < 127 else np.int16
        # Rows per step of the walk: their children number at most _BLOCK.
        self.step = max(1, _BLOCK // q)
        self.bar = math.inf
        self.top = []
        self.swept = self.rescored = self.bounded = 0

    def _lower(self, bound, pen):
        return _lower_objective(np.sqrt(bound.sum(axis=1)), pen, self.jfn_block)

    def _expand(self, rows, u):
        """The children of ``rows`` at node u that can still reach the top k,
        lowest bound first."""
        src, a, bound = _child_bounds(rows, u, self.above, self.base)
        self.bounded += len(src)
        cost2 = bound.sum(axis=1)
        keep = np.flatnonzero(
            _lower_objective(np.sqrt(cost2), self.floor, self.jfn_block) <= self.bar)
        # Equal bounds are common high in the walk; among them, parents of
        # small frequency, the tightest fit, go first.
        fit = self.fit[rows.parent].sum(axis=1)[src[keep]] + self.fit[a[keep]]
        keep = keep[np.lexsort((fit, cost2[keep]))]
        return _grow(rows, src[keep], a[keep], u, bound[keep])

    def _root(self):
        """The one row with no parent assigned: every node its own component."""
        nodes = np.arange(self.q + 1, dtype=self.dtype)[None]
        return _Open(np.zeros_like(nodes), nodes, np.zeros_like(nodes), self.base[None])

    def first_bar(self):
        """Set the bar to the k-th best exact objective among the trees
        reached by a beam of the 4k lowest-bound rows per level."""
        rows = self._root()
        for u in range(2, self.q + 1):
            rows = self._expand(rows, u).take(slice(0, 4 * self.k))
        self._rescore(rows.parent, self.penalty(rows.parent), np.arange(len(rows)))

    def open_rows(self):
        """Expand whole levels while a level fits in one step of the walk,
        ``_BLOCK // q`` rows, and the trees are not complete; return the
        rows and the node they assign next."""
        rows, u = self._root(), 2
        while u <= self.q and len(rows) <= self.step:
            rows, u = self._expand(rows, u), u + 1
        return rows, u

    def walk(self, rows, u):
        """Walk the trees below ``rows``, which assign node u next, depth first;
        return their top k and the counts of the walk."""
        self.top = []
        self.swept = self.rescored = self.bounded = 0
        self._descend(rows, u)
        return self.top, self.swept, self.rescored, self.bounded

    def _descend(self, rows, u):
        """Walk the trees below ``rows``, which assign node u next, a step's
        rows at a time in bound order; the first row whose lower objective
        at the penalty floor exceeds the bar ends the level.

        Complete rows go to :meth:`_leaves` a step at a time, so that the
        first steps lower the bar for the rest (as one block, they raised
        the peak RSS of q=7 N(0, 1) searches from 39.8 to 43.6 MB).  At
        u == q a step's whole expansion goes to :meth:`_leaves` (sliced
        into steps, it made q=9 N(0, 1) searches 1.5x slower).
        """
        for lo in range(0, len(rows), self.step):
            chunk = rows.take(slice(lo, lo + self.step))
            live = np.count_nonzero(self._lower(chunk.bound, self.floor) <= self.bar)
            if live:
                head = chunk.take(slice(0, live))
                if u > self.q:
                    self._leaves(head)
                elif u == self.q:
                    self._leaves(self._expand(head, u))
                else:
                    self._descend(self._expand(head, u), u + 1)
            if live < len(chunk):
                return

    def _leaves(self, rows):
        """Score complete trees into the running top k, through the block screen.

        Every bound widens a cost by a relative ``_SCREEN_SLACK`` and holds
        for any nondecreasing scaling and any penalty, since the penalty is
        computed once per tree and reused.

        1. The trees whose lower objective, from the walk's bound and their
           penalty, reaches the bar are kept.
        2. The k of lowest bound are scored exactly; they tighten the bar.
        3. The others whose lower objective still reaches the bar are swept
           by ``projection._sweep_block`` one column at a time: each swept
           column's cost replaces its bound, and a tree whose lower
           objective then exceeds the bar is abandoned.
        4. The trees swept through every column are screened from both
           sides: those whose lower objective reaches the bar (or the k-th
           upper objective among them, if smaller), and every tree the block
           sweep gave NaN, are scored exactly.

        Exact scores come from :func:`_evaluate_tree`, and every reported
        number comes from there.
        """
        k = self.k
        pens = self.penalty(rows.parent)
        lower = self._lower(rows.bound, pens)
        live = np.flatnonzero(lower <= self.bar)
        if not live.size:
            return
        parent, pens, lower, bound = (rows.parent[live], pens[live], lower[live],
                                      rows.bound[live])
        first = (np.argpartition(lower, k - 1)[:k] if len(lower) > k
                 else np.arange(len(lower)))
        self._rescore(parent, pens, first)
        candidate = lower <= self.bar
        candidate[first] = False
        rest = np.flatnonzero(candidate)
        self.swept += len(first) + len(rest)
        if not rest.size:
            return

        tail = np.zeros((len(live), len(self.fblock) + 1))
        tail[:, :-1] = np.cumsum(bound[:, ::-1], axis=1)[:, ::-1]
        done, cost2, flagged = _sweep_rows(rest, parent, rows.depth[live], self.fblock,
                                           tail, pens, self.bar, self.jfn_block)
        cost = np.sqrt(cost2)
        pen = pens[done]
        self.bar = _kth_upper(cost, pen, self.jfn_block, k, self.bar)
        self._rescore(parent, pens, np.concatenate(
            [done[_lower_objective(cost, pen, self.jfn_block) <= self.bar]] + flagged))

    def _rescore(self, parent, pens, index):
        """Score the trees ``parent[index]`` exactly into the running top k."""
        k = self.k
        self.rescored += len(index)
        for i in index.tolist():
            tree = _tree_from_parent(parent[i].tolist())
            obj, cost, m_cols, f_cols = _evaluate_tree(tree, self.fcols, self.jfn,
                                                       float(pens[i]))
            if len(self.top) >= k and obj > self.top[-1][0]:
                continue
            bisect.insort(self.top, (obj, encode_prufer(tree), cost, m_cols, f_cols))
            del self.top[k:]
            if len(self.top) >= k:
                self.bar = min(self.bar, self.top[-1][0])


def _walk_share(walk, rows, u, conn):
    """Body of a forked child: walk one share and send its result, or the
    exception that stopped it."""
    try:
        conn.send((True, walk.walk(rows, u)))
    except Exception as exc:
        conn.send((False, exc))
    finally:
        conn.close()


def _fan_out(walk, shares, u):
    """Walk each share in a forked child of its own; return their results
    in share order, or raise the first failure among them."""
    # Imported here: most searches fork no child, and the import is slow.
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for rows in shares:
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_walk_share, args=(walk, rows, u, send))
            child.start()
            send.close()
            children.append((child, recv))
        results = []
        for i, (child, recv) in enumerate(children):
            try:
                ok, value = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"search share {i} of {len(shares)} exited with code "
                    f"{child.exitcode} before sending its result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()


def search_all(spec: SearchSpec, workers: int = 1, force: bool = False) -> SearchReport:
    """Score every labeled rooted tree on q nodes and report the best k.

    Deterministic for any worker count: ranking is by objective, and by
    Prüfer code only between bit-equal objectives.  At most one worker per
    CPU is used, and none is forked when the trees complete within the
    levels that fit one step of the walk.  Refuses q > 11 unless ``force``
    (the tree count grows as q^(q-2)).
    """
    q = spec.q
    if not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    workers = min(workers, os.cpu_count() or 1)
    if q > SEARCH_Q_LIMIT and not force:
        raise ValueError(
            f"q={q} means {q}^{q - 2} = {count_trees(q)} trees; "
            "pass force=True (--force on the command line) to search anyway")

    start_time = time.perf_counter()
    walk = _Walk(spec)
    walk.first_bar()
    rows, u = walk.open_rows()
    bounded = walk.bounded
    # Complete trees are scored here: a fork would cost more than their walk.
    shares = _deal(rows, workers if u <= q else 1)
    if len(shares) == 1:
        partials = [walk.walk(shares[0], u)]
    else:
        partials = _fan_out(walk, shares, u)
    merged = sorted(row for top, *_ in partials for row in top)[:spec.k]
    wanted = min(spec.k, count_trees(q))
    if len(merged) < wanted:
        # The others' lower objectives were NaN, as when |F̂| ≳ 1e154
        # overflows the bound's squares.
        raise DegeneracyError(f"only {len(merged)} of {wanted} trees could be ranked; "
                              "the others' objectives are not numbers")
    elapsed = time.perf_counter() - start_time

    ranked = [
        RankedTree(
            code=code, objective=obj, cost=cost,
            m_star=np.array(m_cols).T, f_star=np.array(f_cols).T,
        )
        for obj, code, cost, m_cols, f_cols in merged
    ]
    return SearchReport(ranked=ranked, trees_evaluated=count_trees(q),
                        trees_swept=sum(part[1] for part in partials),
                        trees_rescored=sum(part[2] for part in partials),
                        nodes_bounded=bounded + sum(part[3] for part in partials),
                        elapsed=elapsed)
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

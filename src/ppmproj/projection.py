"""Exact projection onto the perfect phylogeny polytope for a fixed tree.

For one frequency column the projection follows the piecewise-linear path
of the dual minimizer as the scalar dual variable t decreases from the
largest cumulative frequency sum; nodes join the constraint boundary one
segment at a time.  One two-pass elimination over the free forest
(:func:`_eliminate`) solves a boundary set at t: bottom-up, every free node
collapses its children into a harmonic-weight line (free subtrees without
boundary nodes add nothing, which prunes them); top-down, every free node
solves the star of its parent and its reduced children for its value and
slope.  The root's pair is L'(t) and L''.  The sweep stops once L' would
drop below -1 on a segment, solves L'(t) = -1 there and converts the dual
minimizer into mutant fractions and frequencies, which sum to -z[1] = 1.

:func:`_sweep`, the library's only exact sweep, serves :func:`project` and
the exhaustive search on plain 1-indexed lists.  On large trees a segment
visits only the free nodes that can still join: those above a boundary
node, and the top of each free subtree that holds none.  Every node of such
a subtree moves with its top, so the top stands in for it.  Free nodes below
a boundary node ride it at slope exactly 1 and leave the segments; sibling
leaves of one free parent share its value and slope and are searched as one
group sorted by n.  A segment costs O(q) at most; on N(0, 1) columns it
visits a few percent of the free nodes of a branching tree, and a handful on
a star.  The column is then recovered in numpy.
Nearly consistent columns take about 0.9 q segments, so the sweep hands its
boundary set to :func:`_active_set`: eliminations that each solve a
boundary set and correct it, until one certifies its answer by the KKT
conditions (2-6 on such columns).  It hands over once its forecast, the
free nodes it predicts to cross before L' reaches -1, holds steady over
half of the free nodes, with more than 2 ceil(log2 q) of them free (after
two segments on such columns); and in any case once it has run more than
ceil(log2 q) segments with more nodes than that still free.  If q + 1
passes do not certify, the sweep resumes from its untouched state.
``keep_path`` and ``counters`` only record this run.

:func:`_sweep_block` runs the same segments in numpy on a block of trees at
once, given as the search walk's parent and depth rows, and returns costs
only.  The search uses it to screen trees; every number the search reports
still comes from :func:`_sweep`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Optional

import numpy as np

from .tree import RootedTree, _column

LSECOND_GUARD = 1e-14
# A free node whose slope is within this of 1 moves parallel to its
# constraint line and never crosses it.
RATE_ONE_EPS = 1e-12

_NEG_INF = float("-inf")
# The active-set finish moves a node only when its KKT residual exceeds this
# times max(1, |n|_inf).
_KKT_RTOL = 1e-12
# Simultaneous boundary events at t lie within this times max(|t|, 1).
_TIE_RTOL = 1e-9
# From this many nodes up, :func:`_sweep` lets the top of a free subtree
# without boundary nodes stand in for the subtree.  Per call, against every
# free node its own, on N(0, 1) and near-feasible columns over four tree
# shapes (2-core Xeon VM, Python 3.11, two runs), stand-ins took 1.03-1.22x
# the time at q = 7-32, 1.00-1.02x at q = 48, and at q = 64 0.92-0.94x
# (N(0, 1)) and 0.98-0.99x (near-feasible).
_STAND_IN_Q = 64


class DegeneracyError(ArithmeticError):
    """Vanishing curvature at finalization; indicates numerical corruption."""


def tie_tolerance(t: float) -> float:
    """Absolute tolerance for grouping simultaneous boundary events at t."""
    a = abs(t)
    return _TIE_RTOL * (a if a > 1.0 else 1.0)


@dataclass
class PathState:
    """Sweep state at the i-th critical value."""

    t: float
    boundary: frozenset
    z: np.ndarray
    z_rate: np.ndarray
    lprime: float
    lsecond: float


@dataclass
class ProjectionResult:
    """Projection of one frequency column onto the model polytope."""

    t_star: float
    z_star: np.ndarray
    m_star: np.ndarray
    f_star: np.ndarray
    cost: float
    # Sweep segments plus active-set finish passes: each is one elimination,
    # over the active free nodes in a segment (see ``_sweep``) and over all
    # free nodes in a pass; O(q) at most.
    iterations: int
    rate_recomputations: int
    path: Optional[list] = None


def recover_solution(tree: RootedTree, z_star):
    """Mutant fractions and frequencies from a completed dual minimizer,
    by :func:`_recover`, the arithmetic that ends every sweep.  O(q)."""
    m, f, _ = _recover(tree.parent, [0.0] + np.asarray(z_star, dtype=float).tolist(),
                       [0.0] * (tree.q + 1))
    return np.array(m[1:]), np.array(f[1:])


def _recover(parent, z, fhat):
    """``(m, f, cost2)`` from the dual minimizer ``z``, all 1-indexed lists.

    f[i] is the negated difference of z across the edge above node i (the
    root differencing against z[0] = 0); m[i] subtracts the children's f
    from the node's own; ``cost2`` is the squared distance of f from
    ``fhat``.
    """
    m = [0.0] * len(z)
    f = [0.0] * len(z)
    cost2 = 0.0
    for i in range(1, len(z)):
        p = parent[i]
        fi = -z[i] + z[p]
        f[i] = fi
        m[i] += fi
        if p:
            m[p] -= fi
        d = fhat[i] - fi
        cost2 += d * d
    return m, f, cost2


def _recover_arrays(tree, z, fhat):
    """:func:`_recover` in numpy, for the sweep's large trees: ``(z, m, f,
    cost2)``, the vectors as 1-indexed arrays with the same bits.

    It runs over index arrays cached on the tree.  ``np.bincount`` adds
    each node's f and its children's -f in label order, as the loop does,
    and ``np.cumsum`` adds the squares in order, as ``+=`` does (``np.sum``
    pairs them).  On small trees numpy's per-call cost exceeds the loop's
    (see the break-even in :func:`_sweep`).
    """
    q = tree.q
    up, pairs = tree._index_arrays()
    z = np.array(z)
    f = z[up] - z
    w = np.empty(2 * q)
    w[0::2] = f[1:]
    np.negative(f[1:], out=w[1::2])
    m = np.bincount(pairs, weights=w, minlength=q + 1)
    m[0] = 0.0
    d = np.array(fhat[1:]) - f[1:]
    return z, m, f, float(np.cumsum(d * d)[-1])


def _newton_step(lp, lpp):
    """The step in t that takes L' from ``lp`` to -1 at slope ``lpp``."""
    if lpp < LSECOND_GUARD:
        raise DegeneracyError(
            f"curvature {lpp} vanished at finalization (expected > 0)")
    return -(1.0 + lp) / lpp


def _eliminate(free_desc, parent, children, fixed, n, t, z, rate, s_arr, a_arr,
               counters=None):
    """Values at ``t`` and slopes of the free nodes for the boundary set
    ``fixed``; returns the root's pair, L'(t) = z[1](t) and L'' = rate[1].
    By the tree Laplacian identity rate[1] equals the sum of squared slope
    differences across all edges.

    ``free_desc`` lists the free nodes children first.  A boundary node b
    lies on ``t - n[b]`` at slope 1, the anchor above the root at 0.
    Bottom-up, free node u reduces its children to ``(1 + s_arr[u]) z[u] =
    z[p] + v``, v of slope ``a_arr[u]`` and of value ``z[u]`` until the
    top-down pass: a boundary child c adds 1, 1 and ``t - n[c]``; a free
    child c adds its own three times ``1 / (1 + s_arr[c])``, or nothing when
    ``s_arr[c] == 0``.  Values are anchored at t: intercepts in absolute t
    lose the gaps ``t - n`` to cancellation when |n| is large.
    """
    for u in free_desc:
        s = a = v = 0.0
        for c in children[u]:
            if fixed[c]:
                s += 1.0
                a += 1.0
                v += t - n[c]
            else:
                sc = s_arr[c]
                if sc > 0.0:
                    w = 1.0 / (1.0 + sc)
                    s += sc * w
                    a += a_arr[c] * w
                    v += z[c] * w
        s_arr[u] = s
        a_arr[u] = a
        z[u] = v
    for u in reversed(free_desc):
        p = parent[u]
        d = 1.0 + s_arr[u]
        if fixed[p]:
            z[u] = (t - n[p] + z[u]) / d
            rate[u] = (1.0 + a_arr[u]) / d
        else:
            z[u] = (z[p] + z[u]) / d
            rate[u] = (rate[p] + a_arr[u]) / d
    if counters is not None:
        _tally(counters, free_desc, parent, children, fixed)
    if fixed[1]:
        return t - n[1], 1.0
    return z[1], rate[1]


def _tally(counters, free_desc, parent, children, fixed):
    """Add one elimination pass over ``free_desc`` to ``counters``."""
    free_parent = sum(1 for u in free_desc if not fixed[parent[u]] and parent[u])
    counters["components"] = (counters.get("components", 0)
                              + len(free_desc) - free_parent)
    counters["nodes_visited"] = counters.get("nodes_visited", 0) + len(free_desc)
    counters["reduce_ops"] = counters.get("reduce_ops", 0) + free_parent
    counters["star_ops"] = counters.get("star_ops", 0) + len(free_desc)
    counters["edges_touched"] = (counters.get("edges_touched", 0)
                                 + sum(len(children[u]) for u in free_desc))


def compute_rates(tree: RootedTree, boundary, counters=None):
    """Path slopes for a given boundary set.

    Returns ``(z_rate, lsecond)`` where ``z_rate`` is a length-q array
    (entry i-1 for node i, equal to 1 on the boundary and in [0, 1]
    elsewhere) and ``lsecond`` is the curvature of the dual objective on the
    segment: the root's slope, which equals the sum of squared slope
    differences across all edges (the root differencing against zero).
    """
    if not boundary:
        raise ValueError("boundary set must be nonempty")
    q = tree.q
    labels = [int(b) for b in boundary]
    odd = [b for b, label in zip(boundary, labels) if label != b]
    if odd:
        raise ValueError(f"boundary labels must be integers, got {odd}")
    if not all(1 <= b <= q for b in labels):
        raise ValueError(f"boundary labels must lie in 1..{q}")
    fixed = [False] * (q + 1)
    for b in labels:
        fixed[b] = True
    free_desc = [u for u in reversed(tree.bfs_order()) if not fixed[u]]
    rate = [0.0] * (q + 1)
    _, lsecond = _eliminate(free_desc, tree.parent, tree.children, fixed,
                            [0.0] * (q + 1), 0.0, [0.0] * (q + 1), rate,
                            [0.0] * (q + 1), [0.0] * (q + 1), counters)
    for b in labels:
        rate[b] = 1.0
    return np.array(rate[1:]), lsecond


def _active_set(tree, n, fixed, counters=None):
    """Finish a column from the boundary set ``fixed``; ``(t, z, passes)``
    once the KKT conditions certify the set, None after q + 1 passes.

    Each pass runs :func:`_eliminate` at the previous pass's t (the first at
    max n) and moves t by :func:`_newton_step` along the root's line to
    L'(t) = z[1](t) = -1, and every free value along its slope with it.
    Then boundary nodes with m < -tau leave the set and free nodes above
    their constraint line ``t - n`` by more than tau join it, with tau
    scaled by max(1, |n|_inf).  A pass that moves no node certifies its
    solution: m >= -tau on the set, m = 0 off it, z <= t - n + tau and
    sum(m) = 1.  ``fixed`` is left as it was.
    """
    q, parent, children, order = tree.q, tree.parent, tree.children, tree.bfs_order()
    rev = order[::-1]
    tau = _KKT_RTOL * max(1.0, max(map(abs, n)))
    inb = list(fixed)
    s_arr = [0.0] * (q + 1)
    a_arr = [0.0] * (q + 1)
    rate = [0.0] * (q + 1)
    z = [0.0] * (q + 1)
    t = max(n[1:])
    for passes in range(1, q + 2):
        free_desc = [u for u in rev if not inb[u]]
        lp, lpp = _eliminate(free_desc, parent, children, inb, n, t, z, rate,
                             s_arr, a_arr, counters)
        step = _newton_step(lp, lpp)
        t += step
        moved = []
        for u in order:
            if inb[u]:
                z[u] = t - n[u]
            else:
                zu = z[u] = z[u] + step * rate[u]
                if zu > t - n[u] + tau:
                    moved.append(u)
        for u in order:
            if inb[u]:
                zu = z[u]
                m = z[parent[u]] - zu
                for c in children[u]:
                    m -= zu - z[c]
                if m < -tau:
                    moved.append(u)
        if not moved:
            return t, z, passes
        for u in moved:
            inb[u] = not inb[u]
    return None


def _below(top, children, n, hi, lo, cnt, zt, t, c, target):
    """``(best, ahead)`` over the subtree of the stand-in ``top``, whose nodes
    all share its value ``zt`` and slope ``c``: the largest crossing point
    below t, and how many crossings lie in (target, t).  A subtree whose
    range of n settles both is not entered."""
    tc, dc = t * c, 1.0 - c
    best, ahead = _NEG_INF, 0
    stack = [top]
    while stack:
        v = stack.pop()
        phi = (hi[v] + zt - tc) / dc
        if phi < t:
            if phi > best:
                best = phi
            if phi <= target:
                continue
            if (lo[v] + zt - tc) / dc > target:
                ahead += cnt[v]
                continue
        p = (n[v] + zt - tc) / dc
        if p < t:
            if p > best:
                best = p
            if p > target:
                ahead += 1
        stack.extend(children[v])
    return best, ahead


def _split(top, parent, children, n, hi, lo, cnt, fixed, active, zt, t, c,
           thresh):
    """Fix the nodes of the stand-in ``top``'s subtree whose crossing point
    lies in [thresh, t).  Returns how many, and the free nodes that now
    stand for the subtree, children first: those above a new boundary node,
    which stand for themselves, and the tops of the free subtrees left
    hanging off them."""
    tc, dc = t * c, 1.0 - c
    joined = []
    stack = [top]
    while stack:
        v = stack.pop()
        if thresh <= (n[v] + zt - tc) / dc < t:
            joined.append(v)
        for w in children[v]:
            if (hi[w] + zt - tc) / dc >= thresh:
                stack.append(w)
    for v in joined:
        fixed[v] = True
        while not active[v]:
            active[v] = True
            hi[v] = lo[v] = n[v]
            cnt[v] = 1
            v = parent[v]
    hi[top] = lo[top] = n[top]
    cnt[top] = 1
    pre = []
    stack = [top]
    while stack:
        v = stack.pop()
        pre.append(v)
        for w in children[v]:
            if active[w]:
                stack.append(w)
            else:
                active[w] = True
                pre.append(w)
    return len(joined), [v for v in reversed(pre) if not fixed[v]]


def _group_key(zt, t, c):
    """The crossing point at t, as a function of its ancestor sum x, of a
    leaf that has its parent's value ``zt`` and slope ``c``: the sweep's
    own expression, which does not fall as x grows."""
    tc, dc = t * c, 1.0 - c

    def key(x):
        return (x + zt - tc) / dc

    return key


def _group_scan(ns, key, t, target):
    """``(i, best, second, ahead)`` over a group of sibling leaves, ``ns``
    their n ascending: ``i`` is the first leaf whose crossing point ``key``
    lies at or above t, ``best`` and ``second`` are the points of the two
    leaves before it, and ``ahead`` counts the points in (target, t)."""
    i = len(ns)
    best = key(ns[-1])
    if best >= t:
        i = bisect_left(ns, t, 0, i - 1, key=key)
        best = key(ns[i - 1]) if i else _NEG_INF
    second = key(ns[i - 2]) if i > 1 else _NEG_INF
    ahead = i - bisect_right(ns, target, 0, i, key=key) if target < t else 0
    return i, best, second, ahead


def _sweep(tree, f, path=None, counters=None):
    """Project one column onto ``tree``.

    ``f[v]`` is the frequency of node v (``f[0]`` is unused).  Appends one
    :class:`PathState` per segment it runs to ``path`` when it is a list
    (none for the passes of :func:`_active_set`); tallies the counts of
    every elimination pass into ``counters`` when it is a dict.

    Returns ``(t_star, z, m, f_star, cost2, iterations)``, the vectors
    1-indexed (lists below ``_STAND_IN_Q`` nodes, arrays from there on),
    ``cost2`` the squared Euclidean cost and ``iterations`` the segments
    plus the passes of :func:`_active_set`.  Each segment solves its
    boundary set afresh with :func:`_eliminate` at its start t, so
    ``lprime`` is z[1](t) and ``lsecond`` the root's slope, equal to the sum
    of squared slope differences.  A boundary node's value ``t - n[r]`` is
    written out only in path records and at finalization, where
    :func:`_newton_step` takes the last segment to L' = -1 and
    :func:`_recover` (:func:`_recover_arrays` from ``_STAND_IN_Q`` nodes
    up) turns z into m, f and the cost.

    From ``_STAND_IN_Q`` nodes up, segments visit only the active free
    nodes that can still join.  Every node of a free subtree without
    boundary nodes has its top's value and slope, since each step of the
    elimination there computes ``(x + 0.0) / 1.0``, so the top stands in
    for the subtree: its crossing point is the subtree's best, that of its
    largest ancestor sum n.  The subtree is entered only when that point
    joins (:func:`_split`), when it rounds to t or above, or when the
    forecast needs its count and its range of n does not settle it
    (:func:`_below`).  Two kinds of free node leave the segments:

    * riders, the free nodes below a boundary node.  Their slope is exactly
      1.0 (the harmonic slope of a component bounded by slope-1 nodes, each
      sum equal bit for bit), so they never cross.  Those below the best
      join leave as it joins (:func:`_ride_below`); the others leave the
      first time the scan sees them at 1.0 with a boundary node or a rider
      above them.  Their count stays in the forecast's ``riding``.  A node
      deep below boundary leaves can reach 1.0 by rounding with no boundary
      node above it; it may still cross, and it stays.
    * sibling leaves: two or more free leaf tops of one free parent form a
      group, sorted by n.  Each has its parent's value and slope, so its
      crossing point is monotone in n, and bisection (:func:`_group_scan`)
      gives the group's two best points and its forecast count.  Leaves
      within the tie tolerance of the best join rejoin the free nodes and
      join as any free node does.  When the parent joins, its leaves ride
      (:func:`_ride_groups`); when it rides, they ride with it.

    Riders hang below boundary nodes only, so one elimination over them,
    children first, at the last segment's t gives their values; path
    records run it for each record.  The nodes a top or a group parent
    stands for take its value and slope (:func:`_spread`) in path records,
    and its final value at finalization.

    In its first ceil(log2 q) segments, while more than 2 ceil(log2 q)
    nodes are free, the crossing scan also forecasts: it counts the free
    nodes that cross above the Newton target ``t - (1 + L') / L''`` and
    those that ride their constraint line at slope 1.  The forecast holds
    steady when it lost no node since the last segment other than those
    that joined or started to ride, at most ceil(log2 q) of the latter.
    Once a steady forecast covers at least half of the free nodes, with
    more than 2 ceil(log2 q) of them still free, the sweep hands over to
    :func:`_active_set`; the backstop hands over past ceil(log2 q)
    segments, with more nodes than that free.  The sweep hands over at
    most once.
    """
    q, parent, children, order = tree.q, tree.parent, tree.children, tree.bfs_order()
    n = [0.0] * (q + 1)
    for v in order:
        n[v] = f[v] + n[parent[v]]
    t = max(n[1:])
    thr = t - tie_tolerance(t)
    fixed = [x >= thr for x in n]
    fixed[0] = False
    # A stand-in's largest and smallest n and its subtree's size; n, n and 1
    # for a node that stands for itself.
    cnt = [1] * (q + 1)
    # From ``_STAND_IN_Q`` nodes up, the segments drop what cannot join and
    # the column recovers in numpy.  With ``project``'s conversions, the
    # numpy recovery breaks even with the list loop near q = 64 on a tree's
    # first column, which builds its index arrays, and near q = 32 once they
    # are cached (2.3x the loop's time at q = 7, 0.7x at 64; 2-core Xeon VM,
    # Python 3.11).
    drop = q >= _STAND_IN_Q
    # The riders dropped so far, with the nodes they stand for.
    riders = 0
    if not drop:
        hi = lo = n
        active = None
        free_desc = [v for v in reversed(order) if not fixed[v]]
        nfree = len(free_desc)
    else:
        rev = order[::-1]
        nfree = fixed.count(False) - 1
        # Active: the boundary nodes, the free nodes above them (index 0
        # anchors the root) and the free nodes hanging off either, except
        # grouped leaves.
        active = [False] * (q + 1)
        active[0] = True
        for v in compress(range(q + 1), fixed):
            while not active[v]:
                active[v] = True
                v = parent[v]
        # One pass, children first: the active free nodes in order, and each
        # inactive node's range of n and size pushed into its parent.
        hi, lo = n[:], n[:]
        free_desc = []
        push = free_desc.append
        for v in rev:
            if active[v]:
                if not fixed[v]:
                    push(v)
            else:
                p = parent[v]
                if active[p]:
                    push(v)
                    continue
                if hi[v] > hi[p]:
                    hi[p] = hi[v]
                if lo[v] < lo[p]:
                    lo[p] = lo[v]
                cnt[p] += cnt[v]
        leaves = {}
        for v in free_desc:
            if not active[v]:
                active[v] = True
                if not children[v] and not fixed[parent[v]]:
                    leaves.setdefault(parent[v], []).append(v)
        # Each free parent's leaf tops, n ascending, and their n.
        groups = {}
        for p, vs in leaves.items():
            if len(vs) > 1:
                vs.sort(key=n.__getitem__)
                groups[p] = (vs, [n[v] for v in vs])
                for v in vs:
                    active[v] = False
        if groups:
            free_desc = [v for v in free_desc if active[v]]
        # The riders dropped so far, parents first.
        rides = [False] * (q + 1)
        rider_list = []
    z = [0.0] * (q + 1)
    rate = [0.0] * (q + 1)
    cross = [0.0] * (q + 1)
    s_arr = [0.0] * (q + 1)
    a_arr = [0.0] * (q + 1)
    neg_inf = _NEG_INF
    crossing_rate = 1.0 - RATE_ONE_EPS
    segments = 0
    # Past this many segments, with as many nodes still free, hand over;
    # sooner, with twice as many free, once the forecast holds steady.
    switch = (q - 1).bit_length()
    # Free nodes forecast to cross before the last segment's Newton target,
    # less those that joined since; q + 1 before the first forecast.
    due = q + 1
    riding = 0
    steady = False
    passes = 0
    zs = None

    while True:
        if switch and (segments > switch and nfree > switch
                       or steady and nfree > 2 * switch):
            switch = 0
            done = _active_set(tree, n, fixed, counters)
            if done is None:
                passes = q + 1
            else:
                t_star, zs, passes = done
                break
        segments += 1
        if segments > q + 1:
            raise AssertionError("sweep exceeded the segment bound")
        lp, lpp = _eliminate(free_desc, parent, children, fixed, n, t, z, rate,
                             s_arr, a_arr, counters)
        if path is not None:
            if drop:
                if rider_list:
                    _eliminate(rider_list[::-1], parent, children, fixed, n, t, z,
                               rate, s_arr, a_arr)
                _spread(order, parent, active, z, rate)
            path.append(PathState(
                t=t, boundary=frozenset(r for r in range(1, q + 1) if fixed[r]),
                z=np.array([t - n[r] if fixed[r] else z[r] for r in range(1, q + 1)]),
                z_rate=np.array([1.0 if fixed[r] else rate[r] for r in range(1, q + 1)]),
                lprime=lp, lsecond=lpp,
            ))

        # Next critical value: the largest crossing point below t of a free
        # node's path line with its constraint line.  While the forecast can
        # still hand over before the backstop, ``ahead`` counts the free
        # nodes that cross above the Newton target, where L' would reach -1
        # if no node joined; ``riding`` counts those that move parallel to
        # their line, as if joined.
        watch = segments <= switch and nfree > 2 * switch
        target = t - (1.0 + lp) / lpp if watch and lpp >= LSECOND_GUARD else t
        best = second = neg_inf
        ahead = 0
        rode, riding = riding, riders
        for r in free_desc:
            c = rate[r]
            if c < crossing_rate:
                pr = (hi[r] + z[r] - t * c) / (1.0 - c)
                if pr < t:
                    if pr > target:
                        k = cnt[r]
                        if k > 1 and (lo[r] + z[r] - t * c) / (1.0 - c) <= target:
                            k = _below(r, children, n, hi, lo, cnt, z[r], t, c,
                                       target)[1]
                        ahead += k
                elif cnt[r] > 1:
                    pr, k = _below(r, children, n, hi, lo, cnt, z[r], t, c, target)
                    ahead += k
                else:
                    cross[r] = neg_inf
                    continue
                cross[r] = pr
                if pr > best:
                    second = best
                    best = pr
                    lead = r
                elif pr > second:
                    second = pr
            else:
                riding += cnt[r]
                cross[r] = neg_inf
        if drop:
            if riding > riders:
                # Parents first, so that a rider's free parent is marked.
                before = len(rider_list)
                for r in [r for r in free_desc if rate[r] == 1.0][::-1]:
                    p = parent[r]
                    if fixed[p] or rides[p]:
                        rides[r] = True
                        riders += cnt[r]
                        rider_list.append(r)
                if len(rider_list) > before:
                    free_desc = [r for r in free_desc if not rides[r]]
            near = []
            for p, (vs, ns) in list(groups.items()):
                c = rate[p]
                if c < crossing_rate:
                    key = _group_key(z[p], t, c)
                    i, pr, pr2, k = _group_scan(ns, key, t, target)
                    ahead += k
                    if pr > best:
                        second = best if best > pr2 else pr2
                        best = pr
                        lead = vs[i - 1]
                    elif pr > second:
                        second = pr
                    if i:
                        near.append((pr, p, key, i))
                else:
                    riding += len(vs)
                    if rides[p]:
                        riders += len(vs)
                        del groups[p]
            if near and best > neg_inf:
                # Leaves whose crossing points lie within the tie tolerance
                # of the best leave their groups as free nodes, and join
                # below as any other free node would.
                thresh = best - tie_tolerance(best)
                for pr, p, key, i in near:
                    if pr >= thresh:
                        vs, ns = groups[p]
                        j = bisect_left(ns, thresh, 0, i, key=key)
                        for v in vs[j:i]:
                            active[v] = True
                            z[v], rate[v], cross[v] = z[p], rate[p], key(n[v])
                        free_desc[:0] = vs[j:i]
                        del vs[j:i], ns[j:i]
                        if not vs:
                            del groups[p]
        if best == neg_inf or lp + (best - t) * lpp < -1.0:
            break
        # Steady: the forecast lost only nodes that joined or began to ride,
        # at most ``switch`` of the latter: a new boundary node that leaves
        # a whole subtree riding below it (N(0, 1) chains) is no sign.
        steady = (watch and 2 * ahead >= nfree
                  and ahead >= due - min(riding - rode, switch))
        # The free nodes whose crossing points lie within the tie tolerance
        # of the best join; most often the best alone, which then joins
        # without a pass over the free nodes.  Taking that pass on every join
        # cost 2-8% per call at q = 7-11 and up to 6% per N(0, 1) column at
        # q = 2000 (2-core Xeon VM, Python 3.11, interleaved).
        thresh = best - tie_tolerance(best)
        if second < thresh:
            if cnt[lead] == 1:
                fixed[lead] = True
                free_desc.remove(lead)
                joined = 1
            else:
                i = free_desc.index(lead)
                joined, free_desc[i:i + 1] = _split(
                    lead, parent, children, n, hi, lo, cnt, fixed, active,
                    z[lead], t, rate[lead], thresh)
        else:
            still_free = []
            keep = still_free.append
            joined = 0
            for r in free_desc:
                if cross[r] < thresh:
                    keep(r)
                elif cnt[r] == 1:
                    fixed[r] = True
                    joined += 1
                else:
                    k, stand = _split(r, parent, children, n, hi, lo, cnt, fixed,
                                      active, z[r], t, rate[r], thresh)
                    joined += k
                    still_free += stand
            free_desc = still_free
        if drop:
            # The free nodes below the best join ride from now on, and so do
            # the leaves of each group whose parent joined.  Riders below the
            # other joins of a tie leave at the next scan.  Leaving all of
            # them to the scan costs each one more segment's visit: N(0, 1)
            # chain columns at q = 300 and 2000 then ran 1.14-1.15x slower
            # (2-core Xeon VM, interleaved); other columns were even.
            if fixed[lead]:
                k = _ride_below(lead, children, fixed, active, cnt, rides, groups,
                                rider_list)
                if k:
                    riders += k
                    free_desc = [r for r in free_desc if not rides[r]]
            riders += _ride_groups(groups, fixed, active, rider_list)
        if watch:
            due = ahead - joined
        nfree -= joined
        t = best

    if zs is None:
        step = _newton_step(lp, lpp)
        t_star = t + step
        if drop:
            if rider_list:
                _eliminate(rider_list[::-1], parent, children, fixed, n, t, z, rate,
                           s_arr, a_arr, counters)
            # A node that a top or a group parent stands for takes its value,
            # parents first, as :func:`_spread` would give it.
            zs = [0.0] * (q + 1)
            for i in order:
                if fixed[i]:
                    zs[i] = t - n[i] + step
                elif active[i]:
                    zs[i] = z[i] + step * rate[i]
                else:
                    zs[i] = zs[parent[i]]
        else:
            zs = [t - n[i] + step if fixed[i] else z[i] + step * rate[i]
                  for i in range(q + 1)]
    if drop:
        zs, m, fstar, cost2 = _recover_arrays(tree, zs, f)
    else:
        m, fstar, cost2 = _recover(parent, zs, f)
    return t_star, zs, m, fstar, cost2, segments + passes


def _ride_below(b, children, fixed, active, cnt, rides, groups, riders):
    """Mark the active free nodes below the new boundary node ``b``, down to
    the next boundary nodes, as riders, appending them parents first to
    ``riders``; a group of leaves under one of them rides with it.  Returns
    how many nodes ride, with the nodes they stand for."""
    count = 0
    stack = [b]
    while stack:
        for c in children[stack.pop()]:
            if active[c] and not fixed[c]:
                rides[c] = True
                riders.append(c)
                count += cnt[c]
                stack.append(c)
                if c in groups:
                    count += len(groups.pop(c)[0])
    return count


def _ride_groups(groups, fixed, active, riders):
    """Move the leaves of each group whose parent has joined to the list of
    riders, and drop the group; returns how many leaves moved."""
    moved = 0
    for p in [p for p in groups if fixed[p]]:
        vs = groups.pop(p)[0]
        for v in vs:
            active[v] = True
        riders.extend(vs)
        moved += len(vs)
    return moved


def _spread(order, parent, active, z, rate):
    """Give every free node that a top or a group parent stands for its
    value and slope, parents first."""
    for v in order:
        if not active[v]:
            p = parent[v]
            z[v] = z[p]
            rate[v] = rate[p]


def _tie_tolerance_block(t):
    """:func:`tie_tolerance` of every entry of ``t``."""
    return _TIE_RTOL * np.maximum(np.abs(t), 1.0)


def _sweep_block(parent, depth, f):
    """Squared projection cost of one column on each of B trees in lockstep.

    ``parent`` and ``depth`` (B, q+1) are rows of the search's walk, each
    node's parent and depth, and ``f`` is the column as a length-(q+1)
    vector; column 0 of each is unused.  Runs :func:`_sweep`'s segments,
    with its tie tolerance and ``RATE_ONE_EPS``, on all trees at once and
    returns the (B,) squared costs, NaN for a row it cannot vouch for
    (curvature below ``LSECOND_GUARD``, a non-finite cost or more than q+1
    segments).  It moves z along the slopes from segment to segment rather
    than solving each afresh, reads L' = z[1] and L'' = rate[1] off the
    root as :func:`_eliminate` does and takes :func:`_newton_step`'s step,
    so its costs may differ from :func:`_sweep`'s in the last bits; it
    builds no m or f vectors.

    Each tree is relabelled by position in its order by depth, then label,
    so that position j's parent lies at a smaller position and the state is
    (q+1, B) arrays whose row j is position j of every tree (row 0 is the
    zero anchor above the root).  Step j of either pass then reads or writes
    one parent per tree, so its scattered indices are unique.  Rows that
    finish are compacted out after each segment.
    """
    b, width = parent.shape
    q = width - 1
    # In int64: depth * width + label overflows the walk's int8 rows.
    order = np.sort(depth[:, 1:].astype(np.int64) * width + np.arange(1, width),
                    axis=1) % width
    f = np.asarray(f, dtype=float)
    rows = np.arange(b)[:, None]
    pos = np.zeros((b, q + 1), dtype=np.int64)
    pos[rows, order] = np.arange(1, q + 1)
    up = np.zeros((q + 1, b), dtype=np.int64)
    up[1:] = pos[rows, parent[rows, order]].T
    fcol = np.zeros((q + 1, b))
    fcol[1:] = f[order].T
    del order, pos

    cost2 = np.full(b, np.nan)
    live = np.arange(b)
    width = b
    flat = up * width + np.arange(width)
    n = np.zeros((q + 1, width))
    nf = n.reshape(-1)
    for j in range(1, q + 1):
        n[j] = fcol[j] + nf[flat[j]]
    t = n[1:].max(axis=0)
    fixed = np.zeros((q + 1, width), dtype=bool)
    fixed[1:] = n[1:] >= t - _tie_tolerance_block(t)
    z = np.zeros((q + 1, width))
    crossing_rate = 1.0 - RATE_ONE_EPS

    for _ in range(q + 1):
        s = np.zeros((q + 1, width))
        a = np.zeros((q + 1, width))
        sf = s.reshape(-1)
        af = a.reshape(-1)
        for j in range(q, 1, -1):
            d = s[j] + 1.0
            fx = fixed[j]
            # The indices are unique; add.at is only the faster scatter.
            np.add.at(sf, flat[j], np.where(fx, 1.0, s[j] / d))
            np.add.at(af, flat[j], np.where(fx, 1.0, a[j] / d))
        rate = np.zeros((q + 1, width))
        rf = rate.reshape(-1)
        for j in range(1, q + 1):
            rate[j] = np.where(fixed[j], 1.0, (rf[flat[j]] + a[j]) / (s[j] + 1.0))
        lp, lpp = z[1], rate[1]

        c = rate[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            pr = (n[1:] + z[1:] - t * c) / (1.0 - c)
            pr = np.where(~fixed[1:] & (c < crossing_rate) & (pr < t), pr, _NEG_INF)
            best = pr.max(axis=0)
            done = (best == _NEG_INF) | (lp + (best - t) * lpp < -1.0)

        finished = np.flatnonzero(done)
        if finished.size:
            with np.errstate(divide="ignore", invalid="ignore"):
                td, lppd = t[finished], lpp[finished]
                step = -(1.0 + lp[finished]) / lppd
                zs = np.where(np.take(fixed, finished, axis=1),
                              td - np.take(n, finished, axis=1) + step,
                              np.take(z, finished, axis=1)
                              + step * np.take(rate, finished, axis=1))
                fd = np.take_along_axis(zs, np.take(up, finished, axis=1), axis=0) - zs
                diff = np.take(fcol, finished, axis=1)[1:] - fd[1:]
                c2 = np.einsum("ij,ij->j", diff, diff)
            rows_done = live[finished]
            cost2[rows_done] = np.where((lppd >= LSECOND_GUARD) & np.isfinite(c2), c2, np.nan)
            going = np.flatnonzero(~done)
            if not going.size:
                break

        with np.errstate(invalid="ignore"):
            fixed[1:] |= pr >= best - _tie_tolerance_block(best)
            z += (best - t) * rate
        # The segment's (q+1, B) arrays go before the next are made.
        del s, a, rate, lp, lpp, c, pr
        t = best
        if finished.size:
            live = live[going]
            width = live.size
            up, fcol, n, fixed, z = (
                np.take(x, going, axis=1) for x in (up, fcol, n, fixed, z))
            t = t[going]
            flat = up * width + np.arange(width)
    return cost2


def project(tree: RootedTree, fhat_col, keep_path=False,
            counters=None) -> ProjectionResult:
    """Project one frequency column onto the model polytope of ``tree``.

    ``fhat_col`` may be any finite real vector; entries outside [0, 1] are
    legal (the dual is defined for any cumulative sums).  Returns the unique
    minimizer: optimal mutant fractions ``m_star`` on the simplex, model
    frequencies ``f_star``, the dual values, and the Euclidean cost.

    With ``keep_path=True`` the result carries one :class:`PathState` per
    sweep segment run, up to the handover when the active-set finish
    certifies.  A dict passed as ``counters`` accumulates, over every
    elimination of the sweep and the finish, the free components, nodes
    visited, reductions, star solves and child edges scanned; a sweep
    segment visits only the free nodes that can still join (see
    :func:`_sweep`), the pass that writes out the riders at the end visits
    each of them once, and a finish pass visits every free node.  Neither
    changes the result.
    """
    f = _column(fhat_col, tree.q)
    path = [] if keep_path else None
    t_star, z, m, fv, cost2, iterations = _sweep(
        tree, [0.0] + f.tolist(), path=path, counters=counters)
    f_star = np.asarray(fv[1:])
    # Past |F̂| ~ 1e154 the squares overflow; hypot scales them instead.
    cost = math.sqrt(cost2) if math.isfinite(cost2) else math.hypot(*(f - f_star))
    return ProjectionResult(
        t_star=t_star, z_star=np.asarray(z[1:]), m_star=np.asarray(m[1:]),
        f_star=f_star, cost=cost, iterations=iterations,
        rate_recomputations=iterations, path=path,
    )


# One sweep serves both names; the second is kept for existing callers.
project_incremental = project


def project_matrix(tree: RootedTree, fhat):
    """Project every column of a q-by-p frequency matrix independently.

    Returns ``(results, total_cost)`` with one :class:`ProjectionResult`
    per column and the aggregate cost ``sqrt(sum of squared column costs)``
    (the matrix objective decomposes column-wise after squaring).
    """
    mat = np.asarray(fhat, dtype=float)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.shape[0] != tree.q:
        raise ValueError(f"matrix has {mat.shape[0]} rows, tree has {tree.q} nodes")
    results = [project(tree, mat[:, s]) for s in range(mat.shape[1])]
    costs = [r.cost for r in results]
    try:
        total = math.sqrt(sum(c ** 2 for c in costs))
    except OverflowError:  # float ** raises where float * gives inf
        total = math.inf
    if not math.isfinite(total):
        total = math.hypot(*costs)
    return results, total

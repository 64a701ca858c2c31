"""Rooted labeled trees on nodes {1..q} with node 1 fixed as the root.

Nodes are labeled 1..q and node 1 is always the root (the null-mutation
convention: every genome carries the root mutation).  Internally the tree is
stored both as a parent array and as child adjacency lists so that downward
recursions and upward accumulations each get their natural access pattern.

Public vectors indexed by node (frequencies, ancestor sums, ...) are plain
sequences of length q where position ``i-1`` holds the value for node ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class TreeInputError(ValueError):
    """Raised for malformed tree descriptions (bad labels, cycles, ...)."""


@dataclass(frozen=True)
class RootedTree:
    """A labeled rooted tree on nodes {1..q} with root 1.

    Attributes
    ----------
    q : int
        Number of nodes.
    parent : tuple[int]
        Length q+1, 1-indexed; ``parent[i]`` is the parent label of node i,
        0 for the root.  Index 0 is unused.
    children : tuple[tuple[int]]
        Length q+1, 1-indexed; ``children[i]`` lists the children of node i
        in ascending label order.  Index 0 is unused.
    """

    q: int
    parent: tuple
    children: tuple
    _order: tuple = field(default=None, repr=False, compare=False)
    _arrays: tuple = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_parent_array(parents) -> "RootedTree":
        """Build a tree from ``parents[i-1] = parent of node i`` (0 = root).

        Validates that node 1 is the unique root, all parents are in range,
        and the structure is connected and acyclic.
        """
        q = len(parents)
        if q < 1:
            raise TreeInputError("tree must have at least one node")
        parent = [0] * (q + 1)
        roots = 0
        for i, label in enumerate(parents, start=1):
            p = int(label)
            if p != label:
                raise TreeInputError(f"parent of node {i} is {label}, not an integer")
            if p == 0:
                roots += 1
                if i != 1:
                    raise TreeInputError(f"node {i} marked as root; root must be node 1")
            elif not (1 <= p <= q):
                raise TreeInputError(f"parent of node {i} is {p}, outside 1..{q}")
            elif p == i:
                raise TreeInputError(f"node {i} is its own parent")
            parent[i] = p
        if roots != 1:
            raise TreeInputError(f"expected exactly one root, found {roots}")
        tree = _tree_from_parent(parent)
        # Connectivity: a BFS from the root must reach all q nodes.
        if len(tree.bfs_order()) != q:
            raise TreeInputError("tree is not connected (cycle or unreachable nodes)")
        return tree

    def bfs_order(self) -> tuple:
        """Nodes in breadth-first order from the root (parents before children)."""
        if self._order is not None:
            return self._order
        order = [1]
        children = self.children
        head = 0
        while head < len(order):
            order.extend(children[order[head]])
            head += 1
        order = tuple(order)
        object.__setattr__(self, "_order", order)
        return order

    def _index_arrays(self) -> tuple:
        """``(up, pairs)``, cached like :meth:`bfs_order`: the parent array
        as indices, and every node's label followed by its parent's, in
        label order (length 2q)."""
        if self._arrays is not None:
            return self._arrays
        up = np.array(self.parent, dtype=np.intp)
        pairs = np.empty(2 * self.q, dtype=np.intp)
        pairs[0::2] = np.arange(1, self.q + 1)
        pairs[1::2] = up[1:]
        object.__setattr__(self, "_arrays", (up, pairs))
        return self._arrays

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff node ``a`` is an ancestor of ``b`` or ``a == b``."""
        while b != 0:
            if b == a:
                return True
            b = self.parent[b]
        return False

    def to_text(self) -> str:
        """One line of q space-separated parent labels, 0 for the root: the
        format :func:`ppmproj.io.load_tree` reads."""
        return " ".join(str(p) for p in self.parent[1:])


def _tree_from_parent(parent) -> RootedTree:
    """Unchecked :class:`RootedTree` of a 1-indexed parent list (entry 0
    unused, 0 for the root); children come out in ascending label order."""
    q = len(parent) - 1
    children = [[] for _ in range(q + 1)]
    for v in range(2, q + 1):
        children[parent[v]].append(v)
    return RootedTree(q, tuple(parent), tuple(map(tuple, children)))


def _reroot(parent, root):
    """Copy of the 1-indexed ``parent`` list with the path from ``root`` up
    to the old root reversed, so that ``root`` becomes the root."""
    up = list(parent)
    prev, cur = 0, root
    while cur:
        nxt = parent[cur]
        up[cur] = prev
        prev, cur = cur, nxt
    return up


def count_trees(q: int) -> int:
    """Number of labeled trees on q nodes, each rooted at node 1.

    Cayley's formula gives q^(q-2) labeled trees for q >= 3; for q in {1, 2}
    there is exactly one tree.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q <= 2:
        return 1
    return q ** (q - 2)


def decode_prufer(code, q: int) -> RootedTree:
    """Decode a Prüfer sequence into the labeled tree on {1..q} rooted at 1.

    ``code`` must have length q-2 with entries in 1..q (empty for q <= 2).
    The leaf walk hangs the tree from node q; the path from node 1 to q is
    then reversed.
    """
    raw = tuple(code)
    code = tuple(map(int, raw))
    if code != raw:
        j = next(j for j, (c, r) in enumerate(zip(code, raw)) if c != r)
        raise TreeInputError(f"code[{j}] = {raw[j]} is not an integer")
    if q < 1:
        raise TreeInputError(f"q must be >= 1, got {q}")
    if q <= 2:
        if code:
            raise TreeInputError(f"q={q} admits no Prüfer code, got length {len(code)}")
        return _tree_from_parent([0, 0, 1][:q + 1])
    if len(code) != q - 2:
        raise TreeInputError(f"code length {len(code)} != q-2 = {q - 2}")
    degree = [1] * (q + 1)
    for j, c in enumerate(code):
        if not (1 <= c <= q):
            raise TreeInputError(f"code[{j}] = {c} is outside 1..{q}")
        degree[c] += 1
    up = [0] * (q + 1)
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for c in code:
        up[leaf] = c
        degree[c] -= 1
        if degree[c] == 1 and c < ptr:
            leaf = c
        else:
            # Every removed leaf has index <= ptr, so the forward scan never
            # lands on one even though removed leaves keep degree 1.
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    up[leaf] = q
    return _tree_from_parent(_reroot(up, 1))


def encode_prufer(tree: RootedTree) -> tuple:
    """Prüfer sequence of a tree (length q-2); inverse of :func:`decode_prufer`.

    Runs the decode's leaf walk the other way: with the tree hung from node
    q, each step emits the parent of the smallest leaf.
    """
    q = tree.q
    if q <= 2:
        return ()
    up = _reroot(tree.parent, q)
    degree = [1] * (q + 1)
    for v in range(1, q):
        degree[up[v]] += 1
    degree[q] -= 1
    code = []
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for _ in range(q - 2):
        c = up[leaf]
        code.append(c)
        degree[c] -= 1
        if degree[c] == 1 and c < ptr:
            leaf = c
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    return tuple(code)


def _column(values, q: int) -> np.ndarray:
    """A frequency column as a flat float array of length q; raises
    ValueError for any other length or a non-finite entry."""
    f = np.asarray(values, dtype=float).reshape(-1)
    if f.shape != (q,):
        raise ValueError(f"expected a length-{q} vector, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("frequency vector contains non-finite entries")
    return f


def ancestor_sums(tree: RootedTree, fhat_col) -> np.ndarray:
    """Cumulative frequency sums along ancestry: N_i = sum of F̂ over node i
    and all its ancestors.

    Computed in one pass over a breadth-first order with a running accumulator
    per node; O(q).
    """
    q = tree.q
    f = _column(fhat_col, q)
    n = np.empty(q)
    parent = tree.parent
    for v in tree.bfs_order():
        p = parent[v]
        n[v - 1] = f[v - 1] + (n[p - 1] if p else 0.0)
    return n


def ancestry_matrix(tree: RootedTree) -> np.ndarray:
    """Integer matrix U with U[i-1, j-1] = 1 iff node i is an ancestor of j or i == j.

    Satisfies U @ (I - T) == I exactly in integer arithmetic, where T is the
    closest-ancestor adjacency from :func:`closest_ancestor_matrix`.
    """
    q = tree.q
    u = np.zeros((q, q), dtype=np.int64)
    parent = tree.parent
    for v in tree.bfs_order():
        p = parent[v]
        if p:
            u[:, v - 1] = u[:, p - 1]
        u[v - 1, v - 1] = 1
    return u


def closest_ancestor_matrix(tree: RootedTree) -> np.ndarray:
    """Integer matrix T with T[i-1, j-1] = 1 iff node i is the parent of node j."""
    q = tree.q
    t = np.zeros((q, q), dtype=np.int64)
    for j in range(2, q + 1):
        t[tree.parent[j] - 1, j - 1] = 1
    return t

"""Seeded inputs owned by the benchmark: parent arrays and frequency matrices.

Nothing here calls ppmproj, so a rewrite of the library's generators cannot
change what the benchmark measures.  Parent arrays follow the library's
text format: entry ``i-1`` is the parent of node ``i``, 0 marks the root,
and node 1 is always the root.  Every draw comes from a generator seeded by
``SeedSequence([seed, *stream])``, so a seed fixes every input.
"""

from __future__ import annotations

import heapq

import numpy as np

REGIMES = ("normal", "nearfeasible")

# Noise scale of the near-feasible regime: F = U @ M + NOISE / sqrt(q) * N(0, 1).
NOISE = 0.01


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def branching_parents(q: int, rng) -> list:
    """Galton-Watson tree, 1 to 4 children per node, truncated at q nodes."""
    parents = [0] * q
    queue = [1]
    made = 1
    head = 0
    while made < q:
        v = queue[head]
        head += 1
        for _ in range(int(rng.integers(1, 5))):
            if made == q:
                break
            made += 1
            parents[made - 1] = v
            queue.append(made)
    return parents


def prufer_decode(code, q: int) -> list:
    """Parent array of the labeled tree with Prüfer code ``code``, rooted at 1."""
    if q <= 2:
        return [0] if q == 1 else [0, 1]
    code = [int(c) for c in code]
    degree = [1] * (q + 1)
    for c in code:
        degree[c] += 1
    leaves = [v for v in range(1, q + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    adjacency = [[] for _ in range(q + 1)]
    for c in code:
        leaf = heapq.heappop(leaves)
        adjacency[leaf].append(c)
        adjacency[c].append(leaf)
        degree[c] -= 1
        if degree[c] == 1:
            heapq.heappush(leaves, c)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    adjacency[u].append(v)
    adjacency[v].append(u)
    parents = [0] * q
    seen = [False] * (q + 1)
    seen[1] = True
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = True
                parents[w - 1] = v
                stack.append(w)
    return parents


def prufer_parents(q: int, rng) -> list:
    """Uniform labeled tree (uniform Prüfer code), rooted at node 1."""
    return prufer_decode(rng.integers(1, q + 1, size=max(q - 2, 0)), q)


def chain_parents(q: int, rng) -> list:
    """Path from node 1 through the other labels in random order."""
    labels = [1] + (rng.permutation(q - 1) + 2).tolist()
    parents = [0] * q
    for a, b in zip(labels, labels[1:]):
        parents[b - 1] = a
    return parents


def star_parents(q: int, rng) -> list:
    """Node 1 with every other node as its child."""
    return [0] + [1] * (q - 1)


SHAPES = {
    "branching": branching_parents,
    "prufer": prufer_parents,
    "chain": chain_parents,
    "star": star_parents,
}


def bfs_order(parents) -> list:
    """0-indexed nodes, parents before children."""
    q = len(parents)
    children = [[] for _ in range(q + 1)]
    for i, p in enumerate(parents, start=1):
        if p:
            children[p].append(i)
    order = [1]
    head = 0
    while head < len(order):
        order.extend(children[order[head]])
        head += 1
    if len(order) != q:
        raise ValueError("parent array is not a tree rooted at node 1")
    return [v - 1 for v in order]


def subtree_sums(parents, order, x) -> np.ndarray:
    """``U @ x``: each node's row plus those of all its descendants."""
    out = np.array(x, dtype=float)
    if out.ndim == 1:
        vals = out.tolist()
        for v in order[:0:-1]:
            vals[parents[v] - 1] += vals[v]
        return np.array(vals)
    for v in order[:0:-1]:
        out[parents[v] - 1] += out[v]
    return out


def ancestor_sums(parents, order, x) -> np.ndarray:
    """``U.T @ x`` for a vector: each entry plus those of all its ancestors."""
    vals = np.asarray(x, dtype=float).tolist()
    for v in order[1:]:
        vals[v] += vals[parents[v] - 1]
    return np.array(vals)


def frequencies(regime: str, parents, q: int, p: int, rng) -> np.ndarray:
    """A q-by-p matrix F̂ for the tree ``parents`` in the given regime.

    normal: i.i.d. N(0, 1).  nearfeasible: ``U @ M`` with flat-Dirichlet
    columns of M, plus N(0, 1) noise scaled by ``NOISE / sqrt(q)``.
    """
    if regime == "normal":
        return rng.standard_normal((q, p))
    if regime == "nearfeasible":
        m = rng.dirichlet(np.ones(q), size=p).T
        exact = subtree_sums(parents, bfs_order(parents), m)
        return exact + NOISE / np.sqrt(q) * rng.standard_normal((q, p))
    raise ValueError(f"unknown regime {regime!r}")


def projection_round(regime: str, shapes, q: int, p: int, seed: int, rnd: int):
    """One tree per shape, each with a fresh q-by-p matrix: [(shape, parents, F̂)]."""
    rng = rng_for(seed, REGIMES.index(regime), 0, rnd)
    out = []
    for shape in shapes:
        parents = SHAPES[shape](q, rng)
        out.append((shape, parents, frequencies(regime, parents, q, p, rng)))
    return out


def search_instance(regime: str, q: int, p: int, seed: int, index: int):
    """A planted uniform Prüfer tree and a q-by-p matrix drawn on it."""
    rng = rng_for(seed, REGIMES.index(regime), 1, index)
    parents = prufer_parents(q, rng)
    return parents, frequencies(regime, parents, q, p, rng)

"""Random instance generation for tests and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import RootedTree, ancestry_matrix, decode_prufer


@dataclass
class GaltonWatsonSpec:
    """Branching-process tree spec: uniform child counts, truncated at q nodes."""

    q: int
    cmin: int = 1
    cmax: int = 4

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if not (1 <= self.cmin <= self.cmax):
            raise ValueError("need 1 <= cmin <= cmax")


def galton_watson_tree(spec: GaltonWatsonSpec, rng) -> RootedTree:
    """Grow a branching tree breadth-first and truncate at exactly q nodes.

    Each dequeued node draws its child count uniformly in [cmin, cmax];
    children get the next labels in order, so labels follow the generation
    order.  cmin >= 1 rules out extinction before the target size.
    """
    q = spec.q
    parents = [0] * q
    queue = [1]
    made = 1
    head = 0
    while made < q:
        v = queue[head]
        head += 1
        k = int(rng.integers(spec.cmin, spec.cmax + 1))
        for _ in range(k):
            if made == q:
                break
            made += 1
            parents[made - 1] = v
            queue.append(made)
    return RootedTree.from_parent_array(parents)


def random_labeled_tree(q: int, rng) -> RootedTree:
    """Uniform labeled tree on q nodes (uniform Prüfer code), rooted at 1."""
    if q <= 2:
        return decode_prufer((), q)
    code = rng.integers(1, q + 1, size=q - 2)
    return decode_prufer(code, q)


def random_instance(q: int, p: int = 1, rng=None, feasible: bool = False,
                    tree: RootedTree = None):
    """A (tree, fhat) pair for testing.

    Default: i.i.d. standard normal frequencies.  With ``feasible=True``
    the frequencies are built as U @ M for per-column mutant fractions drawn
    from a flat Dirichlet, so the instance projects onto itself at zero cost.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    rng = rng if rng is not None else np.random.default_rng(0)
    if tree is None:
        tree = random_labeled_tree(q, rng)
    if feasible:
        u = ancestry_matrix(tree).astype(float)
        m = rng.dirichlet(np.ones(q), size=p).T
        fhat = u @ m
    else:
        fhat = rng.standard_normal((q, p))
    return tree, fhat

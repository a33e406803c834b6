"""Independent verification routes: numeric rigidity-matrix rank over
random placements, and a structured search for packing-inequality
witnesses.

Everything here deliberately avoids the pebble game and the closed-form
spectral code so that agreement between the two routes is evidence, not
tautology.
"""
from __future__ import annotations

import random
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .graphcore import Graph, _members

DEFAULT_RANK_TOL = 1e-9


class DegeneratePlacementError(ValueError):
    """Placement with coincident points."""


class Placement:
    """Immutable planar coordinates for vertices 0..n-1, one row per
    vertex; equal only to itself."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.asarray(coords, dtype=float)
        if c.ndim != 2 or c.shape[1] != 2:
            raise ValueError(f"coords must be (n, 2), got {c.shape}")
        rows = {tuple(row) for row in c}
        if len(rows) != len(c):
            raise DegeneratePlacementError("coincident points in placement")
        object.__setattr__(self, "coords", c)

    def __setattr__(self, name, value):
        raise AttributeError("Placement is immutable")

    def __reduce__(self):
        return Placement, (self.coords,)

    def __repr__(self) -> str:
        return f"Placement(coords={self.coords!r})"

    @property
    def n(self) -> int:
        return len(self.coords)


def random_placement(n: int, seed: int) -> Placement:
    """Points drawn uniformly from [1, 2)^2; deterministic in the seed,
    which must be non-negative.

    The coordinates come from `random.Random(seed)`, x then y for each
    vertex in turn.  `import numpy` already loads `random`, while
    `numpy.random` would add about 6 MB and several ms to each process.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    draw = random.Random(seed).random
    return Placement(1.0 + np.array([draw() for _ in range(2 * n)])
                     .reshape(n, 2))


def rigidity_matrix(g: Graph, pl: Placement) -> np.ndarray:
    """m x 2n first-order flex constraint matrix: the row of edge uv holds
    p(u) - p(v) in u's coordinate block and the negation in v's."""
    if pl.n != g.n:
        raise ValueError(f"placement has {pl.n} points for n={g.n}")
    ends = np.fromiter(chain.from_iterable(g.edge_list()), dtype=np.intp,
                       count=2 * g.m)
    u, v = ends[0::2], ends[1::2]
    d = pl.coords[u] - pl.coords[v]
    rows = np.arange(g.m)
    mat = np.zeros((g.m, g.n, 2))  # row r, vertex w, coordinate
    mat[rows, u] = d
    mat[rows, v] = -d
    return mat.reshape(g.m, 2 * g.n)


def numeric_rank(g: Graph, pl: Placement) -> int:
    """Singular-value rank of the rigidity matrix, with threshold
    DEFAULT_RANK_TOL relative to the largest singular value."""
    if g.m == 0:
        return 0
    svals = np.linalg.svd(rigidity_matrix(g, pl), compute_uv=False)
    return int(np.sum(svals > DEFAULT_RANK_TOL * svals[0]))


# -- packing inequality ---------------------------------------------------
#
# A graph with a spanning rigid subgraph has, for every partition of its
# vertices into t parts of which s are singletons, at least
#   3(t - s) + 2s - 3
# crossing edges (Lovasz & Yemini 1982).  A partition with fewer certifies
# that the graph is not rigid.


def packing_violation_search(g: Graph) -> Optional[list[int]]:
    """First vertex partition with too few crossing edges for a spanning
    rigid subgraph, as the bitmasks of its parts, or None.

    Tries a deterministic family of candidate partitions in order: the
    singletons, the components when there are more than one, then each
    closed neighbourhood and each greedy clique against the rest.  So it
    scales to larger graphs but can miss a witness.
    """
    adj = g.adj
    seen: set[frozenset[int]] = set()
    for parts in _partition_candidates(g):
        sig = frozenset(parts)
        if sig in seen:
            continue
        seen.add(sig)
        # each crossing edge is seen once from either end
        crossing = sum((adj[v] & ~p).bit_count()
                       for p in parts for v in _members(p)) // 2
        singles = sum(p & (p - 1) == 0 for p in parts)
        if crossing < 3 * len(parts) - singles - 3:
            return parts
    return None


def _partition_candidates(g: Graph) -> Iterator[list[int]]:
    full = (1 << g.n) - 1
    yield [1 << v for v in range(g.n)]
    comps = []
    left = full
    while left:
        comps.append(g._reach(left & -left))
        left ^= comps[-1]
    if len(comps) > 1:
        yield comps
    for v in range(g.n):
        block = g.adj[v] | 1 << v
        if full & ~block:
            yield [block, full ^ block]
    for v in range(g.n):
        # greedy clique: common holds the vertices adjacent to all of it
        clique, common = 1 << v, g.adj[v]
        for w in range(g.n):
            if common >> w & 1:
                clique |= 1 << w
                common &= g.adj[w]
        if full & ~clique:
            yield [clique, full ^ clique]

"""Independent verification routes: numeric rigidity-matrix rank over
random placements, and a structured search for packing-inequality
witnesses.

Everything here deliberately avoids the pebble game and the closed-form
spectral code so that agreement between the two routes is evidence, not
tautology.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator, Optional

import numpy as np

from .graphcore import Graph, VertexPartition, _members, partition_cut

DEFAULT_RANK_TOL = 1e-9


class DegeneratePlacementError(ValueError):
    """Placement with coincident points."""


@dataclass(frozen=True, eq=False)
class Placement:
    """Planar coordinates for vertices 0..n-1, one row per vertex."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 2 or c.shape[1] != 2:
            raise ValueError(f"coords must be (n, 2), got {c.shape}")
        rows = {tuple(row) for row in c}
        if len(rows) != len(c):
            raise DegeneratePlacementError("coincident points in placement")
        object.__setattr__(self, "coords", c)

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
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > DEFAULT_RANK_TOL * svals[0]))


# -- packing inequality ---------------------------------------------------
#
# For k spanning rigid subgraphs to exist, every removed set Z with
# |Z| <= 2 and every partition P of the rest must satisfy
#   crossing_edges(P)  >=  k(3-|Z|)(#nontrivial) + 2k(#trivial) - 3k - z_adjacency.
# A violating (Z, P) certifies that the packing is impossible.


def packing_condition_holds(g: Graph, k: int, vp: VertexPartition) -> bool:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(vp.z) > 2:
        raise ValueError(f"|Z| must be at most 2, got {len(vp.z)}")
    rhs = (
        k * (3 - len(vp.z)) * vp.n_nontrivial
        + 2 * k * vp.n_trivial
        - 3 * k
        - vp.z_adjacency
    )
    return partition_cut(g, vp) >= rhs


def _structured_candidates(g: Graph, zset: frozenset[int]) -> Iterator[list[list[int]]]:
    rest = sorted(set(range(g.n)) - zset)
    if not rest:
        return
    yield [[v] for v in rest]
    # without its edges each Z vertex is a singleton component; the rest
    # are the components of g - Z, in order of least vertex
    g_z = Graph(g.n, [e for e in g.edge_list() if zset.isdisjoint(e)])
    comps = [sorted(c) for c in g_z.components() if not c <= zset]
    if len(comps) > 1:
        yield comps
    restmask = sum(1 << v for v in rest)
    for v in rest:
        block = g.adj[v] & restmask | 1 << v
        if restmask & ~block:
            yield [_members(block), _members(restmask & ~block)]
    for v in rest:
        # greedy clique: common holds the vertices adjacent to all of it
        clique, common = 1 << v, g.adj[v]
        for w in rest:
            if common >> w & 1:
                clique |= 1 << w
                common &= g.adj[w]
        if restmask & ~clique:
            yield [_members(clique), _members(restmask & ~clique)]


def packing_violation_search(
    g: Graph, k: int, zmax: int = 2
) -> Optional[VertexPartition]:
    """First (Z, partition) violating the packing inequality, or None.

    Tries every Z up to zmax with a deterministic family of candidate
    partitions of the rest (singletons, components, closed neighbourhoods,
    greedy cliques), so it scales to larger graphs but can miss a witness.
    """
    if zmax < 0 or zmax > 2:
        raise ValueError(f"zmax must be in 0..2, got {zmax}")
    verts = range(g.n)
    for zsize in range(min(zmax, g.n - 1) + 1):
        for z in combinations(verts, zsize):
            zset = frozenset(z)
            seen_sig: set[frozenset[frozenset[int]]] = set()
            for parts in _structured_candidates(g, zset):
                sig = frozenset(frozenset(p) for p in parts)
                if sig in seen_sig:
                    continue
                seen_sig.add(sig)
                vp = VertexPartition(g, zset, parts)
                if not packing_condition_holds(g, k, vp):
                    return vp
    return None

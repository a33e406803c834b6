"""Independent verification oracles: numeric rigidity-matrix rank over
random placements, exponential-time sparsity counting, and exhaustive or
structured searches for packing-inequality and cut-size witnesses.

Everything here deliberately avoids the pebble game and the closed-form
spectral code so that agreement between the two routes is evidence, not
tautology.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .graphcore import Graph, VertexPartition, boundary_size, partition_cut

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
    """Points drawn uniformly from [1, 2)^2; deterministic in the seed."""
    rng = np.random.default_rng(seed)
    return Placement(1.0 + rng.random((n, 2)))


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


def trivial_motion_space(pl: Placement) -> np.ndarray:
    """2n x 3 basis of the always-flexible motions: two translations and
    the rotation (x, y) -> (-y, x)."""
    n = pl.n
    basis = np.zeros((2 * n, 3))
    basis[0::2, 0] = 1.0
    basis[1::2, 1] = 1.0
    basis[0::2, 2] = -pl.coords[:, 1]
    basis[1::2, 2] = pl.coords[:, 0]
    return basis


def numeric_rank(g: Graph, pl: Placement) -> int:
    """Singular-value rank of the rigidity matrix, with threshold
    DEFAULT_RANK_TOL relative to the largest singular value."""
    if g.m == 0:
        return 0
    svals = np.linalg.svd(rigidity_matrix(g, pl), compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > DEFAULT_RANK_TOL * svals[0]))


# -- exponential-time sparsity oracles ------------------------------------


def brute_minimally_rigid(g: Graph) -> bool:
    """Definition-level check: 2n-3 edges and every vertex subset X with
    |X| >= 2 spans at most 2|X| - 3 edges.  Exponential in n."""
    n = g.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if n > 10:
        raise ValueError(f"exhaustive check capped at n=10, got n={n}")
    if g.m != 2 * n - 3:
        return False
    emasks = [(1 << u) | (1 << v) for u, v in g.edges]
    for x in range(1 << n):
        size = x.bit_count()
        if size < 2:
            continue
        inside = sum(1 for em in emasks if em & x == em)
        if inside > 2 * size - 3:
            return False
    return True


def brute_sparse_rank(g: Graph) -> int:
    """Greedy matroid rank with the independence oracle evaluated by
    explicit subset counting: an edge is accepted when no vertex subset
    would exceed its 2|X| - 3 budget.  Exponential in n."""
    n = g.n
    if n > 14:
        raise ValueError(f"exhaustive rank capped at n=14, got n={n}")
    if n < 2 or g.m == 0:
        return 0
    universe = np.arange(1 << n, dtype=np.int64)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        sizes += (universe >> b) & 1
    limits = 2 * sizes - 3
    counts = np.zeros(1 << n, dtype=np.int64)
    rank = 0
    for u, v in g.edge_list():
        base = (1 << u) | (1 << v)
        idx = np.nonzero((universe & base) == base)[0]
        if np.all(counts[idx] < limits[idx]):
            counts[idx] += 1
            rank += 1
    return rank


# -- set partitions -------------------------------------------------------


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """All partitions of `items` via restricted growth strings."""
    items = list(items)
    k = len(items)
    if k == 0:
        yield []
        return
    rgs = [0] * k
    while True:
        blocks: dict[int, list[int]] = {}
        for pos, b in enumerate(rgs):
            blocks.setdefault(b, []).append(items[pos])
        yield [blocks[b] for b in sorted(blocks)]
        # advance: rightmost position that can still grow
        j = k - 1
        while j > 0:
            if rgs[j] <= max(rgs[:j]):
                break
            j -= 1
        if j == 0:
            return
        rgs[j] += 1
        for t in range(j + 1, k):
            rgs[t] = 0


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
    g_z = Graph(g.n, [e for e in g.edges if zset.isdisjoint(e)])
    comps = [sorted(c) for c in g_z.components() if not c <= zset]
    if len(comps) > 1:
        yield comps
    restset = set(rest)
    for v in rest:
        block = sorted((g.adj[v] & restset) | {v})
        other = sorted(restset - set(block))
        if other:
            yield [block, other]
    for v in rest:
        clique = [v]
        for w in rest:
            if w != v and all(w in g.adj[x] for x in clique):
                clique.append(w)
        other = sorted(restset - set(clique))
        if other:
            yield [sorted(clique), other]


def packing_violation_search(
    g: Graph, k: int, zmax: int = 2, *, mode: str
) -> Optional[VertexPartition]:
    """First (Z, partition) violating the packing inequality, or None.

    mode 'exhaustive' sweeps every Z up to zmax and every partition of the
    rest (n <= 10 only); 'structured' tries a deterministic family of
    candidate partitions (singletons, components, closed neighbourhoods,
    greedy cliques) and scales to larger graphs.
    """
    if zmax < 0 or zmax > 2:
        raise ValueError(f"zmax must be in 0..2, got {zmax}")
    if mode == "exhaustive" and g.n > 10:
        raise ValueError(f"exhaustive search capped at n=10, got n={g.n}")
    if mode not in ("exhaustive", "structured"):
        raise ValueError(f"unknown mode {mode!r}")
    verts = range(g.n)
    for zsize in range(min(zmax, g.n - 1) + 1):
        for z in combinations(verts, zsize):
            zset = frozenset(z)
            rest = [v for v in verts if v not in zset]
            if mode == "exhaustive":
                cand_iter = set_partitions(rest)
            else:
                cand_iter = _structured_candidates(g, zset)
            seen_sig: set[frozenset[frozenset[int]]] = set()
            for parts in cand_iter:
                sig = frozenset(frozenset(p) for p in parts)
                if sig in seen_sig:
                    continue
                seen_sig.add(sig)
                vp = VertexPartition(g, zset, parts)
                if not packing_condition_holds(g, k, vp):
                    return vp
    return None


# -- boundary size vs part size -------------------------------------------


def cut_size_law_holds(g: Graph, subset: Iterable[int]) -> bool:
    """A part with boundary below the minimum degree cannot be small:
    |boundary(U)| <= delta - 1 forces |U| >= delta + 1.

    Counting edges leaving U shows |boundary| >= |U| (delta + 1 - |U|),
    which exceeds delta - 1 whenever 1 <= |U| <= delta.
    """
    fs = frozenset(subset)
    out = boundary_size(g, fs)
    delta = g.min_degree()
    if out > delta - 1:
        return True
    return len(fs) >= delta + 1

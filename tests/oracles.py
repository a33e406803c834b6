"""Reference oracles and paper-lemma helpers that only the tests use.

The oracles are slow definitions that the fast routines are checked
against; the helpers state lemmas of the paper so that tests can check
them on their own.  No command-line path runs any of them.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from rigidspec import (Graph, PebbleGame, RigidityVerdict, rigidity_verdict,
                       vertex_connectivity, write_graph6)
from rigidspec import rigidity
from rigidspec.graphcore import GRAPH6_HEADER, Graph6Error, _g6_parse_n, _members

Edge = tuple[int, int]


# -- small graphs and their edits ------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def with_edge(g: Graph, u: int, v: int) -> Graph:
    return Graph(g.n, g.edge_list() + [(u, v)])


def without_edge(g: Graph, u: int, v: int) -> Graph:
    e = (u, v) if u < v else (v, u)
    edges = g.edge_list()
    if e not in edges:
        raise ValueError(f"edge {e} not present")
    edges.remove(e)
    return Graph(g.n, edges)


def with_vertex(g: Graph, neighbors: Iterable[int] = ()) -> Graph:
    """New graph with one extra vertex labelled n, joined to `neighbors`."""
    w = g.n
    return Graph(w + 1, g.edge_list() + [(x, w) for x in neighbors])


def is_connected(g: Graph) -> bool:
    """Whether one component holds every vertex: true on 0 and 1 vertices."""
    return g.n <= 1 or g._reach(1) == (1 << g.n) - 1


# -- counting and rigidity by definition ----------------------------------


def _check_subset(g: Graph, s: Iterable[int]) -> frozenset[int]:
    fs = frozenset(s)
    for v in fs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    return fs


def boundary_size(g: Graph, subset: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in `subset`.

    Requires a nonempty proper subset of the vertex set.
    """
    fs = _check_subset(g, subset)
    if not fs or len(fs) == g.n:
        raise ValueError("subset must be nonempty and proper")
    return sum(1 for u, v in g.edge_list() if (u in fs) != (v in fs))


def induced_edge_count(g: Graph, subset: Iterable[int]) -> int:
    """Number of edges with both endpoints in `subset` (0 for empty subsets)."""
    fs = _check_subset(g, subset)
    return sum(1 for u, v in g.edge_list() if u in fs and v in fs)


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


# -- rigidity-matrix rank in floating point --------------------------------
#
# The float route that `oracle.exact_rank` replaced on the command line:
# a singular-value rank at real points, with a relative threshold.

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
    """Points drawn uniformly from [1, 2)^2 by `random.Random(seed)`, x then
    y for each vertex in turn; the seed must be non-negative."""
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
    emasks = [(1 << u) | (1 << v) for u, v in g.edge_list()]
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


def verdict_of(g: Graph) -> RigidityVerdict:
    """The rigidity verdict with the connectivity computed here, as the
    report computes it."""
    return rigidity_verdict(g, vertex_connectivity(g))


# -- graph6 with one big int, shifted a bit at a time ---------------------


def reference_parse_graph6(line: str) -> Graph:
    """Decode one graph6 line.  Strict: trailing garbage or bad padding is an error."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ascii byte in graph6 string: {exc}") from None
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b!r} at position {i} outside graph6 range")
    n, off = _g6_parse_n(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[off:]
    if len(body) != nbytes:
        raise Graph6Error(
            f"body length {len(body)} != expected {nbytes} for n={n}"
        )
    bits = 0
    for b in body:
        bits = (bits << 6) | (b - 63)
    pad = nbytes * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    bits >>= pad
    edges = []
    pos = nbits
    for v in range(1, n):
        for u in range(v):
            pos -= 1
            if bits >> pos & 1:
                edges.append((u, v))
    return Graph(n, edges)


def reference_write_graph6(g: Graph) -> str:
    """Encode a graph as a single graph6 line (no trailing newline)."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError(f"n={n} too large for this writer")
    nbits = n * (n - 1) // 2
    bits = 0
    for v in range(1, n):
        row = g.adj[v]
        for u in range(v):
            bits = (bits << 1) | (row >> u & 1)
    pad = -nbits % 6
    bits <<= pad
    body = bytearray()
    for k in range((nbits + pad) // 6 - 1, -1, -1):
        body.append((bits >> 6 * k & 63) + 63)
    return (head + bytes(body)).decode("ascii")


# -- the pebble game with one search per end -----------------------------
#
# The game as it stood before the shared search and the covered tight sets:
# a rejected edge costs a failed search from each end and then a third
# traversal of the same closure to cover its circuit.  The fast game must
# give the same basis and coloops for every insertion order.


def _find_pebble(root: int, blocked: tuple[int, int], peb: list[int],
                 out: list[set[int]]) -> bool:
    """Pull one pebble to `root` along reversed orientation paths.

    Blocked vertices cannot donate a pebble but may be traversed.
    """
    seen = {root}
    parent: dict[int, int] = {}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in out[x]:
            if y in seen:
                continue
            seen.add(y)
            parent[y] = x
            if y not in blocked and peb[y] > 0:
                peb[y] -= 1
                peb[root] += 1
                cur = y
                while cur != root:
                    p = parent[cur]
                    out[p].discard(cur)
                    out[cur].add(p)
                    cur = p
                return True
            stack.append(y)
    return False


def _cover_circuit(u: int, v: int, out: list[set[int]],
                   uncovered: set[Edge]) -> None:
    """Drop from `uncovered` the accepted edges inside the out-edge closure
    of {u, v}, i.e. the basis part of a rejected uv's fundamental circuit."""
    seen = {u, v}
    stack = [u, v]
    while stack:
        x = stack.pop()
        for y in out[x]:
            uncovered.discard((x, y) if x < y else (y, x))
            if y not in seen:
                seen.add(y)
                stack.append(y)


def reference_pebble_game(n: int, edge_seq: Sequence[Edge]) -> PebbleGame:
    """Basis for the given insertion order, and its coloops."""
    peb = [2] * n
    out: list[set[int]] = [set() for _ in range(n)]
    accepted: list[Edge] = []
    uncovered: set[Edge] = set()
    cap = max(0, 2 * n - 3)
    for u, v in edge_seq:
        if len(accepted) == cap and not uncovered:
            break
        while peb[u] + peb[v] < 4:
            if not (_find_pebble(u, (u, v), peb, out)
                    or _find_pebble(v, (u, v), peb, out)):
                break
        if peb[u] + peb[v] >= 4:
            peb[u] -= 1
            out[u].add(v)
            accepted.append((u, v))
            uncovered.add((u, v) if u < v else (v, u))
        else:
            _cover_circuit(u, v, out, uncovered)
    return PebbleGame(
        accepted, [e for e in accepted if (min(e), max(e)) in uncovered])


# -- packing inequality over every partition ------------------------------


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
#   crossing_edges(P)  >=  k(3-|Z|)(#nontrivial) + 2k(#trivial) - 3k - z_adjacency,
# where z_adjacency counts the edges joining a singleton part to Z.
# A violating (Z, P) certifies that the packing is impossible.


def packing_terms(g: Graph, z: Iterable[int], parts: Sequence[Iterable[int]]
                  ) -> tuple[int, int, int, int]:
    """(crossing edges of g - Z between different parts, z_adjacency,
    #trivial, #nontrivial) of a partition of the vertices outside Z."""
    zset = _check_subset(g, z)
    rest = frozenset(range(g.n)) - zset
    if not rest:
        raise ValueError("Z must leave at least one vertex")
    norm: list[frozenset[int]] = []
    for p in parts:
        fp = frozenset(p)
        if not fp:
            raise ValueError("empty part not allowed")
        if not fp <= rest:
            raise ValueError("part overlaps Z or leaves the vertex range")
        if any(fp & q for q in norm):
            raise ValueError("parts must be disjoint")
        norm.append(fp)
    if frozenset().union(*norm) != rest:
        raise ValueError("parts must cover every vertex outside Z")
    part_of = {v: i for i, p in enumerate(norm) for v in p}
    singles = {v for p in norm if len(p) == 1 for v in p}
    edges = g.edge_list()
    crossing = sum(1 for u, v in edges if u in part_of and v in part_of
                   and part_of[u] != part_of[v])
    z_adjacency = sum(1 for u, v in edges
                      if u in zset and v in singles or v in zset and u in singles)
    return crossing, z_adjacency, len(singles), len(norm) - len(singles)


def packing_holds(g: Graph, k: int, z: Iterable[int],
                  parts: Sequence[Iterable[int]]) -> bool:
    """Whether (Z, parts) satisfies the packing inequality for k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    zset = frozenset(z)
    if len(zset) > 2:
        raise ValueError(f"|Z| must be at most 2, got {len(zset)}")
    crossing, z_adjacency, trivial, nontrivial = packing_terms(g, zset, parts)
    return crossing >= (k * (3 - len(zset)) * nontrivial + 2 * k * trivial
                        - 3 * k - z_adjacency)


def exhaustive_packing_violation(
    g: Graph, k: int, zmax: int
) -> Optional[tuple[frozenset[int], list[list[int]]]]:
    """First (Z, partition) violating the packing inequality over every Z
    up to zmax and every partition of the rest, or None.  n <= 10 only."""
    if zmax < 0 or zmax > 2:
        raise ValueError(f"zmax must be in 0..2, got {zmax}")
    if g.n > 10:
        raise ValueError(f"exhaustive search capped at n=10, got n={g.n}")
    verts = range(g.n)
    for zsize in range(min(zmax, g.n - 1) + 1):
        for z in combinations(verts, zsize):
            rest = [v for v in verts if v not in z]
            for parts in set_partitions(rest):
                if not packing_holds(g, k, z, parts):
                    return frozenset(z), parts
    return None


# -- canonical labelling from the stable colours --------------------------
#
# The labelling as the enumeration first shipped it, kept apart from
# `rigidity` so that the fast labelling is checked against a copy that it
# cannot change: refinement compares whole colourings to stop, and the
# search runs even when the colours are discrete.  The search stops after
# REFERENCE_NODE_LIMIT nodes, so that a symmetric graph cannot hang a test.

REFERENCE_NODE_LIMIT = 200_000


def reference_refinement_rounds(adj: Sequence[int]) -> Iterator[list[int]]:
    """Colours of each round of neighbourhood refinement from one colour,
    ending with the stable colours."""
    nbrs = [_members(a) for a in adj]
    degree = [len(nb) for nb in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degree)))}
    colour = [rank[d] for d in degree]
    while True:
        yield colour
        sigs = [(colour[v], tuple(sorted(colour[w] for w in nb)))
                for v, nb in enumerate(nbrs)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colour:
            return
        colour = new


def reference_canonical_rows(adj: Sequence[int],
                             colour: Sequence[int]) -> tuple[int, ...]:
    """Rows of the lexicographically largest relabelling that places the
    colour classes in colour order, by exhaustive class-respecting search
    with twin collapsing.  Raises ValueError after REFERENCE_NODE_LIMIT
    search nodes."""
    n = len(adj)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colour):
        classes.setdefault(c, []).append(v)
    schedule = [classes[c] for c in sorted(classes) for _ in classes[c]]
    nbrs = [_members(a) for a in adj]
    row = [0] * n
    rows: list[int] = []
    best: list[int] = []
    nodes = 0

    def search(k: int, used: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > REFERENCE_NODE_LIMIT:
            raise ValueError(
                f"canonical labelling of a {n}-vertex graph exceeded "
                f"{REFERENCE_NODE_LIMIT} search nodes")
        if k == n:
            if rows > best:
                best = rows[:]
            return
        if rows < best[:k]:
            return
        cands = [v for v in schedule[k] if not used >> v & 1]
        top = max(row[v] for v in cands)
        picks: list[int] = []
        for v in cands:
            if row[v] == top and not any(
                    (adj[v] ^ adj[w]) & ~(1 << v | 1 << w) == 0
                    for w in picks):
                picks.append(v)
        rows.append(top)
        bit = 1 << (n - 1 - k)
        for v in picks:
            for u in nbrs[v]:
                row[u] |= bit
            search(k + 1, used | 1 << v)
            for u in nbrs[v]:
                row[u] ^= bit
        rows.pop()

    search(0, 0)
    return tuple(best)


def _refine_classes(adj: Sequence[int]) -> list[int]:
    """Stable colours of neighbourhood refinement from one colour.  The
    colours are label-invariant, and their order refines degree order."""
    *_, colour = reference_refinement_rounds(adj)
    return colour


def canonical_graph(g: Graph) -> Graph:
    """Relabelling of g whose upper-triangle bit string is lexicographically
    largest among all labellings, computed exactly by the reference
    labelling.  Raises ValueError when the search exceeds
    REFERENCE_NODE_LIMIT nodes."""
    if g.n <= 1:
        return g
    rows = reference_canonical_rows(g.adj, _refine_classes(g.adj))
    return Graph(g.n, [(g.n - 1 - b, k) for k, r in enumerate(rows)
                       for b in _members(r)])


def canonical_form(g: Graph) -> str:
    """graph6 line of the canonical relabelling; equal iff isomorphic."""
    return write_graph6(canonical_graph(g))


def minimally_rigid_levels(nmin: int,
                           nmax: int) -> Iterator[tuple[int, list[Graph]]]:
    """Yield (n, graphs) for nmin <= n <= nmax: one canonically labelled
    graph per class of minimally rigid graphs on n vertices, graph6 sorted,
    from the package's growth with every graph labelled by the package's
    labelling.  Practical for n <= 9."""
    if not 2 <= nmin <= nmax <= 9:
        raise ValueError(f"need 2 <= nmin <= nmax <= 9, got {(nmin, nmax)}")
    for n, level in rigidity._minimally_rigid_levels(nmin, nmax):
        # at one order, rows order is graph6 order
        yield n, [rigidity._graph_from_rows(rows) for rows in sorted(
            rigidity._canonical_rows(adj, colour) for adj, colour in level)]


# -- one eigensolve per matrix --------------------------------------------


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue (equals the radius: the matrix is
    symmetric nonnegative), from an eigensolve of the adjacency matrix."""
    if g.n < 1:
        raise ValueError("spectrum needs at least 1 vertex")
    return float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])


def laplacian_matrix(g: Graph) -> np.ndarray:
    """The Laplacian D - A as a float matrix."""
    a = g.adjacency_matrix()
    return np.diag(a.sum(axis=1)) - a


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue, from an eigensolve of the
    Laplacian alone; positive iff connected."""
    if g.n < 2:
        raise ValueError("algebraic connectivity needs at least 2 vertices")
    return float(np.linalg.eigvalsh(laplacian_matrix(g))[1])


def exceeds_spectral_radius(g: Graph, t: float) -> bool:
    """Whether t is above every adjacency eigenvalue of g, decided exactly:
    tI - A is then positive definite, so every pivot of its Gaussian
    elimination, in rational arithmetic and without row swaps, is positive.
    """
    from fractions import Fraction

    n = g.n
    t = Fraction(t)
    m = [[t if i == j else -Fraction(g.adj[i] >> j & 1) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
    return True


# -- paper lemmas: quotients, Hong's bound, clique partitions -------------


@dataclass(frozen=True)
class QuotientMatrix:
    """Row-averaged block matrix of a vertex partition.

    `equitable` records whether every vertex of class i has the same number
    of neighbours in class j, for all i, j; in that case the entries are
    exact integers and the leading eigenvalue lifts to the graph.
    """

    classes: tuple[tuple[int, ...], ...]
    entries: np.ndarray
    equitable: bool

    def leading_eigenvalue(self) -> float:
        vals = np.linalg.eigvals(self.entries)
        lead = vals[np.argmax(vals.real)]
        if abs(lead.imag) > 1e-8:
            raise ValueError(f"leading eigenvalue not real: {lead}")
        return float(lead.real)


def quotient_matrix(g: Graph,
                    classes: Sequence[Iterable[int]]) -> QuotientMatrix:
    norm: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for c in classes:
        tc = tuple(sorted(set(c)))
        if not tc:
            raise ValueError("empty class not allowed")
        for v in tc:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two classes")
            seen.add(v)
        norm.append(tc)
    if len(seen) != g.n:
        raise ValueError("classes must cover every vertex")
    k = len(norm)
    entries = np.zeros((k, k))
    equitable = True
    for i, ci in enumerate(norm):
        for j, cj in enumerate(norm):
            cj_mask = sum(1 << v for v in cj)
            counts = [(g.adj[u] & cj_mask).bit_count() for u in ci]
            if len(set(counts)) > 1:
                equitable = False
            entries[i, j] = sum(counts) / len(ci)
    return QuotientMatrix(tuple(norm), entries, equitable)


def linked_cliques_classes(n: int, a: int,
                           links: int) -> list[range]:
    """The classes (matched-in-small, rest-of-small, matched-in-large,
    rest-of-large) of linked_cliques(n, a, links), whose quotient is
    equitable whenever all four are nonempty."""
    return [range(links), range(links, a), range(a, a + links),
            range(a + links, n)]


def horner(coefficients: Sequence, x):
    """The polynomial with these coefficients, leading first, at x by
    Horner's rule: exact for ints and Fractions."""
    acc = 0
    for c in coefficients:
        acc = acc * x + c
    return acc


def hong_bound_function(p: int, q: int, x: float) -> float:
    """Hong's bound (x - 1)/2 + sqrt(2q - px + (1 + x)^2 / 4) as a function
    of the degree argument x, with p vertices and q edges fixed.
    Decreasing on 0 <= x <= p - 1 provided 2q <= p(p-1), strictly so iff
    2q < p(p-1)."""
    if p < 1 or q < 0:
        raise ValueError(f"need p >= 1, q >= 0: {(p, q)}")
    if not 0 <= x <= p - 1:
        raise ValueError(f"x={x} outside [0, {p - 1}]")
    if 2 * q > p * (p - 1):
        raise ValueError(f"2q={2 * q} exceeds p(p-1)={p * (p - 1)}")
    radicand = 2.0 * q - p * x + (1.0 + x) ** 2 / 4.0
    if radicand < 0.0:
        raise ValueError(f"radicand negative at x={x}")
    return (x - 1.0) / 2.0 + math.sqrt(radicand)


def hong_equality_condition(g: Graph) -> bool:
    """When the Hong-type bound is attained: connected and either regular
    or with every degree equal to the minimum or to n - 1."""
    if g.n < 2:
        raise ValueError("need at least 2 vertices")
    ds = set(g.degrees())
    if not is_connected(g):
        return False
    return len(ds) == 1 or ds == {min(ds), g.n - 1}


def edge_lower_bound(n: int, delta: int) -> float:
    """Edge count above which the radius condition of the rigidity
    threshold is implied: n^2/2 - (2*delta+3)*n/2 + (delta+1)^2."""
    if n < 1 or delta < 0:
        raise ValueError(f"need n >= 1, delta >= 0: {(n, delta)}")
    return n * n / 2.0 - (2 * delta + 3) * n / 2.0 + (delta + 1) ** 2


def max_clique_partition_edges(
    n: int, num_parts: int, lower: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Maximum of sum-of-binomials over integer part sizes.

    Over n_1 + ... + n_t = n with n_j >= lower[j-1] for j < t and n_t free,
    the sum of C(n_j, 2) is maximised by pinning every bounded part at its
    bound and loading the remainder into the free part: moving a unit onto
    the largest part always gains, since C(x+1,2) - C(x,2) = x grows in x.
    Requires the free part to end up at least as large as every bound.
    """
    if num_parts not in (3, 4):
        raise ValueError(f"num_parts must be 3 or 4, got {num_parts}")
    if len(lower) != num_parts - 1:
        raise ValueError(
            f"expected {num_parts - 1} lower bounds, got {len(lower)}"
        )
    if any(b < 1 for b in lower):
        raise ValueError(f"lower bounds must be >= 1: {lower}")
    rest = n - sum(lower)
    if rest < max(lower):
        raise ValueError(
            f"infeasible: free part {rest} below max bound {max(lower)}"
        )
    witness = tuple(lower) + (rest,)
    value = sum(math.comb(s, 2) for s in witness)
    return value, witness


def _bounded_compositions(n: int, bounds: Sequence[int]):
    """Tuples with the given lower bounds summing to n."""
    if len(bounds) == 1:
        if n >= bounds[0]:
            yield (n,)
        return
    rest = sum(bounds[1:])
    for s in range(bounds[0], n - rest + 1):
        for tail in _bounded_compositions(n - s, bounds[1:]):
            yield (s,) + tail


def brute_max_partition(n: int, bounds: Sequence[int]):
    """The maximum of sum C(s_j, 2) over part sizes s_j >= bounds[j]
    summing to n, by enumeration, and the sorted size tuples attaining it."""
    best, best_sets = -1, set()
    for sizes in _bounded_compositions(n, bounds):
        val = sum(s * (s - 1) // 2 for s in sizes)
        if val > best:
            best, best_sets = val, {tuple(sorted(sizes))}
        elif val == best:
            best_sets.add(tuple(sorted(sizes)))
    return best, best_sets

"""Simple-graph core: construction, graph6 corpus I/O, vertex connectivity.

Vertices are always the dense integer range 0..n-1.  Graphs are immutable
after construction so they can be shared freely across worker processes.
"""
from __future__ import annotations

from itertools import combinations
from operator import index
from typing import AnyStr, Iterable, Iterator, Sequence

Edge = tuple[int, int]

GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 text."""


def _members(mask: int) -> list[int]:
    """The set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _adjacency_bits(masks: Sequence[Sequence[int]], n: int):
    """Stacked 0/1 uint8 adjacency matrices of graphs on n vertices, given
    by their adjacency masks: entry [i, v, w] is bit w of masks[i][v]."""
    import numpy as np

    # row v is a mask as little-endian bytes, unpacked to one bit a column
    k = (n + 7) // 8
    rows = b"".join(a.to_bytes(k, "little") for adj in masks for a in adj)
    bits = np.frombuffer(rows, dtype=np.uint8).reshape(len(masks), n, k)
    return np.unpackbits(bits, axis=2, count=n, bitorder="little")


class Graph:
    """Immutable simple undirected graph on vertex set {0, ..., n-1}.

    The adjacency is stored once, as int bitmasks: adj[v] has bit w set for
    every neighbour w of v.  Edge lists, degrees and matrices are read from
    the masks.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        adj = [0] * n
        for u, v in edges:
            # a numpy integer would wrap in the shifts below
            u, v = index(u), index(v)
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._store(tuple(adj))

    @classmethod
    def _from_adj(cls, adj: tuple[int, ...]) -> Graph:
        """The graph with these adjacency masks, trusted to be symmetric,
        loop-free and within range: built by the program, not read."""
        g = cls.__new__(cls)
        g._store(adj)
        return g

    def _store(self, adj: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", len(adj))
        object.__setattr__(self, "m", sum(a.bit_count() for a in adj) // 2)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return Graph, (self.n, self.edge_list())

    # -- basic queries ----------------------------------------------------

    def edge_list(self) -> list[Edge]:
        """Edges as sorted pairs in lexicographic order, as a fresh list."""
        # -(2 << u) keeps the bits above u, the neighbours w > u
        return [(u, w) for u, a in enumerate(self.adj)
                for w in _members(a & -(2 << u))]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("min degree undefined for the empty graph")
        return min(self.degrees())

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    # -- linear algebra views ---------------------------------------------

    def adjacency_matrix(self):
        return _adjacency_bits([self.adj], self.n)[0].astype(float)

    # -- traversal --------------------------------------------------------

    def _reach(self, seed: int) -> int:
        """The vertices joined by paths to those of the bitmask seed."""
        comp = frontier = seed
        while frontier:
            grown = 0
            for x in _members(frontier):
                grown |= self.adj[x]
            frontier = grown & ~comp
            comp |= frontier
        return comp

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# -- constructors ---------------------------------------------------------


def linked_cliques(n: int, n1: int, links: int) -> Graph:
    """Two disjoint cliques (sizes n1 and n-n1) joined by `links` independent edges.

    The cross edges pair the lowest-labelled vertices of each clique:
    (0, n1), (1, n1+1), ..., (links-1, n1+links-1).
    """
    if not 1 <= n1 <= n - 1:
        raise ValueError(f"clique sizes must be positive: n={n}, n1={n1}")
    n2 = n - n1
    if not 0 <= links <= min(n1, n2):
        raise ValueError(
            f"links must satisfy 0 <= links <= min({n1},{n2}), got {links}"
        )
    edges = list(combinations(range(n1), 2))
    edges += list(combinations(range(n1, n), 2))
    edges += [(j, n1 + j) for j in range(links)]
    return Graph(n, edges)


def complete_split_graph(n: int) -> Graph:
    """An adjacent hub pair joined to an independent set of n-2 vertices."""
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    edges = [(0, 1)]
    edges += [(h, v) for h in (0, 1) for v in range(2, n)]
    return Graph(n, edges)


# -- graph6 codec ---------------------------------------------------------
#
# Standard 6-bit printable encoding: vertex count header, then the upper
# triangle of the adjacency matrix in column order x(0,1), x(0,2), x(1,2),
# x(0,3), ..., packed big-endian six bits per byte, each byte offset by 63.


# _G6_BITS[c] spells the six body bits of byte c + 63, most significant
# first, and _G6_BYTE maps the spelling back to the byte
_G6_BITS = [format(c, "06b") for c in range(64)]
_G6_BYTE = {bits: c + 63 for c, bits in enumerate(_G6_BITS)}
_G6_RANGE = bytes(range(63, 127))


def _g6_parse_n(data: bytes) -> tuple[int, int]:
    """Return (n, offset of the bit body).  Rejects non-minimal headers."""
    if not data:
        raise Graph6Error("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) < 2:
        raise Graph6Error("truncated length header")
    if data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated length header")
        n = 0
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
        if n < 63:
            raise Graph6Error("non-minimal length header")
        return n, 4
    if len(data) < 8:
        raise Graph6Error("truncated length header")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - 63)
    if n < 258048:
        raise Graph6Error("non-minimal length header")
    return n, 8


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line.  Strict: trailing garbage or bad padding is an error."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ascii byte in graph6 string: {exc}") from None
    if data.translate(None, _G6_RANGE):  # some byte lies outside 63..126
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
    bits = "".join([_G6_BITS[b - 63] for b in body])
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    adj = [0] * n
    for v in range(1, n):
        # column v holds x(0,v) ... x(v-1,v)
        col = bits[v * (v - 1) // 2:v * (v + 1) // 2]
        bit = 1 << v
        u = col.find("1")
        while u >= 0:
            adj[u] |= bit
            adj[v] |= 1 << u
            u = col.find("1", u + 1)
    return Graph._from_adj(tuple(adj))


def write_graph6(g: Graph) -> str:
    """Encode a graph as a single graph6 line (no trailing newline)."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError(f"n={n} too large for this writer")
    # column v lists v's neighbours u < v, bit u at position u
    bits = "".join([format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1]
                    for v in range(1, n)])
    bits += "0" * (-len(bits) % 6)
    body = bytes([_G6_BYTE[bits[i:i + 6]] for i in range(0, len(bits), 6)])
    return (head + body).decode("ascii")


def iter_graph6_lines(
    lines: Iterable[AnyStr],
) -> Iterator[tuple[int, AnyStr]]:
    """Yield (1-based line number, stripped payload) skipping blank lines."""
    for i, raw in enumerate(lines, start=1):
        s = raw.strip()
        if s:
            yield i, s


# -- vertex connectivity --------------------------------------------------
#
# The size of a minimum vertex cut between non-adjacent terminals is the
# maximum number of internally disjoint paths joining them (Menger).
# Minimising over a standard pair family yields kappa(G).

def _seed_paths(masks: Sequence[int], s: int, t: int,
                limit: int) -> list[list[int]]:
    """Up to `limit` internally disjoint s-t paths, s and t non-adjacent.

    Each round runs a layered BFS from s over the adjacency bitmasks,
    skipping vertices that earlier paths use, and stops at the first layer
    that touches N(t).  Every vertex of that layer adjacent to t then
    walks back one layer at a time through unused vertices; each walk
    that reaches s is a shortest path in what is left of g, and its inner
    vertices become used.  The first layer takes every common neighbour
    of s and t at once, the next one the paths of length 3, and so on.
    Seeding stops when the BFS no longer reaches N(t).
    """
    free = ((1 << len(masks)) - 1) & ~(1 << s) & ~(1 << t)
    near_t = masks[t]
    paths: list[list[int]] = []
    while len(paths) < limit:
        layers = []
        frontier = masks[s] & free
        unseen = free ^ frontier
        while frontier and not frontier & near_t:
            layers.append(frontier)
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & unseen
            unseen ^= frontier
        hits = frontier & near_t
        if not hits:
            break
        layers.reverse()
        while hits and len(paths) < limit:
            used = hits & -hits
            hits ^= used
            x = used.bit_length() - 1
            path = [t, x]
            for layer in layers:
                back = masks[x] & layer & free
                if not back:
                    break
                low = back & -back
                used |= low
                x = low.bit_length() - 1
                path.append(x)
            else:
                free ^= used
                path.append(s)
                path.reverse()
                paths.append(path)
    return paths


def _pair_bound(masks: Sequence[int], s: int, t: int, limit: int) -> int:
    """A lower bound on the number of internally disjoint s-t paths, s and
    t non-adjacent; the count stops growing once it reaches `limit`.

    Each common neighbour c gives a path s-c-t.  A greedy matching of
    N(s) - N(t) into N(t) - N(s) along edges ab gives paths s-a-b-t that
    share no vertex with those or with each other.
    """
    common = masks[s] & masks[t]
    bound = common.bit_count()
    near_s, near_t = masks[s] ^ common, masks[t] ^ common
    while near_s and bound < limit:
        a = near_s & -near_s
        near_s ^= a
        b = masks[a.bit_length() - 1] & near_t
        if b:
            near_t ^= b & -b
            bound += 1
    return bound


def _flow(masks: Sequence[int], s: int, t: int, limit: int) -> int:
    """min(limit, number of internally disjoint s-t paths); s, t non-adjacent.

    A pair whose `_pair_bound` reaches `limit` needs no search, nor one
    whose seeded paths do.  Otherwise the seeded paths are a valid flow in
    the split digraph of the masks: v_in -> v_out for every vertex v, and
    x_out -> y_in, y_out -> x_in for every edge xy, all of capacity 1.  It
    is kept in bitmasks, never built: bit y of out[x], and bit x of
    into[y], when the flow uses x_out -> y_in, and `used` for the inner
    vertices of its paths.  The residual arcs are then

    - out(x) -> in(y) for each y in masks[x] & ~out[x], and out(x) -> in(x)
      when x is used;
    - in(y) -> out(y) when y is unused, and otherwise in(y) -> out(x) for
      the x in into[y].

    A layered BFS over them from out(s) stops at the first layer that
    holds in(t), and the walk back from in(t) flips each arc it crosses.
    Augmenting stops when the flow reaches `limit` or in(t) is out of
    reach.  Augmenting any valid flow to the maximum is exact, so the
    seeding changes no result.
    """
    if _pair_bound(masks, s, t, limit) >= limit:
        return limit
    paths = _seed_paths(masks, s, t, limit)
    flow = len(paths)
    if flow >= limit:
        return flow
    out = [0] * len(masks)
    into = [0] * len(masks)
    used = 0
    for path in paths:
        for x, y in zip(path, path[1:]):
            out[x] |= 1 << y
            into[y] |= 1 << x
            used |= 1 << y
    used &= ~(1 << t)
    while flow < limit:
        # layers alternate out-copies and in-copies, starting at out(s)
        layers = []
        outs, seen_out, seen_in = 1 << s, 0, 0
        while outs:
            seen_out |= outs
            layers.append(outs)
            ins = outs & used
            for x in _members(outs):
                ins |= masks[x] & ~out[x]
            ins &= ~seen_in
            seen_in |= ins
            layers.append(ins)
            if ins >> t & 1:
                break
            outs = ins & ~used
            for y in _members(ins & used):
                outs |= into[y]
            outs &= ~seen_out
        else:  # in(t) is out of reach: the flow is maximum
            return flow
        layers.pop()
        y = t
        while True:
            # in(y) was reached from an out-copy of the layer before it
            outs = layers.pop()
            if (used & outs) >> y & 1:
                x = y
                used ^= 1 << y
            else:
                back = masks[y] & ~into[y] & outs
                x = (back & -back).bit_length() - 1
                out[x] |= 1 << y
                into[y] |= 1 << x
            if not layers:  # x is s
                break
            # and out(x) from an in-copy of the layer before that
            ins = layers.pop()
            if (ins & ~used) >> x & 1:
                y = x
                used |= 1 << x
            else:
                back = out[x] & ins
                y = (back & -back).bit_length() - 1
                out[x] ^= 1 << y
                into[y] ^= 1 << x
        flow += 1
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects g (or n-1 for K_n).

    For a fixed vertex u0 it suffices to minimise the terminal flow over
    all v outside N[u0] and over all non-adjacent pairs inside N(u0):
    any minimum cut misses some vertex of N[u0] or separates two
    neighbours of u0 (Esfahanian and Hakimi).  Taking u0 of minimum
    degree, the running best starts at delta, since kappa <= delta, and
    caps every later flow.  Degenerate graphs need no case of their own.
    K_n, K_1 included, has no pair to try, so its value is delta = n-1.
    On a disconnected graph the first v outside u0's component gives 0,
    and the pair bound then settles every later pair at once.  The pair
    bound and the seeding and the residual search all read the graph's
    adjacency bitmasks and nothing else.
    """
    n = g.n
    if n == 0:
        raise ValueError("connectivity needs at least 1 vertex")
    u0 = min(range(n), key=g.degree)
    best = g.degree(u0)
    adj = g.adj
    for v in _members(((1 << n) - 1) & ~adj[u0] & ~(1 << u0)):
        best = _flow(adj, u0, v, best)
    for x, y in combinations(_members(adj[u0]), 2):
        if not adj[x] >> y & 1:
            best = _flow(adj, x, y, best)
    return best

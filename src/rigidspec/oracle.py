"""Independent verification routes: exact rigidity-matrix rank modulo a
prime at a random integer placement, and a structured search for
packing-inequality witnesses.

Everything here deliberately avoids the pebble game and the closed-form
spectral code so that agreement between the two routes is evidence, not
tautology.
"""
from __future__ import annotations

import random
from typing import Iterator, Optional

from .graphcore import Graph, _members

# the rigidity matrix is ranked over the integers modulo this prime
_PRIME = 2**31 - 1


def exact_rank(g: Graph, seed: int) -> int:
    """Rank modulo 2^31 - 1 of the rigidity matrix at integer points drawn
    by `random.Random(seed).randrange`, x then y for each vertex; the seed
    must be non-negative.

    The row of edge uv holds p(u) - p(v) in u's columns and the negation in
    v's.  The rank is at most the generic rank, and below it only at a root
    of a nonzero generic minor of degree at most 2n - 3, which a random
    point is with chance at most (2n - 3) / (2^31 - 1) (Schwartz-Zippel).

    Rows come in `g.edge_list()` order; a rank does not depend on it.  The
    basis is a fully reduced echelon form: per pivot column, a row scaled
    to 1 there, stored without that entry, and 0 in the other pivot
    columns, so a new row meets at most the four basis rows of its columns.
    Elimination stops at the largest possible rank, 2n - 3.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    draw = random.Random(seed).randrange
    p = [draw(_PRIME) for _ in range(2 * g.n)]
    top = 2 * g.n - 3
    basis: dict[int, dict[int, int]] = {}
    for u, v in g.edge_list():
        if len(basis) == top:
            break
        row: dict[int, int] = {}
        for c, d in ((2 * u, p[2 * u] - p[2 * v]),
                     (2 * u + 1, p[2 * u + 1] - p[2 * v + 1]),
                     (2 * v, p[2 * v] - p[2 * u]),
                     (2 * v + 1, p[2 * v + 1] - p[2 * u + 1])):
            pivot_row = basis.get(c)
            if pivot_row is None:
                row[c] = row.get(c, 0) + d
            else:
                for c2, x in pivot_row.items():
                    row[c2] = row.get(c2, 0) - d * x
        row = {c: r for c, x in row.items() if (r := x % _PRIME)}
        if not row:
            continue
        pivot = max(row)
        inv = pow(row.pop(pivot), -1, _PRIME)
        row = {c: x * inv % _PRIME for c, x in row.items()}
        for other in basis.values():
            f = other.pop(pivot, 0)
            if f:
                for c, x in row.items():
                    other[c] = (other.get(c, 0) - f * x) % _PRIME
        basis[pivot] = row
    return len(basis)


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

"""Combinatorial planar rigidity: pebble-game rank, verdict predicates,
canonical labelling, and inductive enumeration of minimally rigid graphs.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .graphcore import Graph, is_k_connected, write_graph6

Edge = tuple[int, int]


# -- (2,3) pebble game ----------------------------------------------------
#
# Each vertex starts with 2 pebbles; an edge is accepted when 4 pebbles can
# be gathered on its endpoints, which then costs one pebble and orients the
# edge.  Accepted edges form a maximum independent set in the count matroid
# whose independent sets are the (2,3)-sparse edge sets, so the accepted
# count is the generic planar rigidity rank.
#
# A rejected edge uv also names its fundamental circuit.  The gather fails
# with exactly 3 pebbles on {u, v} and none elsewhere in R, the closure of
# {u, v} under out-edges.  R spans 2|R| - 3 accepted edges, so it is tight,
# and every tight set containing u and v holds no further pebble and has no
# out-edge leaving it, so it contains R: R is the minimal tight set through
# u and v.  The accepted edges inside R plus uv are therefore the unique
# circuit in basis + uv.  A basis edge lies in some circuit exactly when
# some fundamental circuit covers it (basis exchange), so the basis edges
# that no rejected edge's R covers are the coloops, the edges whose
# deletion drops the rank.  When coloops are wanted the game keeps
# rejecting edges after the rank reaches 2n-3, because their circuits count
# too, and stops early only once every basis edge is covered; rank-only
# callers stop at 2n-3.


@dataclass(frozen=True)
class PebbleGame:
    """Outcome of one pebble-game pass: the accepted basis, in insertion
    order, and the basis edges lying in no circuit of the edge set (None
    when the pass was not asked for them)."""
    basis: list[Edge]
    coloops: Optional[list[Edge]]

    @property
    def rank(self) -> int:
        return len(self.basis)


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


def _run_pebble_game(n: int, edge_seq: Sequence[Edge],
                     coloops: bool = True) -> PebbleGame:
    """Basis for the given insertion order, and its coloops if asked."""
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
            if coloops:
                uncovered.add((u, v) if u < v else (v, u))
        elif coloops:
            _cover_circuit(u, v, out, uncovered)
    if not coloops:
        return PebbleGame(accepted, None)
    return PebbleGame(
        accepted, [e for e in accepted if (min(e), max(e)) in uncovered])


def pebble_rank(g: Graph) -> int:
    """Rank of the edge set in the generic planar rigidity matroid."""
    return _run_pebble_game(g.n, g.edge_list(), coloops=False).rank


def independent_edge_basis(g: Graph) -> list[Edge]:
    """A maximum (2,3)-sparse subset of the edges, in insertion order."""
    return _run_pebble_game(g.n, g.edge_list(), coloops=False).basis


# -- verdict predicates ---------------------------------------------------


def is_rigid(g: Graph) -> bool:
    """Generic planar rigidity: rank reaches 2n-3."""
    if g.n < 2:
        raise ValueError("rigidity predicate needs at least 2 vertices")
    return pebble_rank(g) == 2 * g.n - 3


def laman_check(g: Graph) -> bool:
    """Minimal rigidity: exactly 2n-3 edges, all independent."""
    if g.n < 2:
        raise ValueError("minimal rigidity needs at least 2 vertices")
    return g.m == 2 * g.n - 3 and pebble_rank(g) == g.m


def _redundant(n: int, game: PebbleGame) -> bool:
    return game.rank == 2 * n - 3 and not game.coloops


def is_redundantly_rigid(g: Graph) -> bool:
    """Rigid, and still rigid after deleting any single edge.

    Deleting an edge drops the rank exactly when it is a coloop, a basis
    edge covered by no rejected edge's fundamental circuit, so one pebble
    game decides it: rank 2n-3 and no coloops.
    """
    if g.n < 2:
        raise ValueError("redundancy predicate needs at least 2 vertices")
    return _redundant(g.n, _run_pebble_game(g.n, g.edge_list()))


def is_globally_rigid(g: Graph) -> bool:
    """Unique generic realisation up to congruence, as `rigidity_verdict`
    decides it."""
    if g.n < 2:
        raise ValueError("global rigidity needs at least 2 vertices")
    return rigidity_verdict(g).globally_rigid


@dataclass(frozen=True)
class RigidityVerdict:
    rank: int
    rigid: bool
    minimally_rigid: bool
    redundantly_rigid: bool
    globally_rigid: bool

    def as_dict(self) -> dict:
        # not dataclasses.asdict, which deep-copies every field
        return {f.name: getattr(self, f.name) for f in fields(self)}


def rigidity_verdict(g: Graph,
                     kappa: Optional[int] = None) -> RigidityVerdict:
    """All rigidity predicates from one pebble game.  Single vertices count
    as rigid.

    Complete graphs on at most 3 vertices are globally rigid outright;
    otherwise the combinatorial characterisation is redundant rigidity plus
    3-connectivity (Jackson & Jordan 2005), and connectivity is tested only
    when redundancy holds.

    `kappa`, the vertex connectivity when the caller already has it, saves
    recomputing it; it is only consulted for redundantly rigid graphs on at
    least 4 vertices.
    """
    if g.n < 1:
        raise ValueError("verdict needs at least 1 vertex")
    n = g.n
    game = _run_pebble_game(n, g.edge_list())
    rank = game.rank
    rigid = rank == max(0, 2 * n - 3)
    minimal = g.m == 2 * n - 3 and rank == g.m
    if n == 1:
        redundant = glob = True
    else:
        redundant = _redundant(n, game)
        if n <= 3:
            glob = g.is_complete()
        elif kappa is None:
            glob = redundant and is_k_connected(g, 3)
        else:
            glob = redundant and kappa >= 3
    return RigidityVerdict(rank, rigid, minimal, redundant, glob)


# -- canonical labelling --------------------------------------------------
#
# Iterated neighbourhood-colour refinement splits the vertices into
# label-invariant classes; a class-respecting backtracking search then
# maximises the upper-triangle bit string, which is exactly the graph6
# body, so the canonical form doubles as a corpus-ready graph6 line.


def _refine_classes(g: Graph) -> list[int]:
    n = g.n
    colour = [0] * n
    while True:
        sigs = [
            (colour[v], tuple(sorted(colour[w] for w in g.adj[v])))
            for v in range(n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colour:
            return colour
        colour = new


def _are_twins(g: Graph, u: int, w: int) -> bool:
    return g.adj[u] - {w} == g.adj[w] - {u}


def canonical_graph(g: Graph) -> Graph:
    """Relabelling of g whose upper-triangle bit string is lexicographically
    largest among all labellings, computed exactly."""
    n = g.n
    if n <= 1:
        return g
    colour = _refine_classes(g)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colour):
        classes.setdefault(c, []).append(v)
    # position k draws from the class scheduled at k (classes in colour order)
    schedule: list[int] = []
    for c in sorted(classes):
        schedule.extend([c] * len(classes[c]))

    best_chunks: list[tuple[int, ...]] | None = None
    best_perm: list[int] | None = None

    def dfs(placed: list[int], used: set[int], chunks: list[tuple[int, ...]]):
        nonlocal best_chunks, best_perm
        k = len(placed)
        if k == n:
            if best_chunks is None or chunks > best_chunks:
                best_chunks = list(chunks)
                best_perm = list(placed)
            return
        # prune against the incumbent as soon as the prefix falls behind
        if best_chunks is not None and chunks < best_chunks[:k]:
            return
        cands = [v for v in classes[schedule[k]] if v not in used]
        scored: dict[tuple[int, ...], list[int]] = {}
        for v in cands:
            bits = tuple(1 if p in g.adj[v] else 0 for p in placed)
            scored.setdefault(bits, []).append(v)
        top = max(scored)
        survivors = scored[top]
        # collapse interchangeable candidates: swapping twins is an automorphism
        pruned: list[int] = []
        for v in survivors:
            if not any(_are_twins(g, v, w) for w in pruned):
                pruned.append(v)
        chunks.append(top)
        for v in pruned:
            placed.append(v)
            used.add(v)
            dfs(placed, used, chunks)
            used.discard(v)
            placed.pop()
        chunks.pop()

    dfs([], set(), [])
    assert best_perm is not None
    pos = {v: i for i, v in enumerate(best_perm)}
    return Graph(n, [(pos[u], pos[v]) for u, v in g.edges])


def canonical_form(g: Graph) -> str:
    """graph6 line of the canonical relabelling; equal iff isomorphic."""
    return write_graph6(canonical_graph(g))


def graphs_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_form(g) == canonical_form(h)


# -- enumeration of minimally rigid graphs --------------------------------


def _extensions(g: Graph) -> Iterable[Graph]:
    """All single-vertex inductive extensions preserving minimal rigidity."""
    verts = range(g.n)
    # degree-2 attachment to any vertex pair
    for u, v in combinations(verts, 2):
        yield g.with_vertex((u, v))
    # edge split: remove uv, attach the new vertex to u, v and a third vertex
    for u, v in g.edge_list():
        base = g.without_edge(u, v)
        for w in verts:
            if w != u and w != v:
                yield base.with_vertex((u, v, w))


def minimally_rigid_levels(nmin: int,
                           nmax: int) -> Iterator[tuple[int, list[Graph]]]:
    """Yield (n, graphs) for nmin <= n <= nmax: one canonically labelled
    graph per class of minimally rigid graphs on n vertices, graph6 sorted.

    Grown once from a single edge by degree-2 additions and edge splits.
    Canonical graphs are equal exactly when their sources are isomorphic,
    so a set of them deduplicates each level.  Practical for n <= 9.
    """
    if not 2 <= nmin <= nmax <= 9:
        raise ValueError(f"need 2 <= nmin <= nmax <= 9, got {(nmin, nmax)}")
    level = {Graph(2, [(0, 1)])}
    for n in range(2, nmax + 1):
        if n > 2:
            level = {canonical_graph(h) for g in level for h in _extensions(g)}
        if n >= nmin:
            yield n, sorted(level, key=write_graph6)


def enumerate_minimally_rigid(n: int) -> list[Graph]:
    """All minimally rigid graphs on n vertices, one per isomorphism class,
    in canonical labelling and graph6 order."""
    if not 2 <= n <= 9:
        raise ValueError(f"enumeration supported for 2 <= n <= 9, got {n}")
    return next(minimally_rigid_levels(n, n))[1]

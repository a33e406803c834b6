"""Combinatorial planar rigidity: pebble-game rank, the rigidity verdict,
and inductive enumeration of canonically labelled minimally rigid graphs.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Optional, Sequence

from .graphcore import Graph, _member_table, _members

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
# deletion drops the rank.  The game keeps rejecting edges after the rank
# reaches 2n-3, because their circuits count too, and stops early only
# once every basis edge is covered.
#
# Each R is kept as a covered tight set: all its basis edges lie in a
# circuit.  Two tight sets sharing at least two vertices have a tight union
# with no basis edge between their differences, so the union is covered
# too, and sets are merged whenever they share two vertices.  Accepting an
# edge never adds a basis edge inside a tight set, so the sets stay tight
# and covered.  An edge xy with both ends in one covered set T is rejected
# without a search: its circuit lies in the minimal tight set through x and
# y, which lies inside T, so the circuit covers nothing new.


class PebbleGame(NamedTuple):
    """Outcome of one pebble-game pass: the accepted basis, in insertion
    order, and the basis edges lying in no circuit of the edge set."""
    basis: list[Edge]
    coloops: list[Edge]

    @property
    def rank(self) -> int:
        return len(self.basis)


def _add_tight(tight: list[int], r: int) -> list[int]:
    """The covered tight sets (vertex bitmasks) with r added, every set
    sharing at least two vertices with r merged into it."""
    while True:
        keep = []
        for t in tight:
            if (t & r).bit_count() > 1:
                r |= t
            else:
                keep.append(t)
        if len(keep) == len(tight):
            keep.append(r)
            return keep
        tight = keep


def _run_pebble_game(n: int, edge_seq: Sequence[Edge]) -> PebbleGame:
    """Basis for the given insertion order, and its coloops."""
    peb = [2] * n
    # out[x] lists the heads of x's out-edges; peb[x] + len(out[x]) == 2
    out: list[list[int]] = [[] for _ in range(n)]
    parent = [0] * n  # the vertex a search reached each vertex from
    accepted: list[Edge] = []
    # bit y of uncovered[x], x < y: basis edge xy lies in no circuit found
    uncovered = [0] * n
    left = 0  # the number of such edges
    tight: list[int] = []
    cap = max(0, 2 * n - 3)
    for u, v in edge_seq:
        if not left and len(accepted) == cap:
            break
        if peb[u] + peb[v] < 4:
            ends = 1 << u | 1 << v
            for t in tight:
                if t & ends == ends:
                    break  # uv lies in a covered tight set
            else:
                t = 0
            if t:
                continue
            # pull free pebbles onto u or v along reversed out-edges; one
            # search runs from both ends, neither of which donates
            closure = 0
            while peb[u] + peb[v] < 4:
                seen = ends
                hit = -1
                stack = [v, u]
                while stack and hit < 0:
                    x = stack.pop()
                    for y in out[x]:
                        if not seen >> y & 1:
                            seen |= 1 << y
                            parent[y] = x
                            if peb[y]:
                                hit = y
                                break
                            stack.append(y)
                if hit < 0:
                    closure = seen  # R: no free pebble is in reach
                    break
                peb[hit] -= 1
                y = hit
                while y != u and y != v:
                    x = parent[y]
                    out[x].remove(y)
                    out[y].append(x)
                    y = x
                peb[y] += 1
            if closure:
                for x in _members(closure):
                    covered = uncovered[x] & closure
                    if covered:
                        uncovered[x] ^= covered
                        left -= covered.bit_count()
                tight = _add_tight(tight, closure)
                continue
        # spend v's pebble: in lexicographic order the next edges are u's
        peb[v] -= 1
        out[v].append(u)
        accepted.append((u, v))
        lo, hi = (u, v) if u < v else (v, u)
        uncovered[lo] |= 1 << hi
        left += 1
    # an edge's bit sits at its lower end; the other shift reads 0
    return PebbleGame(accepted, [
        (u, v) for u, v in accepted
        if (uncovered[u] >> v | uncovered[v] >> u) & 1])


def pebble_rank(g: Graph) -> int:
    """Rank of the edge set in the generic planar rigidity matroid."""
    return _run_pebble_game(g.n, g.edge_list()).rank


# -- verdict --------------------------------------------------------------


class RigidityVerdict(NamedTuple):
    rank: int
    rigid: bool
    minimally_rigid: bool
    redundantly_rigid: bool
    globally_rigid: bool


def rigidity_verdict(g: Graph, kappa: int) -> RigidityVerdict:
    """All rigidity predicates from one pebble game.

    Complete graphs on at most 3 vertices are globally rigid outright;
    otherwise the combinatorial characterisation is redundant rigidity plus
    3-connectivity (Jackson & Jordan 2005).  Deleting an edge drops the
    rank exactly when it is a coloop, so the same game decides redundancy:
    rank 2n-3 and no coloops.  A single vertex needs no case of its own:
    rank 0, no coloops and completeness make it rigid, redundantly rigid
    and globally rigid, and not minimally rigid.

    A 6-connected graph needs no game: it is rigid (Lovasz & Yemini 1982)
    and globally rigid (Jackson & Jordan 2005), hence redundantly rigid
    (Hendrickson 1992), and not minimally rigid, since its minimum degree
    of at least 6 gives m >= 3n > 2n-3.

    `kappa`, the caller's vertex connectivity of g, is trusted, not checked.
    """
    if g.n < 1:
        raise ValueError("verdict needs at least 1 vertex")
    n = g.n
    if kappa >= 6:
        return RigidityVerdict(2 * n - 3, True, False, True, True)
    game = _run_pebble_game(n, g.edge_list())
    rank = game.rank
    rigid = rank == max(0, 2 * n - 3)
    minimal = g.m == 2 * n - 3 and rank == g.m
    redundant = rigid and not game.coloops
    glob = g.is_complete() if n <= 3 else redundant and kappa >= 3
    return RigidityVerdict(rank, rigid, minimal, redundant, glob)


# -- canonical labelling --------------------------------------------------
#
# Iterated neighbourhood-colour refinement splits the vertices into
# label-invariant classes; a class-respecting backtracking search then
# maximises the upper-triangle bit string, which is exactly the graph6
# body, so the canonical form doubles as a corpus-ready graph6 line.
# Refinement ranks one exact integer key per vertex and round, a child at
# a time, and stops as soon as the child's new vertex fails the new-vertex
# test; it reads neighbour lists from a table of every mask's members that
# is built on first use.  The search reads adjacency bitmasks: bit w of
# adj[v] is the edge vw.  It recurses once per position, and needs no
# node bound: its only caller labels minimally rigid graphs on at most 9
# vertices, and none of them takes more than 392 search nodes.


def _leading_colours(adj: Sequence[int]) -> Optional[list[int]]:
    """Stable colours of neighbourhood refinement from one colour of a
    child given by adjacency masks, or None as soon as its new vertex is
    seen to fail the new-vertex test: the last vertex has the minimum
    degree and the largest colour among the minimum-degree vertices.

    The first round ranks the degrees.  Each later round ranks the vertices
    by their colour and then by the sorted colours of their neighbours, so
    each round's colour order refines the previous round's, and vertices of
    one colour have one degree.  Two neighbour multisets of one size sort
    in the order of their counts of each colour, reversed, colour 0 first.
    So colour * n**n minus the sum of n**(n-1-c) over the neighbours'
    colours c ranks the vertices the same way: each count is below n, and
    the sum below n**n.  The order only refines, so refinement ends at a
    round that adds no class or leaves single vertices, and a vertex whose
    key exceeds the last vertex's outranks it in every later round.
    """
    n = len(adj)
    table = _member_table(n)
    nbrs = [table[a] for a in adj]
    keys = [len(nb) for nb in nbrs]
    low = min(keys)
    if keys[-1] != low:
        return None
    rivals = [v for v in range(n - 1) if keys[v] == low]
    top = n ** n
    colour = [0] * n
    classes = 1
    while True:
        distinct = sorted(set(keys))
        if len(distinct) == classes:
            return colour
        rank = {k: i for i, k in enumerate(distinct)}
        colour = [rank[k] for k in keys]
        classes = len(distinct)
        if classes == n:
            return colour
        weight = [n ** (n - 1 - c) for c in colour]
        keys = [c * top - sum(map(weight.__getitem__, nb))
                for c, nb in zip(colour, nbrs)]
        if any(keys[v] > keys[-1] for v in rivals):
            return None


def _canonical_rows(adj: Sequence[int],
                    colour: Sequence[int]) -> tuple[int, ...]:
    """Rows of the lexicographically largest relabelling that places the
    colour classes in colour order, computed exactly.

    Row k holds the edges from the vertex at position k to positions
    0..k-1, position i at bit n-1-i, so comparing row tuples compares the
    upper-triangle bit strings column by column, as graph6 orders them.
    """
    n = len(adj)
    order = sorted(range(n), key=colour.__getitem__)
    table = _member_table(n)
    nbrs = [table[a] for a in adj]
    if len(set(colour)) == n:
        # one vertex per class: the colour order is the relabelling, and
        # row k keeps the bits of positions before k
        bit = [0] * n
        for k, v in enumerate(order):
            bit[v] = 1 << (n - 1 - k)
        return tuple(sum([bit[u] for u in nbrs[v]]) >> (n - k) << (n - k)
                     for k, v in enumerate(order))
    classes: dict[int, list[int]] = {}
    for v in order:
        classes.setdefault(colour[v], []).append(v)
    # position k draws from the class scheduled at k
    schedule = [classes[colour[v]] for v in order]
    row = [0] * n  # each vertex's edges to the placed positions
    rows: list[int] = []
    best: list[int] = []

    def search(k: int, used: int) -> None:
        nonlocal best
        if k == n:
            if rows > best:
                best = rows[:]
            return
        # prune against the incumbent as soon as the prefix falls behind
        if rows < best[:k]:
            return
        picks = [v for v in schedule[k] if not used >> v & 1]
        top = max([row[v] for v in picks])
        if len(picks) > 1:
            # collapse interchangeable candidates: swapping twins is an
            # automorphism fixing every placed vertex
            cands, picks = picks, []
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


def _graph_from_rows(rows: Sequence[int]) -> Graph:
    """The graph whose canonical rows these are."""
    n = len(rows)
    adj = [0] * n
    for k, r in enumerate(rows):
        bit = 1 << k
        while r:
            # the lowest set bit, n - 1 - i, is the edge to position i < k
            low = r & -r
            i = n - low.bit_length()
            adj[i] |= bit
            adj[k] |= 1 << i
            r ^= low
    return Graph._from_adj(tuple(adj))


# -- enumeration of minimally rigid graphs --------------------------------
#
# Each level is grown from the previous one by 0-extensions (a new vertex x
# joined to two vertices) and 1-extensions (an edge uv split by x, which is
# also joined to a third vertex w), and a child is labelled only when x
# passes an isomorphism-invariant test: deg(x) is the minimum degree, and
# x's refinement colour is the largest among the minimum-degree vertices.
# This is the invariant half of McKay's canonical augmentation (1998,
# J. Algorithms 26), and it loses no class:
#
# - A minimally rigid graph G on n >= 3 vertices has minimum degree 2 or
#   3, and every such vertex can be removed by an inverse Henneberg move:
#   deleting a degree-2 vertex, or deleting a degree-3 vertex and joining
#   some non-adjacent pair of its neighbours, leaves a minimally rigid
#   graph (Laman 1970; Henneberg).
# - Some vertex y of G passes the test: a minimum-degree vertex of the
#   largest colour among them.  Removing y by that move leaves a graph
#   whose class is in the previous level, so some extension of that
#   level's representative is a copy of G in which x plays y's role.
#   Colours are label-invariant, so x passes the test in that copy, and
#   _extensions drops only children that would fail it.
# - Labelling is exact, so the set of canonical rows still deduplicates the
#   level, and every level holds the same canonical graphs as unfiltered
#   growth would.
#
# The other half of canonical augmentation prunes by the parent's
# automorphisms.  An automorphism s of the parent P maps the extension at
# (u, v), or at (edge uv, w), to the one at (s(u), s(v)), or at
# (edge s(u)s(v), s(w)), and s extended by x -> x is an isomorphism between
# the two children that fixes x.  So they pass or fail the new-vertex test
# together and label to the same rows, and one extension per orbit of
# Aut(P) is enough.  Automorphisms preserve the stable colours, so Aut(P)
# is found by backtracking inside the colour classes, and is trivial when
# the colours are discrete.


def _automorphisms(adj: Sequence[int],
                   colour: Sequence[int]) -> list[list[int]]:
    """Every automorphism of the graph, as the list of vertex images, found
    by mapping the vertices in order, each into its own colour class.  The
    colours must be preserved by every automorphism, as stable refinement
    colours are."""
    n = len(adj)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colour):
        classes.setdefault(c, []).append(v)
    image = [0] * n
    found: list[list[int]] = []

    def extend(v: int, used: int) -> None:
        if v == n:
            found.append(image[:])
            return
        # the images of v's neighbours among the vertices already mapped
        want = sum(1 << image[u] for u in _members(adj[v] & ((1 << v) - 1)))
        for c in classes[colour[v]]:
            if not used >> c & 1 and adj[c] & used == want:
                image[v] = c
                extend(v + 1, used | 1 << c)

    extend(0, 0)
    return found


def _extensions(adj: Sequence[int],
                colour: Sequence[int]) -> Iterator[list[int]]:
    """Adjacency masks of the extensions of a minimally rigid graph whose
    new vertex can pass the new-vertex test, one per orbit of the graph's
    automorphism group.  `colour` holds the graph's stable colours."""
    n = len(adj)
    auts = _automorphisms(adj, colour) if len(set(colour)) < n else []
    x = 1 << n
    seen = set()
    for u, v in combinations(range(n), 2):
        if 1 << u | 1 << v in seen:
            continue
        seen.update(1 << s[u] | 1 << s[v] for s in auts)
        child = list(adj)
        child[u] |= x
        child[v] |= x
        child.append(1 << u | 1 << v)
        yield child
    # a 1-extension leaves every degree-2 vertex other than w at degree 2,
    # below the new vertex's 3, so only w may have degree 2
    low = [v for v in range(n) if adj[v].bit_count() == 2]
    if len(low) > 1:
        return
    edges = [(u, v) for u in range(n) for v in _members(adj[u]) if u < v]
    seen = set()
    for u, v in edges:
        for w in low or range(n):
            if w != u and w != v and (1 << u | 1 << v, w) not in seen:
                seen.update((1 << s[u] | 1 << s[v], s[w]) for s in auts)
                child = list(adj)
                child[u] ^= 1 << v | x
                child[v] ^= 1 << u | x
                child[w] |= x
                child.append(1 << u | 1 << v | 1 << w)
                yield child


def minimally_rigid_levels(nmin: int,
                           nmax: int) -> Iterator[tuple[int, list[Graph]]]:
    """Yield (n, graphs) for nmin <= n <= nmax: one canonically labelled
    graph per class of minimally rigid graphs on n vertices, graph6 sorted.

    Grown once from a single edge by degree-2 additions and edge splits,
    one per orbit of each parent's automorphisms, labelling only the
    children whose new vertex passes the test above.  Practical for n <= 9.
    """
    if not 2 <= nmin <= nmax <= 9:
        raise ValueError(f"need 2 <= nmin <= nmax <= 9, got {(nmin, nmax)}")
    # each graph of a level with its stable colours
    level = [(Graph(2, [(0, 1)]), [0, 0])]
    for n in range(2, nmax + 1):
        if n > 2:
            children = (child for g, colour in level
                        for child in _extensions(g.adj, colour))
            # the canonical rows place the colour classes in colour order,
            # so the graph they give has the child's colours, sorted
            found = {_canonical_rows(child, colour): sorted(colour)
                     for child in children
                     if (colour := _leading_colours(child)) is not None}
            # at one order, rows order is graph6 order: both compare the
            # upper-triangle bit strings column by column
            level = [(_graph_from_rows(rows), found[rows])
                     for rows in sorted(found)]
        if n >= nmin:
            yield n, [g for g, _ in level]

"""Seeded corpus generators for the benchmark workloads.

Each generator returns a list of `Item`s: a graph6 line plus what the
benchmark knows about the graph from how it was built.  The program under
test sees only the graph6 lines.  The same seed gives the same bytes.

The seed draws each graph's vertex labelling and the corpus order.  The
graphs' structure comes from a fixed structure seed, so every seed asks
for the same work in a different order and labelling.  With orders and
densities drawn independently per seed, a dense or sparse corpus that fits
a run varied by 10-18% (interquartile range over median) in cost from
seed to seed, more than the benchmark's bounds allow; the labelling still
changes each algorithm's path (start vertices, edge insertion order).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

Edge = tuple[int, int]


@dataclass(frozen=True)
class Item:
    """One corpus graph and the facts known from its construction."""

    graph6: str
    n: int
    edges: tuple[Edge, ...]
    kind: str
    known: dict = field(default_factory=dict)


def write_graph6(n: int, edges) -> str:
    """graph6 line for n <= 258047 (upper triangle in column order)."""
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError(f"n={n} too large for a graph6 line")
    es = {(u, v) if u < v else (v, u) for u, v in edges}
    bits = [1 if (u, v) in es else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [
        63 + int("".join(map(str, bits[i:i + 6])), 2)
        for i in range(0, len(bits), 6)
    ]
    return bytes(head + body).decode("ascii")


STRUCTURE_SEED = 0
# Orders in corpus-dense and corpus-sparse are drawn as lo + (hi-lo)*u**2:
# a graph's cost grows steeply with n, so this keeps the whole range while
# more, cheaper graphs fit a run and no few graphs dominate its time.
ORDER_SKEW = 2.0


def _rngs(name: str, seed: int) -> tuple[random.Random, random.Random]:
    """(structure rng, labelling rng) for one corpus."""
    return (random.Random(f"{name}:structure:{STRUCTURE_SEED}"),
            random.Random(f"{name}:labels:{seed}"))


def _item(n: int, edges, kind: str, rng: random.Random, **known) -> Item:
    """Relabel the graph by a random permutation drawn from rng."""
    perm = list(range(n))
    rng.shuffle(perm)
    es = tuple(sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    ))
    return Item(write_graph6(n, es), n, es, kind, known)


def gnp_edges(n: int, p: float, rng: random.Random) -> list[Edge]:
    return [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]


def laman_edges(n: int, rng: random.Random, splits_only: bool) -> list[Edge]:
    """A random minimally rigid graph by Henneberg extensions.

    With `splits_only`, grow from K4 - e by edge splits (1-extensions)
    only, so every added vertex has degree 3; otherwise start from one
    edge and mix vertex additions (0-extensions) with edge splits.
    """
    if splits_only:
        edges = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
        start = 4
    else:
        edges = {(0, 1)}
        start = 2
    for v in range(start, n):
        if v >= 3 and (splits_only or rng.random() < 0.5):
            u, w = rng.choice(sorted(edges))
            x = rng.choice([y for y in range(v) if y not in (u, w)])
            edges.discard((u, w))
            new = (u, w, x)
        else:
            new = rng.sample(range(v), 2)
        edges.update((y, v) for y in new)
    return sorted(edges)


def add_extra_edges(n: int, edges: list[Edge], k: int,
                    rng: random.Random, raise_min_degree: int = 0) -> list[Edge]:
    """Add k non-edges; the first ones go to vertices of degree below
    `raise_min_degree`."""
    es = set(edges)
    deg = [0] * n
    for u, v in es:
        deg[u] += 1
        deg[v] += 1
    for _ in range(k):
        low = [v for v in range(n) if deg[v] < raise_min_degree]
        u = rng.choice(low) if low else rng.randrange(n)
        cands = [w for w in range(n)
                 if w != u and (min(u, w), max(u, w)) not in es]
        if not cands:
            continue
        w = rng.choice(cands)
        es.add((min(u, w), max(u, w)))
        deg[u] += 1
        deg[w] += 1
    return sorted(es)


def linked_cliques_edges(n: int, n1: int, links: int) -> list[Edge]:
    edges = list(combinations(range(n1), 2))
    edges += list(combinations(range(n1, n), 2))
    edges += [(j, n1 + j) for j in range(links)]
    return edges


def _stratified(k: int, i: int, lo: float, hi: float,
                rng: random.Random, power: float = 1.0) -> float:
    """Point i of k equal strata of [0, 1], jittered within its stratum,
    raised to `power` and mapped onto [lo, hi]."""
    return lo + (hi - lo) * ((i % k + rng.random()) / k) ** power


def _family_item(n: int, delta: int, links: int,
                 rng: random.Random) -> Item:
    return _item(
        n, linked_cliques_edges(n, delta + 1, links), f"family{links}", rng,
        family=(delta, links),
        rank=2 * n - 3 - (links == 2),
        kappa=links,
    )


def corpus_small(seed: int, size: int = 400) -> list[Item]:
    """8 <= n <= 16: 60% G(n,p) with p in [0.3, 0.9], 40% random Laman
    graphs with 0-6 extra edges, plus four relabelled
    linked_cliques(16, 7, {2, 3})."""
    srng, lrng = _rngs("corpus-small", seed)
    items = []
    for i in range(size - 4):
        n = 8 + i % 9
        if i % 5 < 3:
            p = _stratified(12, i // 5, 0.3, 0.9, srng)
            items.append(_item(n, gnp_edges(n, p, srng), "gnp", lrng))
        else:
            extra = (i // 5) % 7
            base = laman_edges(n, srng, splits_only=False)
            edges = add_extra_edges(n, base, extra, srng)
            known = {"minimally_rigid": True} if extra == 0 else {}
            items.append(_item(n, edges, "laman", lrng, rigid=True, **known))
    for links in (2, 3, 2, 3):
        items.append(_family_item(16, 6, links, lrng))
    lrng.shuffle(items)
    return items


def corpus_dense(seed: int, size: int = 12) -> list[Item]:
    """G(n,p) with 20 <= n <= 40 and p in [0.3, 0.9], plus four relabelled
    near-threshold two-clique graphs linked_cliques(n, delta+1, {2, 3})
    with delta 6-9 and n = 2*delta+4 ... 2*delta+9."""
    srng, lrng = _rngs("corpus-dense", seed)
    items = []
    gnp = size - 4
    for i in range(gnp):
        n = int(_stratified(gnp, i, 20, 41, srng, ORDER_SKEW))
        p = _stratified(gnp, (i * 3) % gnp, 0.3, 0.9, srng)
        items.append(_item(n, gnp_edges(n, p, srng), "gnp", lrng))
    for delta, links in ((6, 2), (7, 3), (8, 2), (9, 3)):
        n = 2 * delta + 4 + srng.randrange(6)
        items.append(_family_item(n, delta, links, lrng))
    lrng.shuffle(items)
    return items


def corpus_sparse(seed: int, size: int = 12) -> list[Item]:
    """Rigid graphs with 40 <= n <= 80: K4 - e grown by edge splits, then
    2-12 extra edges (first to vertices of degree 2), then relabelled."""
    srng, lrng = _rngs("corpus-sparse", seed)
    items = []
    for i in range(size):
        n = int(_stratified(size, i, 40, 81, srng, ORDER_SKEW))
        extra = 2 + (i * 5) % 11
        base = laman_edges(n, srng, splits_only=True)
        edges = add_extra_edges(n, base, extra, srng, raise_min_degree=3)
        items.append(_item(n, edges, "sparse", lrng, rigid=True))
    lrng.shuffle(items)
    return items


CORPORA = {
    "corpus-small": corpus_small,
    "corpus-dense": corpus_dense,
    "corpus-sparse": corpus_sparse,
}


def corpus_text(items: list[Item]) -> str:
    return "".join(it.graph6 + "\n" for it in items)


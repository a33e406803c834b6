"""Shared corpus builders for the test suite.

Labeled graphs on n vertices are identified with bitmasks over the
C(n, 2) vertex pairs in lexicographic order, which keeps the exhaustive
sweeps cheap and lets numpy do the heavy counting.
"""
from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from rigidspec import Graph
from oracles import is_connected


def vertex_pairs(n):
    return list(itertools.combinations(range(n), 2))


def graph_from_mask(n, mask, pairs=None):
    pairs = pairs if pairs is not None else vertex_pairs(n)
    return Graph(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def all_labeled_graphs(n):
    pairs = vertex_pairs(n)
    for mask in range(1 << len(pairs)):
        yield graph_from_mask(n, mask, pairs)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [e for e in vertex_pairs(n) if rng.random() < p])


def to_networkx(g):
    """g as a networkx graph on the same vertex set."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edge_list())
    return h


def henneberg_graph(rng, n):
    """Random minimally rigid graph grown by degree-2 additions and edge
    splits, randomly relabelled."""
    edges = {(0, 1)}
    for k in range(2, n):
        if k == 2 or rng.random() < 0.5:
            u, v = rng.sample(range(k), 2)
            edges |= {(u, k), (v, k)}
        else:
            u, v = rng.choice(sorted(edges))
            w = rng.choice([x for x in range(k) if x not in (u, v)])
            edges.discard((u, v))
            edges |= {(u, k), (v, k), (w, k)}
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def relabelled(rng, g):
    """g under a uniformly random vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])


def with_random_edges(rng, g, count):
    missing = [(u, v) for u, v in vertex_pairs(g.n) if not g.adj[u] >> v & 1]
    return Graph(g.n, g.edge_list()
                 + rng.sample(missing, min(count, len(missing))))


def pair_permutation_tables(n):
    """For every vertex permutation, the induced map on pair indices.

    Row r of the result sends pair index k to the index of the image pair
    under permutation r; used to relabel edge bitmasks wholesale.
    """
    pairs = vertex_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    table = np.zeros((len(perms), len(pairs)), dtype=np.int64)
    for r, sigma in enumerate(perms):
        for k, (u, v) in enumerate(pairs):
            a, b = sigma[u], sigma[v]
            table[r, k] = index[(a, b) if a < b else (b, a)]
    return table


def minperm_canonical_masks(n):
    """Canonical (minimum-over-relabelings) mask for every labeled graph
    on n vertices at once.  Exact but factorial; fine for n <= 6."""
    npairs = n * (n - 1) // 2
    table = pair_permutation_tables(n)
    masks = np.arange(1 << npairs, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(npairs)[None, :]) & 1
    canon = masks.copy()
    for row in table:
        weights = (np.int64(1) << row).astype(np.int64)
        np.minimum(canon, bits @ weights, out=canon)
    return canon


def iso_class_representatives(n, connected_only=False):
    """One Graph per isomorphism class of labeled graphs on n vertices."""
    canon = minperm_canonical_masks(n)
    reps = []
    pairs = vertex_pairs(n)
    for mask in sorted(set(canon.tolist())):
        g = graph_from_mask(n, mask, pairs)
        if connected_only and not is_connected(g):
            continue
        reps.append(g)
    return reps


@pytest.fixture(scope="session")
def connected_labeled_upto6():
    """Every connected labeled graph with 1 <= n <= 6 (27476 graphs)."""
    out = []
    for n in range(1, 7):
        out.extend(g for g in all_labeled_graphs(n) if is_connected(g))
    return out


@pytest.fixture(scope="session")
def connected_class_reps_upto6():
    """One representative per connected isomorphism class, n = 1..6."""
    out = [Graph(1)]
    for n in range(2, 7):
        out.extend(iso_class_representatives(n, connected_only=True))
    return out


@pytest.fixture(scope="session")
def random_corpus_1000():
    """1000 random graphs, 4 <= n <= 12, mixed densities, fixed seed."""
    rng = random.Random(987123)
    out = []
    for _ in range(1000):
        n = rng.randint(4, 12)
        p = rng.uniform(0.15, 0.95)
        out.append(random_graph(rng, n, p))
    return out

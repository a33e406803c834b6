"""The theorems behind the report's conditions, checked on seeded graphs.

- Fiedler (1973): mu <= kappa off the complete graph, and kappa <= delta.
- Lovasz & Yemini (1982): 6-connected graphs are rigid in the plane.
  Jackson & Jordan (2005): 6-connected graphs are globally rigid, and
  global rigidity implies redundant rigidity (Hendrickson 1992).  So
  kappa >= 6 gives the verdict (2n-3, rigid, not minimally rigid,
  redundantly rigid, globally rigid); minimality fails because delta >= 6
  gives m >= 3n > 2n-3.  rigidity_verdict returns that verdict without a
  pebble game, so the theorems are checked against the game itself.
- Cioaba, Dewar & Gu (2021): with delta >= 6, mu > 2 + 1/(delta-1)
  implies rigidity and mu > 2 + 2/(delta-1) global rigidity.
- Hong-type bound: rho <= hong_bound(n, m, delta) when delta >= 1.

The corpus mixes G(n,p) with 20 <= n <= 40 (mostly dense, so mostly
kappa >= 6) and relabelled two-clique graphs linked_cliques(n, delta+1,
links), whose connectivity is the number of links, from 1 up to 8.
"""
import random
from functools import cache

from rigidspec import (
    RigidityVerdict,
    hong_bound,
    linked_cliques,
    rigidity_verdict,
    spectral_radius,
    vertex_connectivity,
)
from rigidspec.rigidity import _run_pebble_game
from conftest import random_graph, relabelled
from oracles import algebraic_connectivity

TOL = 1e-9


def _game_verdict(g, kappa):
    """The verdict that the pebble game gives at any connectivity, for
    n >= 4: rank, coloops, and kappa >= 3 for global rigidity."""
    game = _run_pebble_game(g.n, g.edge_list())
    rigid = game.rank == 2 * g.n - 3
    redundant = rigid and not game.coloops
    return RigidityVerdict(game.rank, rigid, rigid and g.m == game.rank,
                           redundant, redundant and kappa >= 3)


@cache
def _corpus():
    """(graph, kappa, delta, mu, rho, verdict of the game) for 220 seeded
    graphs."""
    rng = random.Random(1982)
    graphs = []
    for _ in range(160):
        n = rng.randint(20, 40)
        dense = rng.random() < 0.8
        p = rng.uniform(0.5, 0.95) if dense else rng.uniform(0.1, 0.5)
        graphs.append(random_graph(rng, n, p))
    for _ in range(60):
        delta = rng.randint(6, 11)
        n = rng.randint(2 * delta + 4, 40)
        links = rng.randint(1, min(8, delta))
        graphs.append(relabelled(rng, linked_cliques(n, delta + 1, links)))
    out = []
    for g in graphs:
        kappa = vertex_connectivity(g)
        out.append((g, kappa, g.min_degree(), algebraic_connectivity(g),
                    spectral_radius(g), _game_verdict(g, kappa)))
    return out


def test_corpus_reaches_every_hypothesis():
    facts = _corpus()
    assert len(facts) >= 200
    assert sum(kappa >= 6 for _, kappa, *_ in facts) >= 50
    assert sum(0 < kappa < 6 for _, kappa, *_ in facts) >= 30
    cdg = [d >= 6 and mu > 2 + 2 / (d - 1) for _, _, d, mu, _, _ in facts]
    assert 50 <= sum(cdg) < len(facts)


def test_fiedler_mu_at_most_kappa_at_most_delta():
    for g, kappa, delta, mu, _, _ in _corpus():
        if not g.is_complete():
            assert mu <= kappa + TOL, g.edge_list()
            assert kappa <= delta, g.edge_list()


def test_six_connected_graphs_are_globally_rigid():
    for g, kappa, _, _, _, v in _corpus():
        # at kappa >= 6 this checks the verdict's shortcut against the game
        assert rigidity_verdict(g, kappa) == v, g.edge_list()
        if kappa >= 6:
            game = _run_pebble_game(g.n, g.edge_list())
            assert game.rank == 2 * g.n - 3, g.edge_list()
            assert not game.coloops, g.edge_list()
            assert g.m > 2 * g.n - 3
            assert v == RigidityVerdict(2 * g.n - 3, True, False, True, True)
        if v.globally_rigid:
            assert v.redundantly_rigid and kappa >= 3


def test_cioaba_dewar_gu_thresholds():
    for g, _, delta, mu, _, v in _corpus():
        if delta < 6:
            continue
        if mu > 2 + 1 / (delta - 1):
            assert v.rigid, g.edge_list()
        if mu > 2 + 2 / (delta - 1):
            assert v.globally_rigid, g.edge_list()


def test_spectral_radius_within_hong_bound():
    for g, _, delta, _, rho, _ in _corpus():
        if delta >= 1:
            assert rho <= hong_bound(g.n, g.m, delta) + TOL, g.edge_list()

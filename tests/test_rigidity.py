"""Pebble-game rank, rigidity predicates, canonical labelling, enumeration."""
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from rigidspec import (
    Graph,
    RigidityVerdict,
    complete_split_graph,
    complete_split_rho,
    laman_extremal_report,
    linked_cliques,
    minimally_rigid_levels,
    pebble_rank,
    rigidity_verdict,
    spectral_radius,
    write_graph6,
)
from rigidspec import rigidity
from rigidspec.graphcore import _members
from rigidspec.rigidity import _run_pebble_game
from conftest import (
    all_labeled_graphs,
    graph_from_mask,
    henneberg_graph,
    minperm_canonical_masks,
    pair_permutation_tables,
    random_graph,
    to_networkx,
    vertex_pairs,
    with_random_edges,
)
from oracles import (
    _refine_classes,
    brute_minimally_rigid,
    canonical_form,
    canonical_graph,
    complete_graph,
    cycle_graph,
    numeric_rank,
    random_placement,
    reference_canonical_rows,
    reference_pebble_game,
    reference_refinement_rounds,
    verdict_of,
    with_edge,
    with_vertex,
    without_edge,
)

# census of minimally rigid graphs per order, from the published tables
KNOWN_CLASS_COUNTS = {3: 1, 4: 1, 5: 3, 6: 13, 7: 70, 8: 608}


def test_pebble_rank_known_values():
    assert pebble_rank(complete_graph(4)) == 5
    assert pebble_rank(complete_graph(5)) == 7
    assert pebble_rank(complete_graph(6)) == 9
    assert pebble_rank(cycle_graph(6)) == 6
    path = Graph(5, [(i, i + 1) for i in range(4)])
    assert pebble_rank(path) == 4
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert pebble_rank(k33) == 9
    assert pebble_rank(Graph(3)) == 0
    assert pebble_rank(linked_cliques(16, 7, 2)) == 28
    assert pebble_rank(linked_cliques(16, 7, 3)) == 29


def test_pebble_rank_order_independence():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 9), rng.uniform(0.3, 0.8))
        base = pebble_rank(g)
        edges = g.edge_list()
        for _ in range(25):
            rng.shuffle(edges)
            assert _run_pebble_game(g.n, edges).rank == base


def _assert_games_agree(g, orders=20, seed=0):
    """The pebble game and the reference game give the same basis and
    coloops in the sorted order and in shuffled orders.  Returns the
    sorted-order game."""
    rng = random.Random(seed)
    edges = g.edge_list()
    for _ in range(orders + 1):
        fast = _run_pebble_game(g.n, edges)
        slow = reference_pebble_game(g.n, edges)
        assert (fast.basis, fast.coloops) == (slow.basis, slow.coloops), \
            (g, edges)
        rng.shuffle(edges)
    return _run_pebble_game(g.n, g.edge_list())


def test_pebble_game_keeps_tight_sets_meeting_in_one_vertex_apart():
    # two K4s share vertex 3; each is tight, but their union is not, so the
    # bridge 0-4 must still be searched for and accepted
    k4s = [(u, v) for block in ((0, 1, 2, 3), (3, 4, 5, 6))
           for u, v in combinations(block, 2)]
    g = Graph(7, k4s + [(0, 4)])
    game = _assert_games_agree(g, orders=40)
    assert game.rank == 11 and game.coloops == [(0, 4)]
    # bridge last: both K4s are already covered tight sets
    game = _run_pebble_game(7, k4s + [(0, 4)])
    assert (0, 4) in game.basis and game.coloops == [(0, 4)]


@pytest.mark.parametrize("n,a,links", [
    (16, 7, 2), (16, 7, 3), (12, 5, 2), (12, 5, 3), (20, 8, 3), (9, 3, 3),
])
def test_pebble_game_on_two_clique_graphs(n, a, links):
    g = linked_cliques(n, a, links)
    game = _assert_games_agree(g, seed=n * a + links)
    # two links leave one degree of freedom, three make it rigid; with a
    # small clique larger than a triangle the links are its only coloops
    assert game.rank == 2 * n - 3 - (links == 2)
    if links == 3 and a > 3:
        assert set(game.coloops) == {(j, a + j) for j in range(3)}


def test_pebble_game_on_k33_and_a_wheel():
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    game = _assert_games_agree(k33, orders=40)
    assert game.rank == 9 and set(game.coloops) == set(k33.edge_list())
    wheel = Graph(7, [(0, k) for k in range(1, 7)]
                  + [(k, k % 6 + 1) for k in range(1, 7)])
    game = _assert_games_agree(wheel, orders=40)
    assert game.rank == 11 and game.coloops == []


def test_pebble_rank_monotone_under_edge_addition():
    rng = random.Random(8)
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 9), 0.4)
        missing = [(u, v) for u, v in vertex_pairs(g.n)
                   if not g.adj[u] >> v & 1]
        if not missing:
            continue
        e = rng.choice(missing)
        r0, r1 = pebble_rank(g), pebble_rank(with_edge(g, *e))
        assert r0 <= r1 <= r0 + 1


def test_rank_upper_bounds():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        r = pebble_rank(g)
        assert r <= min(g.m, max(0, 2 * g.n - 3))


def test_independent_basis_is_sparse_and_spanning():
    rng = random.Random(21)
    for _ in range(30):
        g = random_graph(rng, rng.randint(4, 9), 0.5)
        basis = _run_pebble_game(g.n, g.edge_list()).basis
        assert len(basis) == pebble_rank(g)
        h = Graph(g.n, basis)
        assert pebble_rank(h) == h.m  # independent


def test_predicates_known_graphs():
    assert verdict_of(complete_graph(4)).rigid
    assert not verdict_of(cycle_graph(4)).rigid
    k4e = without_edge(complete_graph(4), 0, 1)
    assert verdict_of(k4e).minimally_rigid
    assert not verdict_of(complete_graph(4)).minimally_rigid
    assert not verdict_of(cycle_graph(5)).minimally_rigid
    assert verdict_of(complete_split_graph(8)).minimally_rigid
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert verdict_of(k33).minimally_rigid
    assert verdict_of(complete_graph(4)).redundantly_rigid
    assert not verdict_of(k4e).redundantly_rigid
    assert not verdict_of(Graph(2, [(0, 1)])).redundantly_rigid
    b3 = linked_cliques(16, 7, 3)
    v3 = verdict_of(b3)
    assert v3.rigid and not v3.redundantly_rigid and not v3.globally_rigid
    assert not verdict_of(linked_cliques(16, 7, 2)).rigid


def test_globally_rigid_known_graphs():
    assert verdict_of(complete_graph(2)).globally_rigid
    assert verdict_of(complete_graph(3)).globally_rigid
    assert verdict_of(complete_graph(4)).globally_rigid
    assert verdict_of(complete_graph(5)).globally_rigid
    assert not verdict_of(Graph(3, [(0, 1), (1, 2)])).globally_rigid
    assert not verdict_of(cycle_graph(5)).globally_rigid
    assert not verdict_of(complete_split_graph(6)).globally_rigid
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    # minimally rigid, so not redundant
    assert not verdict_of(k33).globally_rigid
    wheel = Graph(6, [(0, k) for k in range(1, 6)]
                  + [(k, k % 5 + 1) for k in range(1, 6)])
    assert verdict_of(wheel).globally_rigid


def _redundant_by_definition(g):
    target = 2 * g.n - 3
    if pebble_rank(g) != target:
        return False
    return all(
        pebble_rank(without_edge(g, u, v)) == target for u, v in g.edge_list()
    )


def test_redundancy_shortcut_matches_definition_exhaustive():
    for n in (4, 5):
        for g in all_labeled_graphs(n):
            assert (verdict_of(g).redundantly_rigid
                    == _redundant_by_definition(g)), (n, g.edge_list())


def test_redundancy_shortcut_matches_definition_random():
    rng = random.Random(55)
    for _ in range(120):
        g = random_graph(rng, rng.randint(6, 9), rng.uniform(0.35, 0.85))
        assert (verdict_of(g).redundantly_rigid
                == _redundant_by_definition(g))


def _coloops_by_rerun(g):
    """Edges whose deletion drops the pebble rank: one game per edge."""
    rank = pebble_rank(g)
    return {e for e in g.edge_list()
            if pebble_rank(without_edge(g, *e)) < rank}


def _coloops_by_numeric_rank(g, seed):
    """Edges whose deletion drops the rigidity-matrix rank at one generic
    placement."""
    pl = random_placement(g.n, seed)
    rank = numeric_rank(g, pl)
    return {e for e in g.edge_list()
            if numeric_rank(without_edge(g, *e), pl) < rank}


def _coloop_corpus(rng, size):
    """Sparse G(n,p) graphs (mostly flexible), rigid Henneberg graphs with a
    few extra edges, and Henneberg graphs with one edge removed and a few
    extra edges (flexible, with both coloops and circuits)."""
    graphs = []
    for k in range(size):
        n = rng.randint(6, 30)
        kind = k % 3
        if kind == 0:
            g = random_graph(rng, n, rng.uniform(2.5, 7.0) / n)
        elif kind == 1:
            g = with_random_edges(rng, henneberg_graph(rng, n),
                                  rng.randint(1, 5))
        else:
            h = henneberg_graph(rng, n)
            h = without_edge(h, *rng.choice(h.edge_list()))
            g = with_random_edges(rng, h, rng.randint(1, 4))
        graphs.append(g)
    return graphs


def test_one_pass_coloops_match_rerun_and_numeric_rank():
    rng = random.Random(2005)
    tally = {"coloops": 0, "rigid_with_coloops": 0, "redundant": 0,
             "flexible": 0}
    for k, g in enumerate(_coloop_corpus(rng, 210)):
        game = _run_pebble_game(g.n, g.edge_list())
        coloops = set(game.coloops)
        assert coloops <= set(game.basis)
        assert coloops == _coloops_by_rerun(g), g.edge_list()
        assert coloops == _coloops_by_numeric_rank(g, seed=k), g.edge_list()
        # coloops lie in every basis, so insertion order cannot move them
        edges = g.edge_list()
        rng.shuffle(edges)
        assert set(_run_pebble_game(g.n, edges).coloops) == coloops
        rigid = game.rank == 2 * g.n - 3
        assert verdict_of(g).redundantly_rigid == (
            rigid and not coloops)
        tally["coloops"] += bool(coloops)
        tally["rigid_with_coloops"] += rigid and bool(coloops)
        tally["redundant"] += rigid and not coloops
        tally["flexible"] += not rigid
    # the corpus must exercise every outcome, not just the easy ones
    assert min(tally.values()) >= 20, tally


def test_verdict_implications_exhaustive_n5():
    for g in all_labeled_graphs(5):
        v = verdict_of(g)
        if v.minimally_rigid:
            assert v.rigid and not v.redundantly_rigid
        if v.redundantly_rigid:
            assert v.rigid
        if v.globally_rigid:
            assert v.redundantly_rigid or (g.n <= 3 and g.is_complete())
        if v.rigid:
            assert v.rank == 2 * g.n - 3


def test_verdict_on_every_graph_with_at_most_three_vertices():
    """No order has a rule of its own: on every labelled graph with
    1 <= n <= 3 the verdict is the one the definitions give from
    `_run_pebble_game`, at networkx's connectivity.  Rigid means rank
    max(0, 2n-3); minimally rigid, 2n-3 independent edges; redundantly
    rigid, rigid with no edge whose deletion drops the rank; and on at
    most 3 vertices, globally rigid means complete."""
    nx = pytest.importorskip("networkx")
    for n in range(1, 4):
        for g in all_labeled_graphs(n):
            edges = g.edge_list()
            rank = _run_pebble_game(n, edges).rank
            rigid = rank == max(0, 2 * n - 3)
            redundant = rigid and all(
                _run_pebble_game(n, [f for f in edges if f != e]).rank == rank
                for e in edges)
            expect = RigidityVerdict(rank, rigid, rank == g.m == 2 * n - 3,
                                     redundant, g.m == n * (n - 1) // 2)
            kappa = nx.node_connectivity(to_networkx(g))
            assert rigidity_verdict(g, kappa) == expect, edges
            assert verdict_of(g) == expect, edges
    assert verdict_of(Graph(1)) == (0, True, False, True, True)


def test_globally_rigid_matches_independent_route_exhaustive_n5():
    nx = pytest.importorskip("networkx")
    for g in all_labeled_graphs(5):
        h = to_networkx(g)
        kappa = nx.node_connectivity(h)
        expected = kappa >= 3 and _redundant_by_definition(g)
        assert verdict_of(g).globally_rigid == expected
        assert rigidity_verdict(g, kappa).globally_rigid == expected


def test_laman_check_matches_subset_oracle():
    for n in (4, 5):
        for g in all_labeled_graphs(n):
            assert (verdict_of(g).minimally_rigid
                    == brute_minimally_rigid(g))
    # n = 6: every graph with exactly 2n-3 edges
    pairs = vertex_pairs(6)
    for chosen in combinations(range(15), 9):
        mask = sum(1 << k for k in chosen)
        g = graph_from_mask(6, mask, pairs)
        assert verdict_of(g).minimally_rigid == brute_minimally_rigid(g)


# -- canonical labelling --------------------------------------------------


def test_canonical_form_invariant_under_relabelling():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.random())
        ref = canonical_form(g)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edge_list()])
        assert canonical_form(h) == ref


def test_canonical_graph_is_fixed_point():
    rng = random.Random(19)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        cg = canonical_graph(g)
        assert cg.m == g.m
        assert canonical_graph(cg) == cg
        assert canonical_form(cg) == canonical_form(g)


def test_canonical_partition_agrees_with_minperm_exhaustive_n5():
    # the partition of labeled graphs induced by canonical_form must equal
    # the exact orbit partition computed by minimising over all 120 perms
    canon_masks = minperm_canonical_masks(5)
    pairs = vertex_pairs(5)
    by_form = {}
    by_orbit = {}
    for mask in range(1 << 10):
        g = graph_from_mask(5, mask, pairs)
        by_form.setdefault(canonical_form(g), set()).add(mask)
        by_orbit.setdefault(int(canon_masks[mask]), set()).add(mask)
    assert set(map(frozenset, by_form.values())) == \
        set(map(frozenset, by_orbit.values()))


def test_isomorphism_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    checked_true = checked_false = 0
    for _ in range(80):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, 0.5)
        h = random_graph(rng, n, 0.5)
        expected = nx.is_isomorphic(to_networkx(g), to_networkx(h))
        assert (canonical_form(g) == canonical_form(h)) == expected
        checked_true += expected
        checked_false += not expected
    assert checked_false > 0


def _reference_leading_colours(adj):
    """The reference stable colours of a graph given by adjacency masks
    when its last vertex passes the new-vertex test, else None."""
    colour = _refine_classes(adj)
    degree = [a.bit_count() for a in adj]
    low = min(degree)
    if degree[-1] == low and colour[-1] == max(
            c for c, d in zip(colour, degree) if d == low):
        return colour
    return None


def _assert_labelling_matches_reference(graphs):
    """The package's canonical rows of graphs given by adjacency masks,
    under the reference stable colours, equal the reference labelling's."""
    for masks in graphs:
        colour = _refine_classes(masks)
        assert (rigidity._canonical_rows(masks, colour)
                == reference_canonical_rows(masks, colour))


def test_labelling_matches_reference_on_every_child():
    # every child that growth to order 8 refined before orbit pruning
    total = 0
    for _, graphs in minimally_rigid_levels(2, 7):
        children = [child for g in graphs
                    for child in _unpruned_extensions(g.adj)]
        _assert_labelling_matches_reference(children)
        total += len(children)
    assert total == 2212


def test_labelling_matches_reference_on_symmetric_and_random_graphs():
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    q3 = Graph(8, [(v, v ^ 1 << i) for v in range(8) for i in range(3)
                   if v < v ^ 1 << i])
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)])
    for g in (cycle_graph(8), k33, prism, q3, petersen):
        _assert_labelling_matches_reference([g.adj])
    rng = random.Random(43)
    for n in range(1, 16):
        _assert_labelling_matches_reference(
            [random_graph(rng, n, rng.random()).adj for _ in range(20)])


# -- enumeration ----------------------------------------------------------


def test_enumeration_counts_vs_exhaustive_filter():
    # independent route: filter all labeled graphs with 2n-3 edges through
    # the subset-counting oracle, then count orbits via minperm canonicals
    for n in range(3, 7):
        pairs = vertex_pairs(n)
        canon_masks = minperm_canonical_masks(n)
        orbits = set()
        for chosen in combinations(range(len(pairs)), 2 * n - 3):
            mask = sum(1 << k for k in chosen)
            if brute_minimally_rigid(graph_from_mask(n, mask, pairs)):
                orbits.add(int(canon_masks[mask]))
        enumerated = next(minimally_rigid_levels(n, n))[1]
        assert len(enumerated) == len(orbits) == KNOWN_CLASS_COUNTS[n]


def test_enumeration_members_are_minimally_rigid_and_distinct():
    for n in (6, 7):
        graphs = next(minimally_rigid_levels(n, n))[1]
        assert len(graphs) == KNOWN_CLASS_COUNTS[n]
        forms = {canonical_form(g) for g in graphs}
        assert len(forms) == len(graphs)
        for g in graphs:
            assert verdict_of(g).minimally_rigid
            assert brute_minimally_rigid(g)


def test_enumeration_returns_canonical_labellings_in_order():
    # laman-extremal prints these labellings as argmax_graph6
    for n in range(3, 8):
        graphs = next(minimally_rigid_levels(n, n))[1]
        lines = [write_graph6(g) for g in graphs]
        assert lines == [canonical_form(g) for g in graphs]
        assert lines == sorted(lines)


def test_enumeration_complete_via_labeled_count_n7():
    """Count labeled minimally rigid graphs on 7 vertices two ways.

    Route one filters all C(21, 11) edge sets with the subset-counting
    oracle, vectorised.  Route two sums 7!/|Aut| over the enumerated
    isomorphism classes.  Agreement forces the enumeration to be complete:
    a missing class would lower the second count, a spurious or repeated
    class would raise it.
    """
    n, npairs, m = 7, 21, 11
    pairs = vertex_pairs(n)
    masks = np.arange(1 << npairs, dtype=np.int64)
    masks = masks[np.bitwise_count(masks) == m]

    subset_edges = np.zeros(1 << n, dtype=np.int64)
    for x in range(1 << n):
        subset_edges[x] = sum(
            1 << k for k, (u, v) in enumerate(pairs)
            if x >> u & 1 and x >> v & 1
        )
    ok = np.ones(len(masks), dtype=bool)
    for x in range(1 << n):
        size = int(x).bit_count()
        if size < 2:
            continue
        inside = np.bitwise_count(masks & subset_edges[x])
        ok &= inside <= 2 * size - 3
    labeled_direct = int(ok.sum())

    graphs = next(minimally_rigid_levels(n, n))[1]
    labeled_from_classes = 0
    for aut in _brute_automorphism_counts(n, graphs):
        assert 5040 % aut == 0
        labeled_from_classes += 5040 // aut
    assert labeled_direct == labeled_from_classes


def _brute_automorphism_counts(n, graphs):
    """|Aut(g)| of each graph on n vertices, by trying all n! relabellings
    on its edge mask at once."""
    pairs = vertex_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    weights = np.int64(1) << pair_permutation_tables(n)
    counts = []
    for g in graphs:
        bits = np.zeros(len(pairs), dtype=np.int64)
        for e in g.edge_list():
            bits[index[e]] = 1
        orig = sum(1 << index[e] for e in g.edge_list())
        counts.append(int(np.sum(weights @ bits == orig)))
    return counts


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        next(minimally_rigid_levels(1, 1))
    with pytest.raises(ValueError):
        next(minimally_rigid_levels(10, 10))


def test_levels_match_enumeration_per_order():
    levels = list(minimally_rigid_levels(2, 7))
    assert [n for n, _ in levels] == list(range(2, 8))
    for n, graphs in levels:
        assert graphs == next(minimally_rigid_levels(n, n))[1]
    for nmin, nmax in ((1, 3), (5, 4), (3, 10)):
        with pytest.raises(ValueError):
            list(minimally_rigid_levels(nmin, nmax))


def _count_labellings(monkeypatch):
    """Count the enumeration's canonical labellings."""
    labelled = rigidity._canonical_rows
    calls = [0]

    def counting(adj, colour):
        calls[0] += 1
        return labelled(adj, colour)

    monkeypatch.setattr(rigidity, "_canonical_rows", counting)
    return calls


def test_laman_sweep_grows_each_level_once(monkeypatch):
    calls = _count_labellings(monkeypatch)
    next(minimally_rigid_levels(7, 7))
    alone, calls[0] = calls[0], 0
    assert alone > 0
    rep = laman_extremal_report(3, 7)
    assert calls[0] == alone
    assert rep["rows"] == [laman_extremal_report(n, n)["rows"][0]
                           for n in range(3, 8)]


def test_laman_sweep_labels_few_children(monkeypatch):
    # growth to order 8 refines 1 359 children and labels 718 of them;
    # before orbit pruning it refined 2 212 and labelled 1 112, and
    # unfiltered growth labels all 6 099 children of the levels below 8
    labelled = _count_labellings(monkeypatch)
    leading = rigidity._leading_colours
    refined = [0]

    def counting(child):
        refined[0] += 1
        return leading(child)

    monkeypatch.setattr(rigidity, "_leading_colours", counting)
    assert laman_extremal_report(3, 8)["ok"]
    assert 0 < labelled[0] <= 720
    assert 0 < refined[0] <= 1360


def _assert_rounds_refine(adj):
    rounds = list(reference_refinement_rounds(adj))
    for before, after in zip(rounds, rounds[1:]):
        for u, v in permutations(range(len(adj)), 2):
            if before[u] < before[v]:
                assert after[u] < after[v]


def test_each_refinement_round_refines_the_last():
    # the refinement's keys rest on this: vertices of one colour
    # share a degree, so their neighbour multisets have one size
    for _, graphs in minimally_rigid_levels(2, 8):
        for g in graphs:
            _assert_rounds_refine(g.adj)
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 20), rng.random())
        _assert_rounds_refine(g.adj)


def test_level_graphs_have_sorted_stable_colours():
    # growth passes each child's sorted colours on as the colours of the
    # graph its canonical rows give: the same multiset, so equal when the
    # graph's own colours run in vertex order
    for _, graphs in minimally_rigid_levels(2, 8):
        for g in graphs:
            colour = _refine_classes(g.adj)
            assert colour == sorted(colour)


def _unpruned_extensions(adj):
    """Adjacency masks of every 0-extension and, when at most one vertex
    has degree 2, every 1-extension whose new vertex can have the minimum
    degree: the children that growth refined before orbit pruning."""
    n, x = len(adj), 1 << len(adj)
    for u, v in combinations(range(n), 2):
        child = list(adj)
        child[u] |= x
        child[v] |= x
        yield child + [1 << u | 1 << v]
    low = [v for v in range(n) if adj[v].bit_count() == 2]
    if len(low) > 1:
        return
    for u, v in combinations(range(n), 2):
        if adj[u] >> v & 1:
            for w in low or range(n):
                if w != u and w != v:
                    child = list(adj)
                    child[u] ^= 1 << v | x
                    child[v] ^= 1 << u | x
                    child[w] |= x
                    yield child + [1 << u | 1 << v | 1 << w]


def test_new_vertex_test_matches_stable_colour_test():
    # reference: refine each graph to its end, then test its last vertex;
    # on every child that growth to order 8 refined before orbit pruning,
    # and on random graphs
    graphs = [child for _, level in minimally_rigid_levels(2, 7)
              for g in level for child in _unpruned_extensions(g.adj)]
    rng = random.Random(47)
    graphs += [random_graph(rng, n, rng.random()).adj
               for n in range(1, 16) for _ in range(20)]
    colours = [rigidity._leading_colours(adj) for adj in graphs]
    assert colours == [_reference_leading_colours(adj) for adj in graphs]
    assert None in colours and colours.count(None) < len(colours)


def test_pruning_automorphisms_are_the_whole_group():
    # the pruning keeps one extension per orbit of these maps, so each must
    # be an automorphism, and a missing one would only keep more children
    for n in range(3, 8):
        graphs = next(minimally_rigid_levels(n, n))[1]
        for g, brute in zip(graphs, _brute_automorphism_counts(n, graphs)):
            colour = _refine_classes(g.adj)
            auts = rigidity._automorphisms(g.adj, colour)
            for s in auts:
                assert sorted(s) == list(range(n))
                assert Graph(n, [(s[u], s[v]) for u, v in g.edge_list()]) == g
            assert len({tuple(s) for s in auts}) == len(auts) == brute
            # growth skips the search when the colours are discrete
            if len(set(colour)) == n:
                assert brute == 1


def test_orbit_pruning_keeps_every_child_class():
    # per parent, one extension per orbit labels to the same rows as all
    def labelled(children):
        return {reference_canonical_rows(c, colour) for c in children
                if (colour := rigidity._leading_colours(c)) is not None}

    for _, graphs in minimally_rigid_levels(2, 7):
        for g in graphs:
            pruned = rigidity._extensions(g.adj, _refine_classes(g.adj))
            assert labelled(pruned) == labelled(_unpruned_extensions(g.adj))


def _all_extensions(g):
    for u, v in combinations(range(g.n), 2):
        yield with_vertex(g, (u, v))
    for u, v in g.edge_list():
        base = without_edge(g, u, v)
        for w in range(g.n):
            if w != u and w != v:
                yield with_vertex(base, (u, v, w))


def test_levels_match_unfiltered_growth():
    # reference: label every 0- and 1-extension, with no new-vertex test
    level = {Graph(2, [(0, 1)])}
    expected = {}
    for n in range(3, 9):
        level = {canonical_graph(h) for g in level for h in _all_extensions(g)}
        expected[n] = sorted(map(write_graph6, level))
    got = {n: [write_graph6(g) for g in graphs]
           for n, graphs in minimally_rigid_levels(3, 8)}
    assert got == expected


def _delete_vertex(g, y):
    return Graph(g.n - 1, [(u - (u > y), v - (v > y))
                           for u, v in g.edge_list() if y not in (u, v)])


def test_every_degree_2_or_3_vertex_is_removable():
    # the new-vertex test is sound only if each minimum-degree vertex of a
    # class undoes some 0- or 1-extension
    for n in range(3, 9):
        for g in next(minimally_rigid_levels(n, n))[1]:
            degrees = g.degrees()
            assert min(degrees) in (2, 3)
            for y, d in enumerate(degrees):
                if d == 2:
                    h = _delete_vertex(g, y)
                    assert verdict_of(h).minimally_rigid
                elif d == 3:
                    assert any(
                        verdict_of(
                            _delete_vertex(with_edge(g, a, b), y)
                        ).minimally_rigid
                        for a, b in combinations(_members(g.adj[y]), 2)
                        if not g.adj[a] >> b & 1)


def test_level_graphs_match_checked_construction(monkeypatch):
    # levels are built from canonical rows without the edge checks that
    # Graph(n, edges) applies to outside input
    built = []
    from_rows = rigidity._graph_from_rows

    def recording(rows):
        g = from_rows(rows)
        built.append((rows, g))
        return g

    monkeypatch.setattr(rigidity, "_graph_from_rows", recording)
    sizes = [len(graphs) for _, graphs in minimally_rigid_levels(3, 9)]
    assert len(built) == sum(sizes)
    for rows, g in built:
        n = len(rows)
        # position i of row k sits at bit n - 1 - i
        checked = Graph(n, [(n - 1 - b, k) for k, r in enumerate(rows)
                            for b in _members(r)])
        assert g == checked and hash(g) == hash(checked)
        assert (g.n, g.m) == (checked.n, checked.m) == (n, 2 * n - 3)
        assert type(g.adj) is tuple


def test_enumeration_n9_count_and_radius_maximiser():
    # OEIS A227117 counts the classes; the hub pair is the unique maximiser
    graphs = next(minimally_rigid_levels(9, 9))[1]
    assert len(graphs) == 7222
    rhos = [spectral_radius(g) for g in graphs]
    best = max(range(len(graphs)), key=rhos.__getitem__)
    assert graphs[best] == canonical_graph(complete_split_graph(9))
    assert abs(rhos[best] - complete_split_rho(9)) <= 1e-9
    assert sum(r > rhos[best] - 1e-9 for r in rhos) == 1

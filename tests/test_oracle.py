"""Numeric rank, exhaustive sparsity oracles, packing and cut-size checks."""
import random

import numpy as np
import pytest

from rigidspec import (
    DegeneratePlacementError,
    Graph,
    Placement,
    linked_cliques,
    numeric_rank,
    packing_violation_search,
    pebble_rank,
    random_placement,
    rigidity_matrix,
)
from rigidspec.graphcore import _members
from conftest import all_labeled_graphs, random_graph
from oracles import (
    brute_minimally_rigid,
    brute_sparse_rank,
    complete_graph,
    cut_size_law_holds,
    cycle_graph,
    exhaustive_packing_violation,
    packing_holds,
    packing_terms,
    set_partitions,
    trivial_motion_space,
    verdict_of,
    without_edge,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877]


def test_placement_validation():
    with pytest.raises(DegeneratePlacementError):
        Placement(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        Placement(np.zeros((3, 3)))
    pl = random_placement(6, 42)
    assert pl.n == 6
    assert np.all(pl.coords >= 1.0) and np.all(pl.coords < 2.0)
    assert np.array_equal(pl.coords, random_placement(6, 42).coords)
    assert not np.array_equal(pl.coords, random_placement(6, 43).coords)
    big = random_placement(9, 2**70)
    assert big.coords.dtype == np.float64 and big.coords.shape == (9, 2)
    assert np.all(big.coords >= 1.0) and np.all(big.coords < 2.0)
    assert np.array_equal(big.coords, random_placement(9, 2**70).coords)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        random_placement(6, -1)


def test_rigidity_matrix_single_edge():
    g = Graph(2, [(0, 1)])
    pl = Placement(np.array([[1.0, 1.0], [1.5, 1.25]]))
    mat = rigidity_matrix(g, pl)
    assert mat.shape == (1, 4)
    assert np.allclose(mat[0], [-0.5, -0.25, 0.5, 0.25])
    with pytest.raises(ValueError):
        rigidity_matrix(complete_graph(3), pl)


def _rigidity_matrix_by_rows(g, pl):
    """The rigidity matrix filled one edge row at a time."""
    mat = np.zeros((g.m, 2 * g.n))
    for r, (u, v) in enumerate(g.edge_list()):
        d = pl.coords[u] - pl.coords[v]
        mat[r, 2 * u: 2 * u + 2] = d
        mat[r, 2 * v: 2 * v + 2] = -d
    return mat


def test_rigidity_matrix_matches_row_loop(connected_labeled_upto6,
                                          random_corpus_1000):
    """Bitwise equal to the row-by-row fill on criterion 1's graphs."""
    for k, g in enumerate(connected_labeled_upto6 + random_corpus_1000):
        pl = random_placement(g.n, k)
        mat, ref = rigidity_matrix(g, pl), _rigidity_matrix_by_rows(g, pl)
        assert mat.shape == ref.shape, g.edge_list()
        assert mat.tobytes() == ref.tobytes(), g.edge_list()


def test_trivial_motions_are_annihilated():
    rng = random.Random(101)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9), 0.6)
        pl = random_placement(g.n, rng.randint(0, 10**6))
        mat = rigidity_matrix(g, pl)
        mot = trivial_motion_space(pl)
        if g.m:
            assert np.max(np.abs(mat @ mot)) < 1e-12 * max(1.0, np.max(np.abs(mat)))
        assert numeric_rank(g, pl) <= 2 * g.n - 3


def test_numeric_rank_matches_pebble_on_samples():
    rng = random.Random(103)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 10), rng.random())
        for seed in (0, 1, 2):
            assert numeric_rank(g, random_placement(g.n, seed)) == pebble_rank(g)


def test_numeric_rank_seed_independent():
    g = linked_cliques(12, 5, 2)
    ranks = {numeric_rank(g, random_placement(12, s)) for s in range(10)}
    assert ranks == {pebble_rank(g)}


def test_numeric_rank_detects_rigidity():
    for g, expect in [
        (complete_graph(5), True),
        (cycle_graph(6), False),
        (linked_cliques(16, 7, 3), True),
        (linked_cliques(16, 7, 2), False),
    ]:
        pl = random_placement(g.n, 5)
        assert (numeric_rank(g, pl) == 2 * g.n - 3) == expect
        assert verdict_of(g).rigid == expect


def test_brute_sparse_rank_exhaustive_small():
    for n in (2, 3, 4):
        for g in all_labeled_graphs(n):
            assert brute_sparse_rank(g) == pebble_rank(g), g.edge_list()


def test_brute_sparse_rank_random():
    rng = random.Random(107)
    for _ in range(60):
        g = random_graph(rng, rng.randint(5, 11), rng.random())
        assert brute_sparse_rank(g) == pebble_rank(g)


def test_brute_minimally_rigid_examples():
    assert brute_minimally_rigid(without_edge(complete_graph(4), 0, 1))
    assert not brute_minimally_rigid(complete_graph(4))
    assert not brute_minimally_rigid(cycle_graph(5))
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert brute_minimally_rigid(k33)
    with pytest.raises(ValueError):
        brute_minimally_rigid(Graph(12))


def test_set_partitions_bell_counts():
    for k in range(0, 8):
        parts = list(set_partitions(list(range(k))))
        assert len(parts) == BELL[k]
        # each is a genuine partition, and none repeats
        seen = set()
        for p in parts:
            flat = sorted(v for blk in p for v in blk)
            assert flat == list(range(k))
            sig = frozenset(frozenset(blk) for blk in p)
            assert sig not in seen
            seen.add(sig)


def test_packing_condition_known_cases():
    c6 = cycle_graph(6)
    singles = [[v] for v in range(6)]
    assert not packing_holds(c6, 1, [], singles)  # 6 < 2n-3 = 9
    k7 = complete_graph(7)
    assert packing_holds(k7, 1, [], [[v] for v in range(7)])  # 21 >= 11
    with pytest.raises(ValueError):
        packing_holds(c6, 0, [], singles)
    with pytest.raises(ValueError):
        packing_holds(c6, 1, [0, 1, 2], [[3], [4], [5]])


def test_packing_violation_search_modes():
    c6 = cycle_graph(6)
    w = exhaustive_packing_violation(c6, 1, zmax=2)
    assert w is not None
    assert not packing_holds(c6, 1, *w)
    assert exhaustive_packing_violation(complete_graph(7), 1, zmax=2) is None
    # the structured search agrees on both
    w = packing_violation_search(c6)
    assert w is not None
    assert not packing_holds(c6, 1, [], [_members(p) for p in w])
    assert packing_violation_search(complete_graph(7)) is None
    with pytest.raises(ValueError):
        exhaustive_packing_violation(complete_graph(4), 1, zmax=3)
    with pytest.raises(ValueError):
        exhaustive_packing_violation(Graph(12), 1, zmax=2)


def test_packing_witness_for_two_clique_family():
    b2 = linked_cliques(18, 7, 2)
    w = packing_violation_search(b2)
    assert w is not None and set(w) == {(1 << 7) - 1, (1 << 18) - (1 << 7)}
    parts = [_members(p) for p in w]
    assert packing_terms(b2, [], parts)[0] == 2
    assert not packing_holds(b2, 1, [], parts)


def _search_agrees_one_sided(g, exhaustive):
    """Whether the search finds a witness on g.  A witness must partition
    V and violate the exhaustive search's inequality; with `exhaustive`
    the exhaustive search must find one too, so that the search finds none
    where the exhaustive search finds none."""
    w = packing_violation_search(g)
    if w is not None:
        # packing_terms rejects masks that do not partition V
        assert not packing_holds(g, 1, [], [_members(p) for p in w]), \
            g.edge_list()
        if exhaustive:
            assert exhaustive_packing_violation(g, 1, zmax=0) is not None
    return w is not None


def test_packing_violation_search_against_exhaustive():
    # the exhaustive search tries every partition, the witness among them,
    # so a violating witness implies that it finds one; it is run itself
    # where that is cheap
    found = sum(_search_agrees_one_sided(g, n <= 5)
                for n in range(7) for g in all_labeled_graphs(n))
    rng = random.Random(127)
    for _ in range(30):
        g = random_graph(rng, rng.randint(7, 9), rng.uniform(0.3, 0.9))
        found += _search_agrees_one_sided(g, True)
    assert found > 20000
    for delta in range(6, 10):
        for n in range(2 * delta + 4, 2 * delta + 12):
            a = delta + 1
            w = packing_violation_search(linked_cliques(n, a, 2))
            assert w is not None and sorted(w) == [(1 << a) - 1,
                                                   (1 << n) - (1 << a)]


def test_rigid_graphs_admit_no_violation():
    # a violating pair would contradict the existence of a spanning rigid
    # subgraph, so rigid graphs must pass every (Z, partition) test
    rng = random.Random(109)
    checked = 0
    for _ in range(120):
        g = random_graph(rng, rng.randint(4, 6), rng.uniform(0.5, 0.95))
        if not verdict_of(g).rigid:
            continue
        assert exhaustive_packing_violation(g, 1, zmax=2) is None
        checked += 1
    assert checked >= 20


def test_sparse_graphs_always_caught():
    # with fewer than 2n-3 edges the all-singletons partition violates
    rng = random.Random(113)
    for _ in range(40):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, 0.25)
        if g.m >= 2 * n - 3:
            continue
        assert packing_violation_search(g) is not None


def test_cut_size_law_exhaustive_small():
    for n in (2, 3, 4):
        for g in all_labeled_graphs(n):
            for mask in range(1, (1 << n) - 1):
                subset = [v for v in range(n) if mask >> v & 1]
                assert cut_size_law_holds(g, subset)


def test_cut_size_law_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        cut_size_law_holds(g, [])
    with pytest.raises(ValueError):
        cut_size_law_holds(g, range(4))
    with pytest.raises(ValueError):
        cut_size_law_holds(cycle_graph(6), [0, 1, 2, 3, 4, 5, 99])

"""Property tests: graph6 round trip against the bit-shifting codec,
connectivity and reports invariant under vertex relabelling, pebble rank
against numeric and exact rank, and the pebble game against its one-search-per-end
oracle."""
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from rigidspec import (  # noqa: E402
    Graph,
    analyze_graph,
    exact_rank,
    json_stable,
    parse_graph6,
    pebble_rank,
    vertex_connectivity,
    write_graph6,
)
from rigidspec.rigidity import _run_pebble_game  # noqa: E402
from rigidspec.verify import REPORT_TOL  # noqa: E402
from oracles import (  # noqa: E402
    complete_graph,
    numeric_rank,
    random_placement,
    reference_parse_graph6,
    reference_pebble_game,
    reference_write_graph6,
)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def graphs(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.floats(0.0, 1.0))
    # edges from a drawn seed: a drawn bit per pair would overrun
    # hypothesis's input buffer at n = 70
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph(n, [(u, v) for v in range(n) for u in range(v)
                     if rng.random() < p])


@st.composite
def relabelled_pairs(draw, min_n, max_n):
    g = draw(graphs(min_n, max_n))
    perm = draw(st.permutations(range(g.n)))
    return g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])


@PROPERTY
@given(graphs(0, 70))
@example(complete_graph(62))
@example(complete_graph(63))
def test_graph6_round_trip(g):
    line = write_graph6(g)
    assert (line[0] == "~") == (g.n >= 63)
    assert parse_graph6(line) == g
    assert write_graph6(parse_graph6(line)) == line


@settings(derandomize=True, max_examples=25, deadline=None)
@given(graphs(63, 300))
def test_graph6_long_header_round_trip_matches_reference(g):
    line = write_graph6(g)
    assert line == reference_write_graph6(g)
    assert parse_graph6(line) == reference_parse_graph6(line) == g


@PROPERTY
@given(relabelled_pairs(2, 16))
def test_connectivity_invariant_under_relabelling(pair):
    g, h = pair
    assert vertex_connectivity(g) == vertex_connectivity(h)


# eigensolver output: a permuted matrix changes the rounding, which can flip
# the 12th significant digit, and a disconnected graph's second Laplacian
# eigenvalue comes out as noise of order 1e-16 rather than 0
EIGENVALUE_FIELDS = ("rho", "algebraic_connectivity")


@PROPERTY
@given(relabelled_pairs(1, 14))
def test_report_invariant_under_relabelling(pair):
    """Every field but graph6 serialises to the same bytes, except the two
    eigenvalues, which agree to REPORT_TOL."""
    g, h = pair
    a, b = analyze_graph(g), analyze_graph(h)
    for key in ("graph6",) + EIGENVALUE_FIELDS:
        x, y = a.pop(key), b.pop(key)
        if key != "graph6" and x is not None:
            assert abs(x - y) <= REPORT_TOL * max(1.0, abs(x)), key
    assert json_stable(a) == json_stable(b)


@settings(PROPERTY, max_examples=500)
@given(graphs(0, 10), st.integers(0, 2**32 - 1))
def test_pebble_rank_matches_numeric_rank(g, seed):
    """The pebble game's rank is the rigidity matrix's rank at a random,
    hence generic, placement: in floating point at real points, and
    exactly modulo a prime at integer points."""
    rank = pebble_rank(g)
    assert rank == numeric_rank(g, random_placement(g.n, seed))
    assert rank == exact_rank(g, seed)


@settings(PROPERTY, max_examples=300)
@given(graphs(0, 40), st.integers(0, 2**32 - 1))
def test_pebble_game_matches_reference_game(g, seed):
    """Same basis and coloops as the game that searches from each end in
    turn and traverses each rejected edge's closure a third time, for any
    insertion order and orientation of the edges."""
    rng = random.Random(seed)
    edges = [(v, u) if rng.random() < 0.5 else (u, v)
             for u, v in g.edge_list()]
    rng.shuffle(edges)
    fast = _run_pebble_game(g.n, edges)
    slow = reference_pebble_game(g.n, edges)
    assert fast.basis == slow.basis
    assert fast.coloops == slow.coloops

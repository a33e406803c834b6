"""Graph construction, cut counting, and vertex connectivity."""
import copy
import pickle
import random
from collections import deque
from itertools import combinations

import pytest

from rigidspec import (
    Graph,
    complete_split_graph,
    linked_cliques,
    vertex_connectivity,
)
from rigidspec import graphcore
from rigidspec.graphcore import _flow, _seed_paths
from conftest import (
    all_labeled_graphs,
    henneberg_graph,
    random_graph,
    relabelled,
    to_networkx,
    with_random_edges,
)
from oracles import (
    boundary_size,
    complete_graph,
    cycle_graph,
    induced_edge_count,
    is_connected,
    packing_terms,
    with_edge,
    with_vertex,
    without_edge,
)


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)
    g = Graph(3, [(1, 0), (0, 1)])
    assert g.m == 1 and g.adj[0] >> 1 & 1 and g.adj[1] & 1
    # numpy integers are taken by value, not shifted at fixed width
    np = pytest.importorskip("numpy")
    g = Graph(70, [(np.int64(0), np.int64(65))])
    assert g.edge_list() == [(0, 65)] and type(g.adj[0]) is int


def test_graph_is_immutable():
    g = complete_graph(4)
    with pytest.raises(AttributeError):
        g.n = 5


def test_edge_list_reads_the_masks_in_lexicographic_order():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(0, 12)
        pairs = [(u, v) for u, v in combinations(range(n), 2)
                 if rng.random() < 0.4]
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        rng.shuffle(given)
        g = Graph(n, given + given[:3])
        edges = g.edge_list()
        assert edges == sorted(pairs) == sorted(edges)
        assert g.m == len(edges)
        assert g.edge_list() is not edges  # a fresh list each call
        edges.clear()
        assert g.edge_list() == sorted(pairs)


def test_graph_copies_and_pickles_to_an_equal_graph():
    for g in (Graph(0), Graph(3, [(0, 1)]), linked_cliques(16, 7, 2)):
        for h in (copy.copy(g), copy.deepcopy(g),
                  pickle.loads(pickle.dumps(g))):
            assert h == g and hash(h) == hash(g)


def test_handshake_on_random_graphs():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 10), rng.random())
        assert sum(g.degrees()) == 2 * g.m


def test_edge_operations():
    g = complete_graph(4)
    h = without_edge(g, 0, 1)
    assert h.m == 5 and not h.adj[0] >> 1 & 1
    assert with_edge(h, 0, 1) == g
    with pytest.raises(ValueError):
        without_edge(h, 0, 1)
    k = with_vertex(g, (0, 2))
    assert k.n == 5 and k.degree(4) == 2


def test_linked_cliques_structure():
    g = linked_cliques(16, 7, 2)
    assert g.n == 16 and g.m == 59
    assert g.min_degree() == 6
    assert g.adj[0] >> 7 & 1 and g.adj[1] >> 8 & 1 and not g.adj[2] >> 9 & 1
    assert induced_edge_count(g, range(7)) == 21
    assert induced_edge_count(g, range(7, 16)) == 36


def test_linked_cliques_min_degree_formula():
    # small-clique side dominates: delta = n1 - 1, plus 1 when every
    # small-clique vertex carries a cross edge
    for n in range(4, 13):
        for n1 in range(2, n // 2 + 1):
            for links in range(min(n1, n - n1) + 1):
                g = linked_cliques(n, n1, links)
                expected = n1 - 1 + (1 if links == n1 else 0)
                assert g.min_degree() == expected, (n, n1, links)


def test_linked_cliques_validation():
    with pytest.raises(ValueError):
        linked_cliques(5, 0, 0)
    with pytest.raises(ValueError):
        linked_cliques(5, 5, 0)
    with pytest.raises(ValueError):
        linked_cliques(8, 3, 4)


def test_complete_split_structure():
    g = complete_split_graph(8)
    assert g.m == 2 * 8 - 3
    assert sorted(g.degrees()) == [2] * 6 + [7, 7]
    assert complete_split_graph(3) == complete_graph(3)
    with pytest.raises(ValueError):
        complete_split_graph(2)


def test_boundary_size_symmetry_and_errors():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, 8, 0.4)
        s = {v for v in range(8) if rng.random() < 0.5}
        if not s or len(s) == 8:
            continue
        comp = set(range(8)) - s
        assert boundary_size(g, s) == boundary_size(g, comp)
        assert induced_edge_count(g, s) + induced_edge_count(g, comp) \
            + boundary_size(g, s) == g.m
    g = complete_graph(4)
    with pytest.raises(ValueError):
        boundary_size(g, [])
    with pytest.raises(ValueError):
        boundary_size(g, range(4))
    with pytest.raises(ValueError):
        boundary_size(g, [9])


def test_induced_edge_count_basics():
    g = complete_graph(5)
    assert induced_edge_count(g, []) == 0
    assert induced_edge_count(g, [2]) == 0
    assert induced_edge_count(g, [0, 1, 2]) == 3


def test_vertex_partition_counts():
    g = complete_graph(5)
    # (crossing, z_adjacency, #trivial, #nontrivial)
    assert packing_terms(g, [0], [[1], [2], [3], [4]]) == (6, 4, 4, 0)
    assert packing_terms(g, [], [[0, 1], [2, 3, 4]]) == (6, 0, 0, 2)


def test_vertex_partition_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        packing_terms(g, [], [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        packing_terms(g, [], [[0, 1]])
    with pytest.raises(ValueError):
        packing_terms(g, [0], [[1], [], [2, 3]])
    with pytest.raises(ValueError):
        packing_terms(g, [0], [[0], [1, 2, 3]])
    with pytest.raises(ValueError):
        packing_terms(g, range(4), [])
    with pytest.raises(ValueError):
        packing_terms(g, [], [[0, 1], [2, 3, 4]])


def test_partition_cut_cases():
    b2 = linked_cliques(16, 7, 2)
    assert packing_terms(b2, [], [range(7), range(7, 16)])[0] == 2
    g = complete_graph(6)
    assert packing_terms(g, [], [[v] for v in range(6)])[0] == g.m


def test_vertex_connectivity_known_values():
    assert vertex_connectivity(complete_graph(5)) == 4
    assert vertex_connectivity(cycle_graph(7)) == 2
    path = Graph(5, [(i, i + 1) for i in range(4)])
    assert vertex_connectivity(path) == 1
    two_parts = Graph(5, [(0, 1), (2, 3), (3, 4)])
    assert vertex_connectivity(two_parts) == 0
    bip = Graph(7, [(u, v) for u in range(3) for v in range(3, 7)])
    assert vertex_connectivity(bip) == 3
    assert vertex_connectivity(linked_cliques(16, 7, 2)) == 2
    assert vertex_connectivity(linked_cliques(16, 7, 3)) == 3
    assert vertex_connectivity(complete_split_graph(9)) == 2


def test_vertex_connectivity_exhaustive_vs_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(2, 6):
        for g in all_labeled_graphs(n):
            h = to_networkx(g)
            assert vertex_connectivity(g) == nx.node_connectivity(h), g.edge_list()


def test_vertex_connectivity_random_vs_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        h = to_networkx(g)
        assert vertex_connectivity(g) == nx.node_connectivity(h)


def _local_connectivity_by_definition(g, s, t):
    """Max number of internally disjoint s-t paths, s and t non-adjacent:
    a unit-capacity flow on a split digraph rebuilt as a dict for the pair."""
    # node 2v = in-copy, 2v+1 = out-copy; source = out(s), sink = in(t)
    cap = {}
    nbr = [set() for _ in range(2 * g.n)]

    def add(a, b, c):
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)
        nbr[a].add(b)
        nbr[b].add(a)

    for v in range(g.n):
        if v not in (s, t):
            add(2 * v, 2 * v + 1, 1)
    for u, v in g.edge_list():
        add(2 * u + 1, 2 * v, g.n)
        add(2 * v + 1, 2 * u, g.n)
    src, snk = 2 * s + 1, 2 * t
    flow = 0
    while True:
        parent = {src: src}
        queue = deque([src])
        while queue and snk not in parent:
            x = queue.popleft()
            for y in nbr[x]:
                if y not in parent and cap[(x, y)] > 0:
                    parent[y] = x
                    queue.append(y)
        if snk not in parent:
            return flow
        y = snk
        while y != src:
            x = parent[y]
            cap[(x, y)] -= 1
            cap[(y, x)] += 1
            y = x
        flow += 1


# Greedy seeding takes 0-1-3-4 and then stalls at one path, while the
# local connectivity of (0, 4) is 2 (0-2-7-3-1-5-6-4 after rerouting):
# only the residual step finds the second path.
TRAP = Graph(8, [(0, 1), (0, 2), (1, 3), (3, 4), (1, 5), (5, 6), (6, 4),
                 (2, 7), (7, 3)])


def _bouquet(branches):
    """Terminals 0 and 1 joined only through the cut vertex 2, by the
    branches 0 - x - 2 - y - 1: every path must reuse 2 after the first."""
    edges = []
    for i in range(branches):
        x, y = 3 + 2 * i, 4 + 2 * i
        edges += [(0, x), (x, 2), (2, y), (y, 1)]
    return Graph(3 + 2 * branches, edges)


BOUQUET = _bouquet(4)


def _non_edges(g):
    return [(u, v) for u, v in combinations(range(g.n), 2)
            if not g.adj[u] >> v & 1]


def _pair_corpus():
    """Graphs and their terminal pairs: every non-adjacent pair of 60 small
    graphs, 30 sampled pairs of 8 dense ones with 30 <= n <= 60, then every
    pair of the trap graph and of a bouquet."""
    rng = random.Random(2024)
    for k in range(60):
        n = rng.randint(8, 25)
        p = rng.uniform(0.5, 0.9) if k % 2 else rng.uniform(0.1, 0.35)
        g = random_graph(rng, n, p)
        yield g, _non_edges(g)
    for _ in range(8):
        g = random_graph(rng, rng.randint(30, 60), rng.uniform(0.5, 0.9))
        yield g, rng.sample(_non_edges(g), 30)
    for g in (TRAP, BOUQUET):
        yield g, _non_edges(g)


def test_pair_flow_matches_definition():
    """The seeded, capped flow against the per-pair dict network on the
    pair corpus; some random pairs stall in seeding below their local
    connectivity, so the residual search runs."""
    rng = random.Random(2025)
    pairs = stalled = 0
    for g, sample in _pair_corpus():
        masks = g.adj
        for s, t in sample:
            expect = _local_connectivity_by_definition(g, s, t)
            assert _flow(masks, s, t, g.n) == expect, (g.edge_list(), s, t)
            assert _flow(masks, t, s, g.n) == expect, (g.edge_list(), t, s)
            cap = rng.randint(0, expect + 1)
            assert _flow(masks, s, t, cap) == min(cap, expect)
            assert _flow(masks, t, s, cap) == min(cap, expect)
            if g not in (TRAP, BOUQUET):
                stalled += len(_seed_paths(masks, s, t, g.n)) < expect
            pairs += 1
    assert pairs > 1200
    assert stalled > 0, "no random pair needed the residual search"
    for g, s, t, expect in ((TRAP, 0, 4, 2), (BOUQUET, 0, 1, 1)):
        assert len(_seed_paths(g.adj, s, t, g.n)) == 1
        assert _flow(g.adj, s, t, g.n) == expect


def test_residual_search_is_exact_from_any_starting_flow(monkeypatch):
    """With no pair bound and the seeding cut down to no path, then to its
    first path only, the residual search alone reaches the local
    connectivity of every pair in the pair corpus, at every limit."""
    seed = graphcore._seed_paths
    monkeypatch.setattr(graphcore, "_pair_bound", lambda *args: 0)
    starts = (lambda *args: [], lambda *args: seed(*args)[:1])
    pairs = 0
    for g, sample in _pair_corpus():
        for s, t in sample:
            expect = _local_connectivity_by_definition(g, s, t)
            for start in starts:
                monkeypatch.setattr(graphcore, "_seed_paths", start)
                for limit in range(expect + 2):
                    want = min(limit, expect)
                    assert _flow(g.adj, s, t, limit) == want, \
                        (g.edge_list(), s, t, limit)
                    assert _flow(g.adj, t, s, limit) == want, \
                        (g.edge_list(), t, s, limit)
            pairs += 1
    assert pairs > 1200


def test_one_pair_reroutes_every_seeded_path():
    """k = 2..4 copies of the trap graph sharing the terminals 0 and 4,
    their inner vertices relabelled at random: seeding takes the k
    shortest paths, one through each copy, and stalls there, so the flow
    of 2k reroutes all k of them."""
    rng = random.Random(24)
    inner = (1, 2, 3, 5, 6, 7)
    for k in range(2, 5):
        n = 6 * k + 2
        labels = [v for v in range(1, n) if v != 4]
        rng.shuffle(labels)
        edges = []
        for i in range(k):
            name = {0: 0, 4: 4, **dict(zip(inner, labels[6 * i:6 * i + 6]))}
            edges += [(name[u], name[v]) for u, v in TRAP.edge_list()]
        g = Graph(n, edges)
        assert _local_connectivity_by_definition(g, 0, 4) == 2 * k
        for s, t in ((0, 4), (4, 0)):
            assert len(_seed_paths(g.adj, s, t, n)) == k
            assert _flow(g.adj, s, t, n) == 2 * k


def test_pair_bound_never_exceeds_the_local_connectivity(monkeypatch):
    """The common-neighbour and matching bound against the per-pair dict
    network on every non-adjacent pair of random graphs, the trap graph and
    a bouquet; the flow is the same with and without it at every limit."""
    rng = random.Random(1701)
    graphs = [random_graph(rng, rng.randint(5, 18), rng.uniform(0.15, 0.9))
              for _ in range(50)] + [TRAP, BOUQUET]
    bound = graphcore._pair_bound
    settled = pairs = 0
    for g in graphs:
        for s, t in _non_edges(g):
            expect = _local_connectivity_by_definition(g, s, t)
            low = bound(g.adj, s, t, g.n)
            assert low <= expect, (g.edge_list(), s, t)
            assert bound(g.adj, t, s, g.n) <= expect, (g.edge_list(), t, s)
            settled += 0 < low == expect
            pairs += 1
            for limit in range(expect + 2):
                want = min(limit, expect)
                assert _flow(g.adj, s, t, limit) == want
                with monkeypatch.context() as m:
                    m.setattr(graphcore, "_pair_bound", lambda *args: 0)
                    assert _flow(g.adj, s, t, limit) == want
    assert pairs > 800 and settled > pairs // 4
    # the trap's second path is longer than 3 edges: only the flow finds it
    assert bound(TRAP.adj, 0, 4, TRAP.n) == 1


def _check_seeded_paths(g, s, t, paths):
    """Each path joins s to t along edges of g; no inner vertex is shared."""
    inner = set()
    for path in paths:
        assert path[0] == s and path[-1] == t, path
        assert all(g.adj[a] >> b & 1 for a, b in zip(path, path[1:])), path
        assert len(set(path)) == len(path), path
        assert not inner & set(path[1:-1]), path
        inner |= set(path[1:-1])


def test_seeding_certificates_on_dense_graphs():
    """Seeded paths are disjoint s-t paths of g for every non-adjacent
    pair; kappa matches networkx at n = 60-80 and, on G(150, 0.6), a value
    cross-checked once with networkx."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(6080)
    graphs = [random_graph(rng, rng.randint(60, 80), rng.uniform(0.3, 0.8))
              for _ in range(3)]
    big = random_graph(random.Random(150), 150, 0.6)
    for g in graphs + [big]:
        masks = g.adj
        for s, t in combinations(range(g.n), 2):
            if not masks[s] >> t & 1:
                _check_seeded_paths(g, s, t, _seed_paths(masks, s, t, g.n))
    for g in graphs:
        h = to_networkx(g)
        assert vertex_connectivity(g) == nx.node_connectivity(h), g.edge_list()
    assert vertex_connectivity(big) == 73


def _connectivity_corpus(rng):
    """Graphs with 10 <= n <= 40 where the pair flows' seeding and caps
    matter: dense and medium G(n,p), Henneberg graphs with extra edges,
    relabelled two-clique graphs, K_n - e, K_{a,b}, disconnected graphs
    and paths."""
    graphs = []
    for _ in range(130):
        n = rng.randint(10, 40)
        graphs.append(random_graph(rng, n, rng.uniform(0.3, 0.95)))
    for _ in range(60):
        n = rng.randint(10, 40)
        graphs.append(with_random_edges(rng, henneberg_graph(rng, n),
                                        rng.randint(0, 3 * n)))
    for _ in range(60):
        delta = rng.randint(6, 9)
        n = rng.randint(2 * delta + 4, 40)
        g = linked_cliques(n, delta + 1, rng.randint(1, 3))
        graphs.append(relabelled(rng, g))
    for _ in range(20):
        # two cliques joined only through a small clique Z whose vertices
        # have the minimum degree: every minimum cut contains u0, so only
        # the pairs inside N(u0) find it
        z, a, m = rng.randint(1, 3), rng.randint(1, 2), rng.randint(8, 18)
        edges = list(combinations(range(z), 2))
        for lo in (z, z + m):
            edges += [(x + lo, y + lo) for x, y in combinations(range(m), 2)]
            edges += [(x, lo + y) for x in range(z)
                      for y in rng.sample(range(m), a)]
        graphs.append(relabelled(rng, Graph(z + 2 * m, edges)))
    for n in range(10, 41, 3):
        u, v = rng.sample(range(n), 2)
        graphs.append(without_edge(complete_graph(n), u, v))
        a = rng.randint(1, n - 1)
        graphs.append(relabelled(rng, Graph(
            n, [(x, y) for x in range(a) for y in range(a, n)])))
    for _ in range(20):
        n = rng.randint(10, 40)
        a = rng.randint(1, n - 1)
        g = random_graph(rng, a, rng.uniform(0.3, 0.95))
        h = random_graph(rng, n - a, rng.uniform(0.3, 0.95))
        graphs.append(relabelled(rng, Graph(
            n, g.edge_list() + [(x + a, y + a) for x, y in h.edge_list()])))
    for n in range(10, 41, 3):
        graphs.append(relabelled(
            rng, Graph(n, [(i, i + 1) for i in range(n - 1)])))
    return graphs


def test_connectivity_at_benchmark_sizes_vs_networkx():
    nx = pytest.importorskip("networkx")
    graphs = _connectivity_corpus(random.Random(4321))
    assert len(graphs) >= 300
    for g in graphs:
        h = to_networkx(g)
        kappa = nx.node_connectivity(h)
        assert vertex_connectivity(g) == kappa, g.edge_list()


def _union(rng, parts):
    """The disjoint union of the graphs `parts`, randomly relabelled."""
    edges, lo = [], 0
    for g in parts:
        edges += [(x + lo, y + lo) for x, y in g.edge_list()]
        lo += g.n
    return relabelled(rng, Graph(lo, edges))


def test_connectivity_of_degenerate_graphs_vs_networkx():
    """Complete, disconnected and one-vertex graphs take the general pair
    loops, with no case of their own: K_n for n <= 40, unions of 2 or 3
    random parts with up to 120 vertices, and graphs with isolated
    vertices all match networkx."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(2525)
    unions = [_union(rng, [random_graph(rng, n, rng.uniform(0.2, 0.95))
                           for n in sizes])
              for sizes in [[rng.randint(1, 40) for _ in range(k)]
                            for k in [2] * 20 + [3] * 20] + [[40] * 3]]
    isolated = [_union(rng, [random_graph(rng, rng.randint(2, 40),
                                          rng.uniform(0.3, 0.95))]
                       + [Graph(1)] * rng.randint(1, 3))
                for _ in range(30)] + [Graph(n) for n in range(2, 8)]
    # u0 isolated gives 0 at once; otherwise a pair flow must find it
    assert sum(g.min_degree() > 0 for g in unions) >= 10
    assert max(g.n for g in unions) == 120
    for g in unions + isolated:
        kappa = nx.node_connectivity(to_networkx(g))
        assert kappa == 0 and vertex_connectivity(g) == 0, g.edge_list()
    for n in range(1, 41):
        g = complete_graph(n)
        kappa = nx.node_connectivity(to_networkx(g))
        assert vertex_connectivity(g) == kappa == n - 1  # K_1 gives 0
    with pytest.raises(ValueError):
        vertex_connectivity(Graph(0))


def test_components():
    # connected iff one flood from vertex 0 reaches every vertex
    def flood(g):
        seen, todo = {0}, [0]
        while todo:
            u = todo.pop()
            for w in range(g.n):
                if g.adj[u] >> w & 1 and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    assert not is_connected(Graph(6, [(0, 1), (1, 2), (4, 5)]))
    assert is_connected(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]))
    rng = random.Random(443)
    for n in [0, 1, 2] + [rng.randint(2, 30) for _ in range(200)]:
        g = random_graph(rng, n, rng.uniform(0.0, 0.3))
        assert is_connected(g) == (n <= 1 or len(flood(g)) == n), \
            g.edge_list()


def test_adjacency_matrix_matches_the_edge_by_edge_fill():
    np = pytest.importorskip("numpy")
    rng = random.Random(70)
    for n in [0, 1, 7, 8, 9, 16, 17] + [rng.randint(2, 70) for _ in range(30)]:
        g = random_graph(rng, n, rng.random())
        ref = np.zeros((n, n))
        for u, v in g.edge_list():
            ref[u, v] = ref[v, u] = 1.0
        a = g.adjacency_matrix()
        assert a.dtype == ref.dtype and a.shape == ref.shape
        assert a.tobytes() == ref.tobytes(), g.edge_list()

"""Spectra, equitable quotients, closed forms, and degree-based bounds."""
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from rigidspec import (
    Graph,
    complete_split_graph,
    complete_split_rho,
    hong_bound,
    linked_cliques,
    linked_cliques_char_poly,
    linked_cliques_rho,
    minimally_rigid_levels,
    parse_graph6,
    spectral_radius,
)
from rigidspec.spectral import _perron_brackets, _spectra
from rigidspec.verify import _fmt_float
from conftest import random_graph
from oracles import (
    algebraic_connectivity,
    brute_max_partition,
    complete_graph,
    cycle_graph,
    edge_lower_bound,
    exceeds_spectral_radius,
    hong_bound_function,
    hong_equality_condition,
    horner,
    is_connected,
    laplacian_matrix,
    linked_cliques_classes,
    max_clique_partition_edges,
    quotient_matrix,
)


def test_spectrum_basics():
    assert abs(spectral_radius(complete_graph(6)) - 5.0) < 1e-10
    assert abs(spectral_radius(cycle_graph(8)) - 2.0) < 1e-10
    assert spectral_radius(Graph(1)) == 0.0
    p3 = Graph(3, [(0, 1), (1, 2)])
    lap = np.linalg.eigvalsh(laplacian_matrix(p3))
    assert np.allclose(lap, [0.0, 1.0, 3.0], atol=1e-10)
    assert abs(algebraic_connectivity(complete_graph(7)) - 7.0) < 1e-10
    assert abs(algebraic_connectivity(Graph(4, [(0, 1), (2, 3)]))) < 1e-10
    with pytest.raises(ValueError):
        spectral_radius(Graph(0))
    with pytest.raises(ValueError):
        algebraic_connectivity(Graph(1))


def test_stacked_spectra_equal_one_eigensolve_per_matrix():
    """rho and mu from the stacked eigensolve are the floats that separate
    eigensolves give, on the benchmark's corpus-small seeds 1-10; a
    disconnected graph's mu is eigensolver noise, and it matches too."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    if not (perfbench / "corpora.py").is_file():
        pytest.skip("no benchmark corpora next to the tests")
    sys.path.insert(0, str(perfbench))
    try:
        import corpora
    finally:
        sys.path.remove(str(perfbench))
    disconnected = 0
    for seed in range(1, 11):
        for item in corpora.corpus_small(seed, 300):
            g = parse_graph6(item.graph6)
            rho, mu = _spectra(g)
            assert rho == spectral_radius(g), item.graph6
            assert mu == algebraic_connectivity(g), item.graph6
            disconnected += not is_connected(g)
    assert disconnected >= 40
    assert _spectra(Graph(1)) == (0.0, None)


def test_radius_between_average_and_max_degree():
    rng = random.Random(41)
    for _ in range(50):
        g = random_graph(rng, rng.randint(3, 10), rng.uniform(0.3, 0.9))
        if not is_connected(g) or g.m == 0:
            continue
        rho = spectral_radius(g)
        assert 2.0 * g.m / g.n - 1e-9 <= rho <= max(g.degrees()) + 1e-9


def _assert_perron_brackets(g):
    """g's Perron brackets start at its degrees, each lies in the one
    before, and the last two-ended one holds the exact radius.  The last is
    a point within a float step of the exact radius, and every bracket
    holds the eigensolver's radius to within 2n float steps: a backward
    stable eigensolver is off by up to about n * eps * rho, and LAPACK's
    is off by up to 10 steps on the minimally rigid graphs of order 8."""
    rho = spectral_radius(g)
    slack = 2 * g.n * math.ulp(rho)
    brackets = list(_perron_brackets(g.adj))
    lo, hi = brackets[0]
    low, top = min(g.degrees()), max(g.degrees())
    assert math.nextafter(low + 1.0, -math.inf) - 1.0 <= lo <= low
    assert top <= hi <= math.nextafter(top + 1.0, math.inf) - 1.0
    for (a, b), (c, d) in zip(brackets, brackets[1:]):
        assert a <= c and d <= b
    for a, b in brackets:
        assert a - slack <= rho <= b + slack
    *wide, (lo, hi) = brackets
    assert lo == hi
    step = math.ulp(lo)
    assert exceeds_spectral_radius(g, lo + step)
    assert not exceeds_spectral_radius(g, lo - step)
    if wide:
        a, b = wide[-1]
        assert exceeds_spectral_radius(g, b)
        assert not exceeds_spectral_radius(g, a)
    else:
        # a regular graph: its degree is its radius
        assert lo == low == top


def test_perron_brackets_on_every_minimally_rigid_graph():
    count = 0
    for _, graphs in minimally_rigid_levels(2, 8):
        for g in graphs:
            _assert_perron_brackets(g)
            count += 1
    assert count == 1 + 1 + 1 + 3 + 13 + 70 + 608


def test_perron_brackets_on_random_connected_graphs():
    rng = random.Random(47)
    checked = 0
    for n in range(1, 15):
        for _ in range(12):
            g = random_graph(rng, n, rng.uniform(0.15, 0.9))
            if is_connected(g):
                _assert_perron_brackets(g)
                checked += 1
    assert checked > 100
    for g in (complete_graph(7), cycle_graph(9), complete_split_graph(11)):
        _assert_perron_brackets(g)


def test_quotient_matrix_equitable_detection():
    cs = complete_split_graph(9)
    q = quotient_matrix(cs, [[0, 1], range(2, 9)])
    assert q.equitable
    assert np.array_equal(q.entries, [[1.0, 7.0], [2.0, 0.0]])
    assert abs(q.leading_eigenvalue() - spectral_radius(cs)) < 1e-10

    p3 = Graph(3, [(0, 1), (1, 2)])
    q2 = quotient_matrix(p3, [[0, 1], [2]])
    assert not q2.equitable


def test_quotient_matrix_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        quotient_matrix(g, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        quotient_matrix(g, [[0, 1]])
    with pytest.raises(ValueError):
        quotient_matrix(g, [[0, 1], [], [2, 3]])


def test_linked_cliques_quotient_is_equitable_and_matches():
    for n, a, links in [(16, 7, 2), (16, 7, 3), (20, 8, 2), (13, 5, 3)]:
        g = linked_cliques(n, a, links)
        q = quotient_matrix(g, linked_cliques_classes(n, a, links))
        assert q.equitable
        assert abs(q.leading_eigenvalue() - spectral_radius(g)) < 1e-10


def test_char_poly_frozen_coefficients():
    poly = linked_cliques_char_poly(16, 7, 2)
    assert poly == (1, -12, 20, 92, 24)
    assert horner(poly, 6) == 0  # 6 is an exact quotient eigenvalue


def test_char_poly_vanishes_on_quotient_spectrum():
    for n, a, links in [(16, 7, 2), (16, 7, 3), (24, 9, 2), (30, 11, 3)]:
        poly = linked_cliques_char_poly(n, a, links)
        q = quotient_matrix(linked_cliques(n, a, links),
                            linked_cliques_classes(n, a, links))
        assert q.equitable
        eigs = np.linalg.eigvals(q.entries)
        scale = max(1.0, float(np.max(np.abs(eigs))) ** 4)
        for lam in eigs:
            assert abs(horner(poly, float(lam.real))) <= 1e-9 * scale
        # trace: coefficient of x^3 is -(n - 4)
        assert poly[1] == -(n - 4)


def test_char_poly_shift_identity_exact():
    # stepping the small-clique size up by one changes the polynomial by
    # exactly (n - 2a - 1) * x * (x + 2); both quotient matrices share the
    # trace n - 4 so the difference can carry no cubic term
    for links in (2, 3):
        for a in range(links + 1, 12):
            for n in range(2 * a + 2, 41):
                pa = linked_cliques_char_poly(n, a, links)
                pb = linked_cliques_char_poly(n, a + 1, links)
                c = n - 2 * a - 1
                diff = tuple(y - x for x, y in zip(pa, pb))
                assert diff == (0, 0, c, 2 * c, 0), (links, a, n)


def test_rho_closed_form_matches_eigensolver_sample():
    for links in (2, 3):
        for a in range(links + 1, 9):
            for n in range(2 * a + 2, 2 * a + 12):
                r = linked_cliques_rho(n, a, links)
                e = spectral_radius(linked_cliques(n, a, links))
                assert abs(r - e) <= 1e-8, (n, a, links)


def test_rho_symmetric_in_clique_swap():
    # the family is unchanged by swapping clique roles, a <-> n - a
    for n, a, links in [(16, 7, 2), (18, 6, 3), (21, 8, 2)]:
        assert abs(
            linked_cliques_rho(n, a, links)
            - linked_cliques_rho(n, n - a, links)
        ) < 1e-10


def test_rho_degenerate_parameters_fall_back():
    # links == small clique size empties one quotient class
    for n, a in [(10, 3), (12, 4)]:
        r = linked_cliques_rho(n, a, a)
        e = spectral_radius(linked_cliques(n, a, a))
        assert abs(r - e) <= 1e-8
    # no links: disconnected pair of cliques
    assert abs(linked_cliques_rho(12, 5, 0) - 6.0) < 1e-10
    with pytest.raises(ValueError):
        linked_cliques_rho(10, 10, 0)
    with pytest.raises(ValueError):
        linked_cliques_rho(10, 4, 5)


def test_rho_falls_back_only_at_equal_cliques():
    # with four nonempty classes, the quartic changes sign on the bracket
    # (n - min(a, n-a) - 2, n - 1] at every cell but a = n/2; there the
    # radius comes from an eigensolve of the graph, which prints the digits
    # of the quotient's leading eigenvalue
    fallbacks = 0
    for links in (2, 3, 4):
        for n in range(2 * links + 2, 201):
            for a in range(links + 1, n - links):
                poly = linked_cliques_char_poly(n, a, links)
                lo = float(n - min(a, n - a) - 2)
                hi = float(n - 1)
                bracket = horner(poly, lo) < 0.0 <= horner(poly, hi)
                assert bracket == (2 * a != n), (n, a, links)
                if not bracket:
                    q = quotient_matrix(linked_cliques(n, a, links),
                                        linked_cliques_classes(n, a, links))
                    assert (_fmt_float(linked_cliques_rho(n, a, links))
                            == _fmt_float(q.leading_eigenvalue())), \
                        (n, a, links)
                    fallbacks += 1
    assert fallbacks == 98 + 97 + 96


def test_rho_frozen_values():
    assert abs(linked_cliques_rho(16, 7, 2) - 8.049448332688990) < 1e-9
    assert abs(linked_cliques_rho(16, 7, 3) - 8.091058444738017) < 1e-9


def test_complete_split_rho_matches_eigensolver():
    for n in range(3, 31):
        assert abs(
            complete_split_rho(n) - spectral_radius(complete_split_graph(n))
        ) <= 1e-10
    with pytest.raises(ValueError):
        complete_split_rho(2)


def test_hong_bound_values_and_validation():
    assert hong_bound(5, 7, 2) == 3.0
    assert abs(hong_bound(9, 36, 8) - 8.0) < 1e-12  # K_9, equality
    with pytest.raises(ValueError):
        hong_bound(5, 7, 0)
    with pytest.raises(ValueError):
        hong_bound(10, 0, 9)  # radicand negative
    with pytest.raises(ValueError):
        hong_bound(4, 7, 2)  # 2m > n(n - 1)
    with pytest.raises(ValueError):
        hong_bound(4, 5, 4)  # delta > n - 1


def test_hong_equality_condition():
    assert hong_equality_condition(complete_graph(7))
    assert hong_equality_condition(cycle_graph(9))
    assert hong_equality_condition(complete_split_graph(11))
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not hong_equality_condition(p4)
    assert not hong_equality_condition(Graph(4, [(0, 1), (2, 3)]))
    # condition characterises equality on these samples
    for g in [complete_graph(7), cycle_graph(9), complete_split_graph(11), p4]:
        gap = hong_bound(g.n, g.m, g.min_degree()) - spectral_radius(g)
        if hong_equality_condition(g):
            assert gap <= 1e-10
        else:
            assert gap > 1e-6


def test_hong_bound_function_monotone():
    rng = random.Random(61)
    for _ in range(40):
        p = rng.randint(4, 40)
        # radicand minimum on [0, p-1] sits at x = p-1; q at least
        # p(3p-4)/8 keeps the whole interval in the domain
        q = rng.randint(-(-(p * (3 * p - 4)) // 8), p * (p - 1) // 2 - 1)
        xs = np.linspace(0, p - 1, 17)
        vals = [hong_bound_function(p, q, float(x)) for x in xs]
        for lo, hi in zip(vals, vals[1:]):
            assert hi < lo, (p, q)
    # at 2q == p(p-1) the function is constant at p - 1
    for p in (4, 9, 17):
        q = p * (p - 1) // 2
        vals = [hong_bound_function(p, q, float(x)) for x in range(p)]
        assert max(vals) - min(vals) <= 1e-9
        assert abs(vals[0] - (p - 1)) <= 1e-9


def test_hong_bound_function_domain():
    with pytest.raises(ValueError):
        hong_bound_function(5, 11, 2.0)  # 2q > p(p-1)
    with pytest.raises(ValueError):
        hong_bound_function(5, 7, 5.0)  # x > p - 1
    with pytest.raises(ValueError):
        hong_bound_function(5, 0, 4.0)  # radicand negative


def test_hong_bound_is_the_degree_function_at_integer_delta(
        connected_labeled_upto6, random_corpus_1000):
    # the same value, or the same domain error, at every delta in 1..n-1
    checked = 0
    for g in connected_labeled_upto6 + random_corpus_1000:
        for delta in range(1, g.n):
            try:
                want = hong_bound_function(g.n, g.m, delta)
            except ValueError:
                with pytest.raises(ValueError):
                    hong_bound(g.n, g.m, delta)
                continue
            assert hong_bound(g.n, g.m, delta) == want, (g.n, g.m, delta)
            checked += 1
    assert checked > 50000


def test_edge_lower_bound_value_and_equivalence():
    assert edge_lower_bound(16, 6) == 57.0
    # in the regime 2n > 3*delta + 3, exceeding the bound is equivalent to
    # the Hong-type value clearing n - delta - 2
    for delta in range(3, 9):
        for n in range(2 * delta + 4, 2 * delta + 10):
            assert 2 * n > 3 * delta + 3
            elb = edge_lower_bound(n, delta)
            for m in range(int(elb) - 3, int(elb) + 5):
                if m < n * delta / 2 or m > n * (n - 1) // 2:
                    continue
                h = hong_bound(n, m, delta)
                assert (m > elb) == (h > n - delta - 2 + 1e-9), (n, delta, m)


def test_edge_lower_bound_equivalence_needs_regime():
    # outside 2n > 3*delta + 3 the squaring step is invalid; the complete
    # graph on 5 vertices breaks the reverse implication
    n, delta, m = 5, 4, 10
    assert 2 * n <= 3 * delta + 3
    assert not m > edge_lower_bound(n, delta)
    assert hong_bound(n, m, delta) > n - delta - 2


def test_max_clique_partition_edges_frozen():
    assert max_clique_partition_edges(10, 3, (2, 3)) == (14, (2, 3, 5))


def test_max_clique_partition_edges_vs_brute():
    rng = random.Random(71)
    for _ in range(40):
        t = rng.choice((3, 4))
        lower = tuple(rng.randint(1, 4) for _ in range(t - 1))
        n = sum(lower) + max(lower) + rng.randint(0, 6)
        value, witness = max_clique_partition_edges(n, t, lower)
        brute_val, brute_multisets = brute_max_partition(
            n, lower + (max(lower),))
        assert value == brute_val, (n, t, lower)
        assert brute_multisets == {tuple(sorted(witness))}, (n, t, lower)


def test_max_clique_partition_edges_validation():
    with pytest.raises(ValueError):
        max_clique_partition_edges(10, 5, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        max_clique_partition_edges(10, 3, (1,))
    with pytest.raises(ValueError):
        max_clique_partition_edges(10, 3, (0, 2))
    with pytest.raises(ValueError):
        max_clique_partition_edges(6, 3, (2, 3))  # free part too small

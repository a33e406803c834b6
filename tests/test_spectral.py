"""Spectra, equitable quotients, closed forms, and degree-based bounds."""
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
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
    parse_graph6,
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
    minimally_rigid_levels,
    quotient_matrix,
    spectral_radius,
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
    """g's Perron brackets start at its degree range widened by a float
    step, each lies in the one before, and the last two-ended one holds
    the exact radius.  The last is a point within a float step of the
    exact radius, and every bracket
    holds the eigensolver's radius to within 2n float steps: a backward
    stable eigensolver is off by up to about n * eps * rho, and LAPACK's
    is off by up to 10 steps on the minimally rigid graphs of order 8."""
    rho = spectral_radius(g)
    slack = 2 * g.n * math.ulp(rho)
    brackets = list(_perron_brackets(g.adj))
    low, top = min(g.degrees()), max(g.degrees())
    if low < top:
        # the first step from the all-ones vector gives the degrees plus 1
        assert brackets[0] == (math.nextafter(low + 1.0, -math.inf) - 1.0,
                               math.nextafter(top + 1.0, math.inf) - 1.0)
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


def test_rho_symmetric_in_clique_swap():
    # the family is unchanged by swapping clique roles, a <-> n - a
    for n, a, links in [(16, 7, 2), (18, 6, 3), (21, 8, 2)]:
        assert abs(
            linked_cliques_rho(n, a, links)
            - linked_cliques_rho(n, n - a, links)
        ) < 1e-10


def test_rho_matches_eigensolver_on_every_small_cell():
    # every cell with n <= 40: no links, an empty quotient class, equal
    # cliques, and links = 1 with |n - 2a| = 1, where the quartic vanishes
    # at the bracket's lower end, beside the bracketed cells
    for n in range(2, 41):
        for a in range(1, n):
            for links in range(min(a, n - a) + 1):
                r = linked_cliques_rho(n, a, links)
                e = spectral_radius(linked_cliques(n, a, links))
                assert abs(r - e) <= 1e-9, (n, a, links)
    assert linked_cliques_rho(12, 5, 0) == 6.0
    with pytest.raises(ValueError):
        linked_cliques_rho(10, 10, 0)
    with pytest.raises(ValueError):
        linked_cliques_rho(10, 4, 5)


def _poly_mul(p, q):
    """The product of two integer polynomials, coefficients leading first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def _char_poly_3(m):
    """det(xI - m) of an integer 3x3 matrix, coefficients leading first."""
    (a, b, c), (d, e, f), (g, h, i) = m
    minors = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return (1, -(a + e + i), minors, -det)


def test_char_poly_factors_where_the_bracket_fails():
    # exact integer identities over every cell with n <= 60: the factors
    # that linked_cliques_rho reads its radius from, and the quartic at the
    # bracket's lower end n - s - 2, which is negative, so the bracket has
    # a strict sign change, unless links = 1 and d = 0
    for n in range(2, 61):
        for a in range(1, n):
            s = min(a, n - a)
            for links in range(s + 1):
                poly = linked_cliques_char_poly(n, a, links)
                if links == 0:
                    assert poly == _poly_mul(
                        _poly_mul((1, 0), (1, 2)),
                        _poly_mul((1, 1 - a), (1, a + 1 - n))), (n, a)
                if 2 * a == n:
                    assert poly == _poly_mul(
                        (1, 1 - a, -links),
                        (1, 3 - a, links - 2 * a + 2)), (n, a, links)
                    continue
                if links == s:
                    # the class rest-of-small is empty
                    m = ((s - 1, 1, 0), (1, s - 1, n - 2 * s),
                         (0, s, n - 2 * s - 1))
                    assert poly == _poly_mul((1, 1), _char_poly_3(m)), \
                        (n, a)
                d = n - 2 * s - 1
                assert horner(poly, n - s - 2) == (
                    -2 * s * d * d - d ** 3 - d * (s * s + links - 1)
                    - links * (links - 1)), (n, a, links)


def _reachable_factor_cells(nmax):
    """The cells (n, a, links) with n < nmax whose radius linked_cliques_rho
    reads off the quartic's factors and that `analyze` can ask for: links
    2 or 3, and equal cliques or a clique of `links` vertices."""
    return sorted({(n, a, links) for links in (2, 3) for n in range(3, nmax)
                   for a in range(links, n - links + 1)
                   if 2 * a == n or a == links or n - a == links})


def test_rho_factor_routes_print_eigensolver_digits():
    cells = _reachable_factor_cells(230)
    assert len(cells) == 1121
    for n, a, links in cells:
        assert (_fmt_float(linked_cliques_rho(n, a, links))
                == _fmt_float(spectral_radius(linked_cliques(n, a, links)))), \
            (n, a, links)


def _taylor(poly, x0):
    """The coefficients of p(x0 + t) in t, leading first, by repeated
    synthetic division: exact for Fractions."""
    c = list(poly)
    for k in range(len(c) - 1):
        for i in range(1, len(c) - k):
            c[i] += c[i - 1] * x0
    return c


def test_rho_factor_routes_round_correctly():
    # the printed value, plus or minus half a unit in its 12th digit,
    # brackets a sign change of the quartic in exact arithmetic, and above
    # the bracket every Taylor coefficient is positive, so no root lies
    # there (Descartes' rule of signs): the print is the largest root
    # correctly rounded
    for n, a, links in _reachable_factor_cells(1001):
        poly = linked_cliques_char_poly(n, a, links)
        text = _fmt_float(linked_cliques_rho(n, a, links))
        half = Fraction(10) ** (Decimal(text).adjusted() - 11) / 2
        mid = Fraction(text)
        assert horner(poly, mid - half) < 0, (n, a, links)
        assert min(_taylor(poly, mid + half)) > 0, (n, a, links)


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

"""Acceptance gate.

One test (or pair of tests) per numbered criterion; each prints a single
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -rA` to see all
lines; the suite-level `-rA` default includes them in the summary.

Criterion 2 has two halves.  The radius half checks the closed-form family
radius against a dense eigensolve.  The coefficient-shift half checks the
exact identity

    poly[a+1] - poly[a] == (n - 2a - 1) * x * (x + 2)

for the characteristic quartics of the 4x4 equitable quotient.  The
criterion once stated the product as (n - 2a - 1) * x * (x + 2)^2, which
cannot hold: both quotient matrices have trace n - 4, so both quartics
carry the same x^3 coefficient -(n - 4) and their difference has no x^3
term, while the squared product does.  The coefficients under test come
from the closed form in `linked_cliques_char_poly`; the test backs them
with det(k*I - Q), computed in exact rational arithmetic at k = 0..4 from
the equitable quotient Q of the graph itself.  Five points fix a monic
quartic, so the identity is checked against an oracle independent of the
closed form.
"""
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rigidspec import (
    complete_split_graph,
    complete_split_rho,
    extremal_family_report,
    hong_bound,
    linked_cliques,
    linked_cliques_char_poly,
    linked_cliques_rho,
    minimally_rigid_levels,
    pebble_rank,
    spectral_radius,
)
from conftest import graph_from_mask, iso_class_representatives, vertex_pairs
from oracles import (
    DEFAULT_RANK_TOL,
    brute_max_partition,
    brute_minimally_rigid,
    brute_sparse_rank,
    canonical_form,
    complete_graph,
    cut_size_law_holds,
    hong_bound_function,
    horner,
    linked_cliques_classes,
    max_clique_partition_edges,
    numeric_rank,
    quotient_matrix,
    random_placement,
)

GRID = [
    (links, a, n)
    for links in (2, 3)
    for a in range(links + 1, 13)
    for n in range(2 * a + 2, 61)
]


def _verdict(num: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'}"
          f"{' - ' if detail else ''}{detail}")


@pytest.fixture(scope="module")
def family_grid_rho():
    return {
        (links, a, n): linked_cliques_rho(n, a, links)
        for links, a, n in GRID
    }


def _stacked_ranks(g, coords):
    """numeric_rank of g at each of a stack of placements, from one stacked
    SVD: coords[k] holds the points of placement k."""
    if g.m == 0:
        return [0] * len(coords)
    ends = np.array(g.edge_list())
    u, v = ends[:, 0], ends[:, 1]
    d = coords[:, u] - coords[:, v]
    rows = np.arange(g.m)
    mats = np.zeros((len(coords), g.m, g.n, 2))
    mats[:, rows, u] = d
    mats[:, rows, v] = -d
    svals = np.linalg.svd(mats.reshape(len(coords), g.m, 2 * g.n),
                          compute_uv=False)
    return (svals > DEFAULT_RANK_TOL * svals[:, :1]).sum(axis=1).tolist()


def test_criterion1_rank_routes_agree(connected_labeled_upto6,
                                      random_corpus_1000):
    """Pebble game, subset-counting oracle, and numeric rank coincide on
    every connected graph with n <= 6 and on 1000 random graphs with
    n <= 12, across 10 placement seeds each.  The 10 placements of a
    graph are ranked in one stacked SVD; seed 0 also goes through
    numeric_rank itself."""
    start = time.time()
    placements = {}  # a placement depends only on n and the seed
    bad = 0
    total = 0
    for g in connected_labeled_upto6 + random_corpus_1000:
        total += 1
        r = pebble_rank(g)
        if brute_sparse_rank(g) != r:
            bad += 1
            continue
        if g.n not in placements:
            placements[g.n] = np.stack([random_placement(g.n, s).coords
                                        for s in range(10)])
        ranks = _stacked_ranks(g, placements[g.n])
        if (any(rank != r for rank in ranks)
                or numeric_rank(g, random_placement(g.n, 0)) != ranks[0]):
            bad += 1
    elapsed = time.time() - start
    ok = bad == 0 and elapsed < 300.0
    _verdict("1", ok,
             f"{total} graphs, {bad} disagreements, {elapsed:.1f}s")
    assert bad == 0
    assert elapsed < 300.0


def test_criterion2_radius_agreement(family_grid_rho):
    """Closed-form family radius matches a dense eigensolve to 1e-8 on the
    whole parameter grid."""
    worst = 0.0
    for (links, a, n), r in family_grid_rho.items():
        e = spectral_radius(linked_cliques(n, a, links))
        worst = max(worst, abs(r - e))
    ok = worst <= 1e-8
    _verdict("2 (radius agreement)", ok,
             f"{len(family_grid_rho)} cells, max |closed - eig| = {worst:.3e}")
    assert ok


def _exact_det(matrix):
    """Determinant by Gaussian elimination over Fractions, with no rounding."""
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, len(m)):
            f = m[r][k] / m[k][k]
            for c in range(k, len(m)):
                m[r][c] -= f * m[k][c]
    return det


def _quotient_char_values(n, a, links):
    """det(k*I - Q) for k = 0..4, Q the 4x4 equitable quotient of
    linked_cliques(n, a, links)."""
    quotient = quotient_matrix(linked_cliques(n, a, links),
                               linked_cliques_classes(n, a, links))
    assert quotient.equitable
    q = quotient.entries
    size = len(q)
    return tuple(
        _exact_det([[(k if i == j else 0) - Fraction(q[i][j])
                     for j in range(size)] for i in range(size)])
        for k in range(5)
    )


def test_criterion2_shift_identity_as_stated():
    """Coefficient identity under a -> a+1: the quartics differ by exactly
    (n-2a-1) * x * (x+2), the coefficient tuple (0, 0, c, 2c, 0) with
    c = n - 2a - 1.

    The criterion once stated (n-2a-1) * x * (x+2)^2 = c(x^3 + 4x^2 + 4x),
    which cannot hold: the x^3 coefficient of each quartic is
    -(trace) = -(n-4) independently of a, so the difference has no cubic
    term.  Before the shift is compared, both quartics are checked against
    det(k*I - Q) at k = 0..4, computed exactly from the graph's equitable
    quotient Q; five points fix a monic quartic, so the coefficients are
    not taken on trust from their closed form.  See the module
    docstring."""
    oracle_mismatches = []
    shift_mismatches = []
    checked = 0
    for links in (2, 3):
        for a in range(links + 1, 12):
            for n in range(2 * a + 4, 61):
                coefficients = []
                for size in (a, a + 1):
                    poly = linked_cliques_char_poly(n, size, links)
                    values = tuple(horner(poly, k) for k in range(5))
                    dets = _quotient_char_values(n, size, links)
                    if values != dets and len(oracle_mismatches) < 3:
                        oracle_mismatches.append(
                            (links, size, n, values, dets))
                    coefficients.append(poly)
                pa, pb = coefficients
                c = n - 2 * a - 1
                expected = (0, 0, c, 2 * c, 0)
                actual = tuple(y - x for x, y in zip(pa, pb))
                checked += 1
                if actual != expected and len(shift_mismatches) < 3:
                    shift_mismatches.append((links, a, n, actual, expected))
    ok = not oracle_mismatches and not shift_mismatches
    detail = (f"{checked} pairs, poly[a+1] - poly[a] == (n-2a-1)*x*(x+2), "
              f"coefficients checked against exact det(kI - Q), k = 0..4")
    if oracle_mismatches:
        detail += f", determinant mismatches {oracle_mismatches}"
    if shift_mismatches:
        detail += f", shift mismatches {shift_mismatches}"
    _verdict("2 (shift identity, stated form)", ok, detail)
    assert not oracle_mismatches, (
        "char poly disagrees with the exact quotient determinant; sample "
        f"(links, a, n, poly(0..4), det(kI - Q)): {oracle_mismatches[0]}"
    )
    assert not shift_mismatches, (
        "coefficient difference is not (n-2a-1) * x * (x+2); sample "
        f"(links, a, n, actual, expected): {shift_mismatches[0]}"
    )


def test_criterion3_radius_decreases_in_clique_size(family_grid_rho):
    """Strict decrease of the family radius as the small clique grows,
    links and order fixed, everywhere on the grid."""
    margins = []
    for (links, a, n), r in family_grid_rho.items():
        nxt = family_grid_rho.get((links, a + 1, n))
        if nxt is not None:
            margins.append(r - nxt)
    min_margin = min(margins)
    ok = min_margin > 1e-9
    _verdict("3", ok,
             f"{len(margins)} adjacent pairs, min margin = {min_margin:.6g}")
    assert ok


def test_criterion4_extremal_minimally_rigid():
    """For 3 <= n <= 8 the enumeration is complete (cross-checked against
    the brute subset-count filter for n <= 6 and frozen class counts for
    n = 7, 8), every member passes the brute definition, and the unique
    radius maximiser is the hub-pair graph at the closed-form value,
    which is exactly 3 when n = 5."""
    expected_counts = [1, 1, 3, 13, 70, 608]
    counts = []
    filter_ok = True
    members_ok = True
    rows_ok = True
    detail = []
    for n in range(3, 9):
        graphs = next(minimally_rigid_levels(n, n))[1]
        counts.append(len(graphs))
        if n <= 6:
            brute_count = sum(
                brute_minimally_rigid(g)
                for g in iso_class_representatives(n, connected_only=True))
            filter_ok = filter_ok and brute_count == len(graphs)
        members_ok = members_ok and all(
            brute_minimally_rigid(g) for g in graphs)
        rhos = [spectral_radius(g) for g in graphs]
        best = max(range(len(graphs)), key=rhos.__getitem__)
        near = [i for i, r in enumerate(rhos) if r > rhos[best] - 1e-9]
        unique = len(near) == 1
        matches = canonical_form(graphs[best]) == canonical_form(
            complete_split_graph(n))
        closed = abs(rhos[best] - complete_split_rho(n)) <= 1e-9
        rows_ok = rows_ok and unique and matches and closed
        detail.append(f"n={n}:{len(graphs)}")
    exact_five = complete_split_rho(5) == 3.0
    ok = (rows_ok and filter_ok and members_ok and exact_five
          and counts == expected_counts)
    _verdict("4", ok, " ".join(detail) + f"; rho(n=5) exact 3: {exact_five}")
    assert counts == expected_counts
    assert filter_ok and members_ok and exact_five
    assert rows_ok


def test_criterion5_extremal_family_properties():
    """Audit of the two-clique graphs for delta in 6..8 over the stated
    order range: degrees, connectivity, both rank routes, the packing
    witness, and the rigid-but-not-redundant / not-globally-rigid facts."""
    oks = []
    rows = 0
    for delta in (6, 7, 8):
        rep = extremal_family_report(delta, 2 * delta + 10, seed=0)
        oks.append(rep["ok"])
        rows += len(rep["rows"])
    ok = all(oks)
    _verdict("5", ok, f"delta 6..8, {rows} orders audited")
    assert ok


def test_criterion6_hong_bound(connected_labeled_upto6, random_corpus_1000):
    """The degree bound dominates the radius corpus-wide (1e-9) and is
    attained within 1e-9 on complete graphs and hub-pair graphs for
    3 <= n <= 30, where for the hub-pair graph it collapses to the same
    closed form as the extremal radius."""
    worst_excess = 0.0
    checked = 0
    for g in connected_labeled_upto6 + random_corpus_1000:
        # the connected graphs skipped here are exactly those with n = 1
        if g.min_degree() < 1:
            continue
        worst_excess = max(
            worst_excess,
            spectral_radius(g) - hong_bound(g.n, g.m, g.min_degree()))
        checked += 1
    worst_equality_gap = 0.0
    worst_reduction_gap = 0.0
    for n in range(3, 31):
        k = complete_graph(n)
        worst_equality_gap = max(
            worst_equality_gap,
            abs(spectral_radius(k) - hong_bound(n, k.m, n - 1)))
        cs = complete_split_graph(n)
        b = hong_bound(n, cs.m, 2)
        worst_equality_gap = max(
            worst_equality_gap, abs(spectral_radius(cs) - b))
        worst_reduction_gap = max(
            worst_reduction_gap, abs(b - complete_split_rho(n)))
    ok = (worst_excess <= 1e-9 and worst_equality_gap <= 1e-9
          and worst_reduction_gap <= 1e-9)
    _verdict("6", ok,
             f"{checked} corpus graphs, max excess {worst_excess:.2e}, "
             f"max equality gap {worst_equality_gap:.2e}, "
             f"max closed-form gap {worst_reduction_gap:.2e}")
    assert ok


def test_criterion7_degree_function_and_partition_max():
    """Closed-form clique-partition maximum equals the brute maximum with
    a matching unique maximising multiset, exhaustively for n <= 20,
    3 or 4 parts, and lower bounds up to 6; plus f(x) > f(x+1) for the
    degree-argument bound on 200 random in-domain triples."""
    part_ok = True
    part_checked = 0
    for t in (3, 4):
        for lower in product(range(1, 7), repeat=t - 1):
            bounds = lower + (max(lower),)
            for n in range(sum(bounds), 21):
                value, witness = max_clique_partition_edges(n, t, lower)
                best, best_sets = brute_max_partition(n, bounds)
                part_checked += 1
                if value != best or best_sets != {tuple(sorted(witness))}:
                    part_ok = False
    rng = random.Random(3001)
    mono_ok = True
    for _ in range(200):
        p = rng.randint(4, 36)
        # q >= p(3p-4)/8 keeps the radicand nonnegative on all of [0, p-1]
        q = rng.randint(-(-(p * (3 * p - 4)) // 8), p * (p - 1) // 2 - 1)
        x = rng.uniform(0.0, p - 2.0)
        if hong_bound_function(p, q, x) <= hong_bound_function(p, q, x + 1):
            mono_ok = False
    ok = mono_ok and part_ok
    _verdict("7", ok,
             f"{part_checked} partition cells exhausted, "
             f"200 monotonicity triples")
    assert ok


def test_criterion8_cut_size_law_universal():
    """Boundary below the minimum degree forces part size above it: checked
    for every graph and proper subset at n <= 5, and for every graph at
    n = 6, 7 by a vectorised sweep cross-validated against the function."""
    bad = 0
    for n in range(2, 6):
        pairs = vertex_pairs(n)
        for mask in range(1 << len(pairs)):
            g = graph_from_mask(n, mask, pairs)
            for sub in range(1, (1 << n) - 1):
                subset = [v for v in range(n) if sub >> v & 1]
                if not cut_size_law_holds(g, subset):
                    bad += 1
    vec_ok = True
    rng = random.Random(3301)
    spot_ok = True
    for n in (6, 7):
        pairs = vertex_pairs(n)
        npairs = len(pairs)
        masks = np.arange(1 << npairs, dtype=np.int64)
        incident = np.zeros(n, dtype=np.int64)
        for k, (u, v) in enumerate(pairs):
            incident[u] |= 1 << k
            incident[v] |= 1 << k
        degs = np.stack([np.bitwise_count(masks & incident[v])
                         for v in range(n)])
        delta = degs.min(axis=0).astype(np.int64)
        violated = np.zeros(len(masks), dtype=bool)
        for sub in range(1, (1 << n) - 1):
            size = int(sub).bit_count()
            cross = sum(
                1 << k for k, (u, v) in enumerate(pairs)
                if (sub >> u & 1) != (sub >> v & 1)
            )
            bnd = np.bitwise_count(masks & cross)
            violated |= (bnd <= delta - 1) & (size <= delta)
        if violated.any():
            vec_ok = False
        # tie the vectorised predicate to the actual function
        for _ in range(40):
            mask = rng.randrange(1 << npairs)
            sub = rng.randrange(1, (1 << n) - 1)
            g = graph_from_mask(n, mask, pairs)
            subset = [v for v in range(n) if sub >> v & 1]
            size = len(subset)
            d = int(delta[mask])
            cross = sum(
                1 << k for k, (u, v) in enumerate(pairs)
                if (sub >> u & 1) != (sub >> v & 1)
            )
            bnd = int(mask & cross).bit_count()
            vec_law = not (bnd <= d - 1 and size <= d)
            if cut_size_law_holds(g, subset) != vec_law:
                spot_ok = False
    ok = bad == 0 and vec_ok and spot_ok
    _verdict("8", ok,
             f"exhaustive n<=5 violations: {bad}; "
             f"vectorised n=6,7 clean: {vec_ok}; spot agreement: {spot_ok}")
    assert ok

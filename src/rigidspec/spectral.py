"""Adjacency/Laplacian spectra, equitable quotients, and the closed-form
spectral quantities of the two-clique and hub-pair extremal families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphcore import Graph, linked_cliques

EIG_TOL = 1e-10


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Eigenvalues of a symmetric graph matrix, ascending."""

    kind: str
    values: np.ndarray

    @property
    def largest(self) -> float:
        return float(self.values[-1])

    @property
    def second_smallest(self) -> float:
        if len(self.values) < 2:
            raise ValueError("need at least 2 eigenvalues")
        return float(self.values[1])


def adjacency_spectrum(g: Graph) -> SymmetricSpectrum:
    if g.n < 1:
        raise ValueError("spectrum needs at least 1 vertex")
    vals = np.linalg.eigvalsh(g.adjacency_matrix())
    return SymmetricSpectrum("adjacency", vals)


def laplacian_spectrum(g: Graph) -> SymmetricSpectrum:
    if g.n < 1:
        raise ValueError("spectrum needs at least 1 vertex")
    vals = np.linalg.eigvalsh(g.laplacian_matrix())
    return SymmetricSpectrum("laplacian", vals)


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue (equals the radius: the matrix is
    symmetric nonnegative)."""
    return adjacency_spectrum(g).largest


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue; positive iff connected."""
    if g.n < 2:
        raise ValueError("algebraic connectivity needs at least 2 vertices")
    return laplacian_spectrum(g).second_smallest


# -- equitable quotients --------------------------------------------------


@dataclass(frozen=True)
class QuotientMatrix:
    """Row-averaged block matrix of a vertex partition.

    `equitable` records whether every vertex of class i has the same number
    of neighbours in class j, for all i, j; in that case the entries are
    exact integers and the leading eigenvalue lifts to the graph.
    """

    classes: tuple[tuple[int, ...], ...]
    entries: np.ndarray
    equitable: bool

    def leading_eigenvalue(self) -> float:
        vals = np.linalg.eigvals(self.entries)
        lead = vals[np.argmax(vals.real)]
        if abs(lead.imag) > 1e-8:
            raise ValueError(f"leading eigenvalue not real: {lead}")
        return float(lead.real)


def quotient_matrix(g: Graph, classes: Sequence[Iterable[int]]) -> QuotientMatrix:
    norm: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for c in classes:
        tc = tuple(sorted(set(c)))
        if not tc:
            raise ValueError("empty class not allowed")
        for v in tc:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two classes")
            seen.add(v)
        norm.append(tc)
    if len(seen) != g.n:
        raise ValueError("classes must cover every vertex")
    k = len(norm)
    entries = np.zeros((k, k))
    equitable = True
    for i, ci in enumerate(norm):
        for j, cj in enumerate(norm):
            cj_set = set(cj)
            counts = [len(g.adj[u] & cj_set) for u in ci]
            if len(set(counts)) > 1:
                equitable = False
            entries[i, j] = sum(counts) / len(ci)
    return QuotientMatrix(tuple(norm), entries, equitable)


# -- two-clique family: closed forms --------------------------------------


@dataclass(frozen=True)
class CharQuartic:
    """Monic integer quartic vanishing at the four quotient eigenvalues of
    the two-clique family with the given parameters.

    `parameters_linked` is False outside the range links >= 2,
    a >= links + 1, n >= 2a + 2 where the downstream monotonicity
    statements are asserted; the polynomial itself is still the exact
    quotient characteristic polynomial whenever all four classes are
    nonempty.
    """

    coefficients: tuple[int, int, int, int, int]
    n: int
    a: int
    links: int
    parameters_linked: bool

    def evaluate(self, x: float) -> float:
        acc = 0.0
        for c in self.coefficients:
            acc = acc * x + c
        return acc

    def evaluate_exact(self, x: int) -> int:
        acc = 0
        for c in self.coefficients:
            acc = acc * x + c
        return acc

    def derivative_value(self, x: float) -> float:
        acc = 0.0
        degree = len(self.coefficients) - 1
        for k, c in enumerate(self.coefficients[:-1]):
            acc = acc * x + (degree - k) * c
        return acc


def linked_cliques_quotient(n: int, a: int, links: int) -> np.ndarray:
    """4x4 quotient over the classes (matched-in-small, rest-of-small,
    matched-in-large, rest-of-large); equitable whenever all are nonempty."""
    i = links
    return np.array(
        [
            [i - 1, a - i, 1, 0],
            [i, a - i - 1, 0, 0],
            [1, 0, i - 1, n - a - i],
            [0, 0, i, n - a - i - 1],
        ],
        dtype=float,
    )


def linked_cliques_char_poly(n: int, a: int, links: int) -> CharQuartic:
    """Exact integer characteristic polynomial of the 4x4 quotient."""
    i = links
    coeffs = (
        1,
        4 - n,
        a * n - a * a - 3 * n + 5,
        2 * (a * n - a * a - i - n + 1),
        -i * i + i * n - 2 * i,
    )
    in_range = i >= 2 and a >= i + 1 and n >= 2 * a + 2
    return CharQuartic(coeffs, n, a, i, in_range)


def linked_cliques_rho(n: int, a: int, links: int) -> float:
    """Spectral radius of the two-clique family.

    Uses the largest quartic root via Newton iteration safeguarded by
    bisection inside the bracket (n - min(a, n-a) - 2, n - 1]; falls back
    to an eigensolve of the 4x4 quotient, or of the graph itself when a
    quotient class is empty.
    """
    if not 1 <= a <= n - 1:
        raise ValueError(f"clique sizes must be positive: n={n}, a={a}")
    if not 0 <= links <= min(a, n - a):
        raise ValueError(f"links out of range for n={n}, a={a}: {links}")
    sizes = (links, a - links, links, n - a - links)
    if links == 0 or any(s < 1 for s in sizes[1::2]):
        return spectral_radius(linked_cliques(n, a, links))
    poly = linked_cliques_char_poly(n, a, links)
    lo = float(n - min(a, n - a) - 2)
    hi = float(n - 1)
    if not (poly.evaluate(lo) < 0.0 <= poly.evaluate(hi)):
        vals = np.linalg.eigvals(linked_cliques_quotient(n, a, links))
        return float(vals.real.max())
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = poly.evaluate(x)
        if fx < 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= 1e-12:
            break
        d = poly.derivative_value(x)
        if d != 0.0:
            step = x - fx / d
            if lo < step < hi:
                x = step
                continue
        x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def complete_split_rho(n: int) -> float:
    """Spectral radius of the hub-pair graph: (1 + sqrt(8n - 15)) / 2."""
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    return 0.5 * (1.0 + math.sqrt(8.0 * n - 15.0))


# -- degree-based radius bounds -------------------------------------------


def hong_bound(n: int, m: int, delta: int) -> float:
    """Hong-type spectral radius upper bound from order, size, min degree."""
    if delta < 1:
        raise ValueError(f"need delta >= 1, got {delta}")
    return hong_bound_function(n, m, delta)


def hong_equality_condition(g: Graph) -> bool:
    """When the Hong-type bound is attained: connected and either regular
    or with every degree equal to the minimum or to n - 1."""
    if g.n < 2:
        raise ValueError("need at least 2 vertices")
    ds = set(g.degrees())
    if not g.is_connected():
        return False
    return len(ds) == 1 or ds == {min(ds), g.n - 1}


def hong_bound_function(p: int, q: int, x: float) -> float:
    """The same bound viewed as a function of the degree argument x, with
    p vertices and q edges fixed.  Decreasing on 0 <= x <= p - 1 provided
    2q <= p(p-1), strictly so iff 2q < p(p-1)."""
    if p < 1 or q < 0:
        raise ValueError(f"need p >= 1, q >= 0: {(p, q)}")
    if not 0 <= x <= p - 1:
        raise ValueError(f"x={x} outside [0, {p - 1}]")
    if 2 * q > p * (p - 1):
        raise ValueError(f"2q={2 * q} exceeds p(p-1)={p * (p - 1)}")
    radicand = 2.0 * q - p * x + (1.0 + x) ** 2 / 4.0
    if radicand < 0.0:
        raise ValueError(f"radicand negative at x={x}")
    return (x - 1.0) / 2.0 + math.sqrt(radicand)


def edge_lower_bound(n: int, delta: int) -> float:
    """Edge count above which the radius condition of the rigidity
    threshold is implied: n^2/2 - (2*delta+3)*n/2 + (delta+1)^2."""
    if n < 1 or delta < 0:
        raise ValueError(f"need n >= 1, delta >= 0: {(n, delta)}")
    return n * n / 2.0 - (2 * delta + 3) * n / 2.0 + (delta + 1) ** 2


def max_clique_partition_edges(
    n: int, num_parts: int, lower: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Maximum of sum-of-binomials over integer part sizes.

    Over n_1 + ... + n_t = n with n_j >= lower[j-1] for j < t and n_t free,
    the sum of C(n_j, 2) is maximised by pinning every bounded part at its
    bound and loading the remainder into the free part: moving a unit onto
    the largest part always gains, since C(x+1,2) - C(x,2) = x grows in x.
    Requires the free part to end up at least as large as every bound.
    """
    if num_parts not in (3, 4):
        raise ValueError(f"num_parts must be 3 or 4, got {num_parts}")
    if len(lower) != num_parts - 1:
        raise ValueError(
            f"expected {num_parts - 1} lower bounds, got {len(lower)}"
        )
    if any(b < 1 for b in lower):
        raise ValueError(f"lower bounds must be >= 1: {lower}")
    rest = n - sum(lower)
    if rest < max(lower):
        raise ValueError(
            f"infeasible: free part {rest} below max bound {max(lower)}"
        )
    witness = tuple(lower) + (rest,)
    value = sum(math.comb(s, 2) for s in witness)
    return value, witness

"""Spectral radius and algebraic connectivity, and the closed-form
spectral quantities of the two-clique and hub-pair extremal families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphcore import Graph, linked_cliques


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue (equals the radius: the matrix is
    symmetric nonnegative)."""
    if g.n < 1:
        raise ValueError("spectrum needs at least 1 vertex")
    return float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])


def _spectra(g: Graph) -> tuple[float, Optional[float]]:
    """The spectral radius and, from 2 vertices on, the algebraic
    connectivity (second-smallest Laplacian eigenvalue) of a graph with at
    least 1 vertex.

    One eigensolve of the adjacency matrix A stacked on the Laplacian
    D - A: LAPACK solves each matrix of a stack on its own, so each value
    is the one an eigensolve of that matrix alone gives.
    """
    a = g.adjacency_matrix()
    vals = np.linalg.eigvalsh(np.stack((a, np.diag(a.sum(axis=1)) - a)))
    return float(vals[0, -1]), float(vals[1, 1]) if g.n >= 2 else None


# -- two-clique family: closed forms --------------------------------------


@dataclass(frozen=True)
class CharQuartic:
    """Monic integer quartic vanishing at the four quotient eigenvalues of
    the two-clique family: the exact quotient characteristic polynomial
    whenever all four classes are nonempty."""

    coefficients: tuple[int, int, int, int, int]

    def evaluate(self, x: int | float) -> int | float:
        """The quartic at x by Horner's rule: exact for an int x, a float
        for a float x."""
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
    return CharQuartic(coeffs)


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
    """Hong-type spectral radius upper bound from order, size, min degree:
    (delta - 1)/2 + sqrt(2m - n delta + (1 + delta)^2 / 4)."""
    if delta < 1:
        raise ValueError(f"need delta >= 1, got {delta}")
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1, m >= 0: {(n, m)}")
    if delta > n - 1:
        raise ValueError(f"delta={delta} outside [1, {n - 1}]")
    if 2 * m > n * (n - 1):
        raise ValueError(f"2m={2 * m} exceeds n(n-1)={n * (n - 1)}")
    radicand = 2.0 * m - n * delta + (1.0 + delta) ** 2 / 4.0
    if radicand < 0.0:
        raise ValueError(f"radicand negative at delta={delta}")
    return (delta - 1.0) / 2.0 + math.sqrt(radicand)

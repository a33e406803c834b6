"""Spectral radius and algebraic connectivity, and the closed-form
spectral quantities of the two-clique and hub-pair extremal families.
"""
from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .graphcore import Graph, _member_table


def _spectra(g: Graph) -> tuple[float, Optional[float]]:
    """The spectral radius and, from 2 vertices on, the algebraic
    connectivity (second-smallest Laplacian eigenvalue) of a graph with at
    least 1 vertex.

    One eigensolve of the adjacency matrix A stacked on the Laplacian
    D - A: LAPACK solves each matrix of a stack on its own, so each value
    is the one an eigensolve of that matrix alone gives.
    """
    import numpy as np

    a = g.adjacency_matrix()
    vals = np.linalg.eigvalsh(np.stack((a, np.diag(a.sum(axis=1)) - a)))
    return float(vals[0, -1]), float(vals[1, 1]) if g.n >= 2 else None


def _perron_brackets(adj: Sequence[int]) -> Iterator[tuple[float, float]]:
    """Ever narrower brackets (lo, hi) of the spectral radius of a connected
    graph on few vertices, given by adjacency masks, ending with lo == hi.

    Exact power iteration of A + I from the all-ones vector: the least and
    the greatest ratio (x_{k+1})_v / (x_k)_v bracket rho + 1, the first at
    the degrees plus 1 (Collatz-Wielandt; Wielandt 1950), and close on it,
    as A + I is primitive.  Each end is rounded, then widened by a float
    step; the last bracket is the point rho + 1 rounded, less 1 exactly.
    """
    table = _member_table(len(adj))
    nbrs = [table[a] for a in adj]
    x = [1] * len(adj)
    y = [a.bit_count() + 1 for a in adj]
    while True:
        ratios = [a / b for a, b in zip(y, x)]
        lo, hi = min(ratios), max(ratios)
        if lo == hi:
            yield lo - 1.0, hi - 1.0
            return
        yield (math.nextafter(lo, -math.inf) - 1.0,
               math.nextafter(hi, math.inf) - 1.0)
        x, y = y, [yv + sum(map(y.__getitem__, nb))
                   for yv, nb in zip(y, nbrs)]


# -- two-clique family: closed forms --------------------------------------


def linked_cliques_char_poly(n: int, a: int, links: int
                             ) -> tuple[int, int, int, int, int]:
    """Coefficients, leading first, of the exact integer characteristic
    polynomial of the family's 4x4 quotient over the classes
    (matched-in-small, rest-of-small, matched-in-large, rest-of-large),
    which is equitable whenever all four are nonempty; with one class
    empty it is (x + 1) times the characteristic cubic of the other three."""
    i = links
    return (
        1,
        4 - n,
        a * n - a * a - 3 * n + 5,
        2 * (a * n - a * a - i - n + 1),
        -i * i + i * n - 2 * i,
    )


def linked_cliques_rho(n: int, a: int, links: int) -> float:
    """Spectral radius of the two-clique family.

    The largest quartic root, by Newton iteration safeguarded by bisection
    inside the bracket (n - min(a, n-a) - 2, n - 1].  Where that fails,
    the quartic's factors give the root: max(a, n-a) - 1 with no links,
    the larger root of x^2 - (a-1)x - links at equal cliques, else Newton
    from n - 1 down, which falls monotonically onto the largest (real) root.
    """
    if not 1 <= a <= n - 1:
        raise ValueError(f"clique sizes must be positive: n={n}, a={a}")
    if not 0 <= links <= min(a, n - a):
        raise ValueError(f"links out of range for n={n}, a={a}: {links}")
    if links == 0:
        return float(max(a, n - a) - 1)
    if 2 * a == n:
        return 0.5 * (a - 1 + math.sqrt((a - 1) ** 2 + 4 * links))
    _, c1, c2, c3, c4 = linked_cliques_char_poly(n, a, links)

    def quartic(x: float) -> float:
        # Horner's rule
        return (((x + c1) * x + c2) * x + c3) * x + c4

    lo = float(n - min(a, n - a) - 2)
    hi = float(n - 1)
    if not (links < min(a, n - a) and quartic(lo) < 0.0 <= quartic(hi)):
        x = hi
        while (step := x - quartic(x) / (
                ((4.0 * x + 3 * c1) * x + 2 * c2) * x + c3)) < x:
            x = step
        return x
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = quartic(x)
        if fx < 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= 1e-12:
            break
        d = ((4.0 * x + 3 * c1) * x + 2 * c2) * x + c3
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

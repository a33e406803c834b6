"""Report assembly and consistency checking for graph corpora.

Builds one flat report per graph (spectral quantities, rigidity verdict,
threshold-condition flags), serialises reports deterministically, and
drives the sweep jobs exposed by the command line.
"""
from __future__ import annotations

import json
import math
import os
from functools import cache, lru_cache, partial
from itertools import chain, islice
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from .graphcore import (
    Graph,
    Graph6Error,
    _adjacency_bits,
    _members,
    iter_graph6_lines,
    linked_cliques,
    parse_graph6,
    vertex_connectivity,
    write_graph6,
)
from .oracle import exact_rank, packing_violation_search
from .rigidity import (
    RigidityVerdict,
    _canonical_rows,
    _graph_from_rows,
    _minimally_rigid_levels,
    pebble_rank,
    rigidity_verdict,
)
from .spectral import (
    _perron_brackets,
    _spectra,
    complete_split_rho,
    hong_bound,
    linked_cliques_rho,
)

REPORT_TOL = 1e-9

REPORT_KEYS = (
    "graph6",
    "n",
    "m",
    "min_degree",
    "vertex_connectivity",
    "rho",
    "algebraic_connectivity",
    "hong_bound",
    "rigidity",
    "rigid_condition_applicable",
    "rigid_condition_consistent",
    "global_condition_applicable",
    "global_condition_consistent",
    "rho_threshold_rigid",
    "rho_threshold_global",
)

RIGIDITY_KEYS = RigidityVerdict._fields


@cache
def _threshold(n: int, delta: int, links: int) -> Optional[float]:
    """The two-clique radius rho(linked_cliques(n, delta + 1, links)), or
    None outside the family.  Cached: a corpus holds few distinct
    (n, delta) pairs."""
    try:
        return linked_cliques_rho(n, delta + 1, links)
    except ValueError:
        return None


def _isomorphic_to_family(g: Graph, links: int) -> bool:
    """Whether g is linked_cliques(n, delta + 1, links), delta = min degree.

    Exact when delta >= 6, n >= 2*delta + 4 and links <= 3, as on the report
    path: every minimum-degree vertex u0 of the family then lies in the small
    clique off the links, so that clique is N[u0]."""
    degs = g.degrees()
    u0 = degs.index(min(degs))
    small = g.adj[u0] | 1 << u0
    cross = 0
    for part in (small, ((1 << g.n) - 1) ^ small):
        size = part.bit_count()
        for v in _members(part):
            out = (g.adj[v] & ~part).bit_count()
            if out > 1 or degs[v] - out != size - 1:
                return False
            cross += out
    return cross == 2 * links


def _is_hub_pair(g: Graph) -> bool:
    """Whether g is complete_split_graph(n): for n >= 3, two vertices of
    degree n-1 and n-2 of degree 2 force K2 joined to an independent set."""
    return sorted(g.degrees()) == [2] * (g.n - 2) + [g.n - 1, g.n - 1]


def analyze_graph(g: Graph, graph6: Optional[str] = None,
                  tol: float = REPORT_TOL) -> dict:
    """Full per-graph report with threshold-condition consistency flags.

    The two flag pairs encode: whenever connectivity, minimum degree,
    order, and spectral radius clear the stated thresholds, the graph must
    be (globally) rigid or be the matching two-clique extremal graph; a
    False `*_consistent` field marks a counterexample.
    """
    n, m = g.n, g.m
    delta = g.min_degree()
    kappa = vertex_connectivity(g)
    rho, mu = _spectra(g)
    hb = hong_bound(n, m, delta) if delta >= 1 else None
    verdict = rigidity_verdict(g, kappa=kappa)
    thr_r = _threshold(n, delta, 2)
    thr_g = _threshold(n, delta, 3)

    app_r = kappa >= 2 and delta >= 6 and n >= 2 * delta + 4
    cons_r = True
    if app_r and thr_r is not None and rho >= thr_r - tol:
        cons_r = verdict.rigid or _isomorphic_to_family(g, 2)

    app_g = kappa >= 3 and delta >= 6 and n >= 2 * delta + 4
    cons_g = True
    if app_g and thr_g is not None and rho >= thr_g - tol:
        cons_g = verdict.globally_rigid or _isomorphic_to_family(g, 3)

    return {
        "graph6": graph6 if graph6 is not None else write_graph6(g),
        "n": n,
        "m": m,
        "min_degree": delta,
        "vertex_connectivity": kappa,
        "rho": rho,
        "algebraic_connectivity": mu,
        "hong_bound": hb,
        "rigidity": verdict._asdict(),
        "rigid_condition_applicable": app_r,
        "rigid_condition_consistent": cons_r,
        "global_condition_applicable": app_g,
        "global_condition_consistent": cons_g,
        "rho_threshold_rigid": thr_r,
        "rho_threshold_global": thr_g,
    }


def report_is_consistent(report: dict) -> bool:
    return bool(
        report["rigid_condition_consistent"]
        and report["global_condition_consistent"]
    )


# -- deterministic serialisation ------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value in report: {x}")
    if x == 0.0:
        return "0"
    return format(x, ".12g")


@lru_cache(maxsize=1024)
def _encoded_key(key: str) -> str:
    """A dict key as json_stable writes it, with its colon: reports repeat
    a few dozen keys."""
    return json.dumps(key) + ":"


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(_encoded_key(str(k)))
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def json_stable(obj) -> str:
    """Compact JSON with insertion-order keys and floats at 12 significant
    digits, so equal reports serialise to identical bytes."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


# the JSON keys in order, with the rigidity verdict spread over its fields
CSV_COLUMNS = tuple(
    c for k in REPORT_KEYS
    for c in ([f"rigidity_{rk}" for rk in RIGIDITY_KEYS]
              if k == "rigidity" else [k])
)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return v if isinstance(v, str) else json_stable(v)


def write_csv(out: TextIO, columns: Sequence[str],
              rows: Iterable[dict]) -> None:
    """Write a header of `columns` to `out`, then each row as it comes;
    cells as json_stable writes them (lowercase booleans, floats at 12
    significant digits), None empty."""
    # imported here: only CSV output needs the module
    import csv

    w = csv.writer(out, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow([_csv_cell(r[c]) for c in columns])


def flatten_report(report: dict) -> dict:
    """A report with its rigidity verdict spread over rigidity_* keys, the
    row that CSV_COLUMNS reads."""
    return {**report, **{f"rigidity_{k}": v
                         for k, v in report["rigidity"].items()}}


# -- corpus analysis ------------------------------------------------------

# corpus lines per task handed to a worker when analysing with --jobs > 1
CHUNK = 8


def _analyze_line(item: tuple[int, bytes], tol: float):
    """(report, None) for one (line number, raw line) of a corpus, or
    (None, "line N: ...")."""
    lineno, raw = item
    try:
        # str.strip also drops \x1c-\x1f, as reading the corpus as text did
        text = raw.decode("ascii").strip()
        g = parse_graph6(text)
        if g.n < 1:
            raise Graph6Error("empty graph not supported in reports")
        return analyze_graph(g, graph6=text, tol=tol), None
    except UnicodeDecodeError as exc:
        return None, (f"line {lineno}: non-ascii byte 0x{raw[exc.start]:02x}"
                      f" at position {exc.start}")
    except ValueError as exc:
        return None, f"line {lineno}: {exc}"


def analyze_lines(
    lines: Iterable[bytes], tol: float = REPORT_TOL, jobs: int = 1
) -> Iterator[tuple[Optional[dict], Optional[str]]]:
    """Yield (report, None) or (None, "line N: ...") for each nonblank line
    of a graph6 corpus of raw byte lines, in input order, as soon as that
    line is done.  The lines are read lazily at any job count; k graphs
    start at most min(k, jobs, CPUs) workers, and closing the generator
    stops them."""
    items = iter_graph6_lines(lines)
    head = list(islice(items, min(jobs, os.cpu_count() or 1)))
    analyze = partial(_analyze_line, tol=tol)
    if len(head) <= 1:
        yield from map(analyze, chain(head, items))
        return
    # imported here: loading the process pool would slow the start-up of
    # every serial run
    from multiprocessing import Pool

    # leaving the block terminates the workers, also when the reader closes
    # the generator early
    with Pool(len(head)) as pool:
        yield from pool.imap(analyze, chain(head, items), chunksize=CHUNK)


# -- sweep drivers --------------------------------------------------------


def laman_extremal_report(nmin: int, nmax: int) -> dict:
    """Grow the minimally rigid graphs once and compare each order's maximum
    spectral radius with the hub-pair closed form (1 + sqrt(8n-15))/2."""
    if not 3 <= nmin <= nmax <= 9:
        raise ValueError(f"need 3 <= nmin <= nmax <= 9, got {(nmin, nmax)}")
    rows = []
    ok = True
    for n, level in _minimally_rigid_levels(nmin, nmax):
        # Perron brackets, in growth order, which puts the hub-pair graph
        # first; a bracket 2 * REPORT_TOL below a radius holds neither the
        # maximum nor a radius within REPORT_TOL of it
        rhos = {}
        floor = -math.inf
        for i, (adj, _) in enumerate(level):
            for lo, hi in _perron_brackets(adj):
                if hi < floor:
                    break
            else:
                rhos[i] = lo
                floor = max(floor, lo - 2 * REPORT_TOL)
        peak = max(rhos.values())
        # only the maximisers are labelled; at one order, rows order is
        # graph6 order, as both compare the upper-triangle bit strings
        best = _graph_from_rows(min(_canonical_rows(*level[i])
                                    for i, r in rhos.items() if r == peak))
        expected = complete_split_rho(n)
        unique = sum(r > peak - REPORT_TOL for r in rhos.values()) == 1
        matches = _is_hub_pair(best)
        closed_ok = abs(peak - expected) <= REPORT_TOL
        row_ok = unique and matches and closed_ok
        ok = ok and row_ok
        rows.append(
            {
                "n": n,
                "count": len(level),
                "max_rho": peak,
                "expected_rho": expected,
                "argmax_graph6": write_graph6(best),
                "argmax_is_hub_pair": matches,
                "unique_argmax": unique,
                "ok": row_ok,
            }
        )
    return {"job": "laman-extremal", "nmin": nmin, "nmax": nmax,
            "rows": rows, "ok": ok}


def family_sweep_report(links: int, amin: int, amax: int, nmax: int) -> dict:
    """Sweep the two-clique family: closed-form radius vs eigensolver, and
    strict decrease in the small-clique size at fixed order.

    linked_cliques(n, a, links) is the subgraph of linked_cliques(nmax, a,
    links) induced on 0..n-1 (small clique first, then the large one, links
    (j, a + j)), so each clique size builds one adjacency matrix, and the
    cells of one order eigensolve the leading n x n blocks in one stack:
    LAPACK solves each matrix of a stack on its own, so each value is the
    one an eigensolve of that cell's graph alone gives."""
    if links < 2:
        raise ValueError(f"links must be >= 2, got {links}")
    if amin < links + 1:
        raise ValueError(f"amin must be >= links + 1, got {amin}")
    if amax < amin:
        raise ValueError(f"need amax >= amin, got {(amin, amax)}")
    if nmax < 2 * amin + 2:
        raise ValueError(f"nmax must be >= {2 * amin + 2}, got {nmax}")
    import numpy as np

    rho = {}
    max_dev = 0.0
    cells = 0
    # a clique size whose first order 2a + 2 exceeds nmax has no cells
    sizes = range(amin, min(amax, nmax // 2 - 1) + 1)
    mats = _adjacency_bits([linked_cliques(nmax, a, links).adj
                            for a in sizes], nmax).astype(float)
    for n in range(2 * amin + 2, nmax + 1):
        # the clique sizes with a cell at order n, 2a + 2 <= n, come first
        group = sizes[:(n - 2) // 2 - amin + 1]
        tops = np.linalg.eigvalsh(mats[:len(group), :n, :n])[:, -1]
        for a, e in zip(group, tops.tolist()):
            r = linked_cliques_rho(n, a, links)
            rho[(a, n)] = r
            max_dev = max(max_dev, abs(r - e))
            cells += 1
    min_margin = math.inf
    pairs = 0
    for (a, n), r in rho.items():
        nxt = rho.get((a + 1, n))
        if nxt is not None:
            min_margin = min(min_margin, r - nxt)
            pairs += 1
    agreement_ok = max_dev <= 1e-8
    monotone_ok = pairs > 0 and min_margin > REPORT_TOL
    return {
        "job": "family-sweep",
        "links": links,
        "amin": amin,
        "amax": amax,
        "nmax": nmax,
        "cells": cells,
        "max_closed_form_deviation": max_dev,
        "comparable_pairs": pairs,
        "min_decrease_margin": (None if math.isinf(min_margin) else min_margin),
        "agreement_ok": agreement_ok,
        "monotone_ok": monotone_ok,
        "ok": agreement_ok and monotone_ok,
    }


def extremal_family_report(delta: int, nmax: int, seed: int) -> dict:
    """Structural audit of the two-clique extremal graphs for a minimum
    degree: connectivity, rank (by the pebble game and exactly modulo a
    prime at a seeded integer placement), and the
    packing-inequality witness for the 2-link member."""
    if delta < 6:
        raise ValueError(f"delta must be >= 6, got {delta}")
    if nmax < 2 * delta + 4:
        raise ValueError(f"nmax must be >= {2 * delta + 4}, got {nmax}")
    rows = []
    ok = True
    a = delta + 1
    small = (1 << a) - 1
    for n in range(2 * delta + 4, nmax + 1):
        b2 = linked_cliques(n, a, 2)
        b3 = linked_cliques(n, a, 3)
        witness = packing_violation_search(b2)
        full = (1 << n) - 1
        kappa3 = vertex_connectivity(b3)
        v3 = rigidity_verdict(b3, kappa=kappa3)
        checks = {
            "b2_min_degree": b2.min_degree() == delta,
            "b2_connectivity": vertex_connectivity(b2) == 2,
            "b2_rank": pebble_rank(b2) == 2 * n - 4,
            "b2_numeric_rank": exact_rank(b2, seed) == 2 * n - 4,
            "b2_witness": (witness is not None
                           and set(witness) == {small, full ^ small}),
            "b3_min_degree": b3.min_degree() == delta,
            "b3_connectivity": kappa3 == 3,
            "b3_rank": v3.rank == 2 * n - 3,
            "b3_numeric_rank": exact_rank(b3, seed) == 2 * n - 3,
            "b3_no_witness": packing_violation_search(b3) is None,
            "b3_rigid_not_redundant": not v3.redundantly_rigid,
            "b3_not_globally_rigid": not v3.globally_rigid,
        }
        row_ok = all(checks.values())
        ok = ok and row_ok
        rows.append({"n": n, **checks, "ok": row_ok})
    return {"job": "extremal", "delta": delta, "nmax": nmax, "seed": seed,
            "rows": rows, "ok": ok}

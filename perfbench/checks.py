"""Independent correctness checks of `rigidspec` output.

Nothing here calls the program.  Ranks come from the benchmark's own
rigidity matrix at a seeded generic placement, connectivity from networkx,
spectra from `numpy.linalg.eigvalsh` on matrices built here, and facts
known from how each corpus graph was built are checked as well.
"""
from __future__ import annotations

import json
import math
from itertools import combinations
from typing import Optional

import networkx as nx
import numpy as np

from corpora import Item, linked_cliques_edges

TOL = 1e-9
PRIME = 2_147_483_647  # 2**31 - 1: products of two residues fit in int64


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def rigidity_facts(n: int, edges, seed: int) -> tuple[int, int]:
    """(rank, coloops) of the rigidity matrix at a seeded random placement.

    The arithmetic is exact, modulo the prime PRIME, with integer
    coordinates drawn below it; a placement is generic except with
    probability about m / PRIME.  Deleting edge e lowers the rank exactly
    when no dependency among the rows involves row e.  The dependencies
    are the null space of the transposed matrix, read off its reduced row
    echelon form: row e is a coloop when it is a pivot column whose pivot
    row is zero on every free column.  So one elimination gives the rank
    with each edge deleted.  (Floating-point leverage scores misjudge
    edges of long circuits in the sparse corpus, whose stresses are tiny.)
    """
    m = len(edges)
    if not m:
        return 0, 0
    pos = np.random.default_rng(seed).integers(0, PRIME, size=(n, 2))
    mat = np.zeros((2 * n, m), dtype=np.int64)
    for c, (u, v) in enumerate(edges):
        d = (pos[u] - pos[v]) % PRIME
        mat[2 * u:2 * u + 2, c] = d
        mat[2 * v:2 * v + 2, c] = (-d) % PRIME
    pivots = []
    row = 0
    for c in range(m):
        if row == 2 * n:
            break
        nz = np.flatnonzero(mat[row:, c])
        if not nz.size:
            continue
        r = row + int(nz[0])
        mat[[row, r]] = mat[[r, row]]
        mat[row] = mat[row] * pow(int(mat[row, c]), PRIME - 2, PRIME) % PRIME
        col = mat[:, c].copy()
        col[row] = 0
        mat = (mat - np.outer(col, mat[row])) % PRIME
        pivots.append(c)
        row += 1
    free = np.ones(m, dtype=bool)
    free[pivots] = False
    rank = len(pivots)
    coloops = int(np.sum(~mat[:rank][:, free].any(axis=1)))
    return rank, coloops


def is_two_clique_family(n: int, edges, links: int) -> bool:
    """Structural test for linked_cliques(n, delta+1, links) when
    n >= 2*delta + 4: a minimum-degree vertex v then lies in the small
    clique off the links, so the small clique is N[v]."""
    adj = [set() for _ in range(n)]
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    v = min(range(n), key=lambda x: len(adj[x]))
    small = adj[v] | {v}
    big = set(range(n)) - small
    if not small or not big:
        return False
    for part in (small, big):
        if any(w not in adj[u] for u, w in combinations(sorted(part), 2)):
            return False
    cut = [(u, w) for u, w in edges if (u in small) != (w in small)]
    ends = [x for e in cut for x in e]
    return len(cut) == links and len(set(ends)) == 2 * links


def expected_report(item: Item, seed: int) -> dict:
    """The report fields as the benchmark computes them itself."""
    n, edges = item.n, list(item.edges)
    m = len(edges)
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    delta = min(deg)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    kappa = nx.node_connectivity(g) if n >= 2 else 0
    rho = float(np.linalg.eigvalsh(adjacency(n, edges))[-1])
    mu = None
    if n >= 2:
        lap = np.diag(np.array(deg, dtype=float)) - adjacency(n, edges)
        mu = float(np.linalg.eigvalsh(lap)[1])
    hong = None
    if delta >= 1:
        hong = (delta - 1) / 2 + math.sqrt(2 * m - n * delta
                                           + (delta + 1) ** 2 / 4)
    rank, coloops = rigidity_facts(n, edges, seed)
    rigid = rank == max(0, 2 * n - 3)
    redundant = n == 1 or (rigid and coloops == 0)
    if n == 1:
        glob = True
    elif n <= 3:
        glob = m == n * (n - 1) // 2
    else:
        glob = kappa >= 3 and redundant

    def threshold(links: int) -> Optional[float]:
        a = delta + 1
        if not 1 <= a <= n - 1 or links > min(a, n - a):
            return None
        lc = adjacency(n, linked_cliques_edges(n, a, links))
        return float(np.linalg.eigvalsh(lc)[-1])

    flags = {}
    for key, links, holds, need in (("rigid", 2, rigid, 2),
                                    ("global", 3, glob, 3)):
        thr = threshold(links)
        app = kappa >= need and delta >= 6 and n >= 2 * delta + 4
        cons = True
        if app and thr is not None and rho >= thr - TOL:
            cons = holds or is_two_clique_family(n, edges, links)
        flags[key] = (app, cons, thr)
    return {
        "graph6": item.graph6,
        "n": n,
        "m": m,
        "min_degree": delta,
        "vertex_connectivity": kappa,
        "rho": rho,
        "algebraic_connectivity": mu,
        "hong_bound": hong,
        "rigidity": {
            "rank": rank,
            "rigid": rigid,
            "minimally_rigid": m == 2 * n - 3 and rank == m,
            "redundantly_rigid": redundant,
            "globally_rigid": glob,
        },
        "rigid_condition_applicable": flags["rigid"][0],
        "rigid_condition_consistent": flags["rigid"][1],
        "global_condition_applicable": flags["global"][0],
        "global_condition_consistent": flags["global"][1],
        "rho_threshold_rigid": flags["rigid"][2],
        "rho_threshold_global": flags["global"][2],
    }


def _known_problems(item: Item, exp: dict) -> list[str]:
    """Facts from construction must hold in the benchmark's own answers."""
    known = item.known
    out = []
    if "rank" in known and exp["rigidity"]["rank"] != known["rank"]:
        out.append(f"rank {exp['rigidity']['rank']} != built {known['rank']}")
    if "kappa" in known and exp["vertex_connectivity"] != known["kappa"]:
        out.append("connectivity differs from construction")
    if known.get("rigid") and not exp["rigidity"]["rigid"]:
        out.append("built rigid but found flexible")
    if known.get("minimally_rigid") and not exp["rigidity"]["minimally_rigid"]:
        out.append("built minimally rigid but not found so")
    if "family" in known:
        _, links = known["family"]
        if not is_two_clique_family(item.n, item.edges, links):
            out.append("family member fails the structural test")
    return out


def _differs(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return abs(got - want) > TOL * max(1.0, abs(want))
    return got != want


def check_corpus_output(items: list[Item], stdout: str, returncode: int,
                        seed: int) -> tuple[int, list[str]]:
    """Compare `analyze` stdout line by line with the expected reports.

    Returns (failed graph count, problem descriptions).  A graph fails on
    a missing or unparsable line, any field that differs, or a construction
    fact that does not hold.  A wrong exit code fails every graph.
    """
    lines = stdout.splitlines()
    problems: list[str] = []
    failed = 0
    any_inconsistent = False
    for i, item in enumerate(items):
        exp = expected_report(item, seed)
        any_inconsistent |= not (exp["rigid_condition_consistent"]
                                 and exp["global_condition_consistent"])
        bad = _known_problems(item, exp)
        if i >= len(lines):
            bad.append("no report")
        else:
            try:
                got = json.loads(lines[i])
            except json.JSONDecodeError as exc:
                got = None
                bad.append(f"unparsable report: {exc}")
            if got is not None:
                if list(got) != list(exp):
                    bad.append(f"keys {list(got)}")
                for key, want in exp.items():
                    have = got.get(key)
                    pairs = (want.items() if isinstance(want, dict)
                             else [(None, want)])
                    for sub, w in pairs:
                        h = have.get(sub) if sub and isinstance(have, dict) \
                            else have
                        if _differs(h, w):
                            name = f"{key}.{sub}" if sub else key
                            bad.append(f"{name}: got {h!r}, expected {w!r}")
        if bad:
            failed += 1
            problems.append(f"graph {i} ({item.graph6}): " + "; ".join(bad))
    if len(lines) != len(items):
        problems.append(f"{len(lines)} report lines for {len(items)} graphs")
    want_rc = 1 if any_inconsistent else 0
    if returncode != want_rc:
        problems.append(f"exit code {returncode}, expected {want_rc}")
        failed = len(items)
    return failed, problems


def sweep_rows(report: dict) -> list[dict]:
    """The items of a sweep report: its rows, or the report itself for a
    sweep without rows."""
    return report.get("rows") or [report]


def check_sweep_output(stdout: str, returncode: int,
                       digest: Optional[str], want_digest: Optional[str],
                       expected_rows: int) -> tuple[int, int, list[str]]:
    """(items, failed items, problems) for one sweep invocation: exit 0,
    `"ok": true` on the report and every row, and the recorded digest."""
    problems = []
    try:
        report = json.loads(stdout)
        rows = sweep_rows(report)
    except (json.JSONDecodeError, AttributeError) as exc:
        return expected_rows, expected_rows, [f"unparsable report: {exc}"]
    failed = sum(1 for r in rows if r.get("ok") is not True)
    if failed:
        problems.append(f"{failed} rows not ok")
    if report.get("ok") is not True:
        problems.append("report not ok")
        failed = len(rows)
    if returncode != 0:
        problems.append(f"exit code {returncode}")
        failed = len(rows)
    if want_digest is not None and digest != want_digest:
        problems.append(f"stdout sha256 {digest} != recorded {want_digest}")
        failed = len(rows)
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
        failed = max(failed, expected_rows)
    return max(len(rows), expected_rows), failed, problems

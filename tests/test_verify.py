"""Report assembly, deterministic serialisation, corpus analysis, CLI."""
import argparse
import csv
import itertools
import io
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from rigidspec import (
    Graph,
    analyze_graph,
    analyze_lines,
    complete_split_graph,
    complete_split_rho,
    extremal_family_report,
    family_sweep_report,
    flatten_report,
    hong_bound,
    json_stable,
    laman_extremal_report,
    linked_cliques,
    minimally_rigid_levels,
    report_is_consistent,
    spectral_radius,
    write_csv,
    write_graph6,
)
import rigidspec
from rigidspec.cli import _build_parser, main as cli_main
from rigidspec.spectral import linked_cliques_rho
from rigidspec.verify import (
    CSV_COLUMNS,
    REPORT_KEYS,
    _is_hub_pair,
    _isomorphic_to_family,
    _threshold,
)
from conftest import random_graph
from oracles import (
    canonical_form,
    complete_graph,
    cycle_graph,
    with_edge,
    without_edge,
)


def test_report_key_order_and_values():
    r = analyze_graph(complete_graph(5))
    assert tuple(r.keys()) == REPORT_KEYS
    assert r["n"] == 5 and r["m"] == 10
    assert r["min_degree"] == 4 and r["vertex_connectivity"] == 4
    assert abs(r["rho"] - 4.0) < 1e-10
    assert abs(r["algebraic_connectivity"] - 5.0) < 1e-10
    assert abs(r["hong_bound"] - 4.0) < 1e-10
    assert r["rigidity"] == {
        "rank": 7, "rigid": True, "minimally_rigid": False,
        "redundantly_rigid": True, "globally_rigid": True,
    }
    assert r["rho_threshold_rigid"] is None  # family needs a second clique
    assert report_is_consistent(r)


def test_report_nullable_fields():
    r1 = analyze_graph(Graph(1))
    assert r1["algebraic_connectivity"] is None
    assert r1["hong_bound"] is None
    assert r1["vertex_connectivity"] == 0
    assert r1["rigidity"]["rigid"] is True
    r2 = analyze_graph(Graph(3))
    assert r2["min_degree"] == 0 and r2["hong_bound"] is None
    assert not r2["rigidity"]["rigid"]


def test_report_flags_on_extremal_graphs():
    b2 = analyze_graph(linked_cliques(16, 7, 2))
    assert b2["rigid_condition_applicable"]
    assert b2["rigid_condition_consistent"]  # saved by the isomorphism clause
    assert not b2["rigidity"]["rigid"]
    assert not b2["global_condition_applicable"]  # only 2-connected
    assert abs(b2["rho"] - b2["rho_threshold_rigid"]) < 1e-9

    b3 = analyze_graph(linked_cliques(16, 7, 3))
    assert b3["global_condition_applicable"]
    assert b3["global_condition_consistent"]
    assert not b3["rigidity"]["globally_rigid"]
    assert abs(b3["rho"] - b3["rho_threshold_global"]) < 1e-9


def test_report_flag_failure_path_reachable():
    # widening the tolerance makes a near-threshold non-rigid graph that is
    # not the extremal family trip the consistency flag
    g = without_edge(linked_cliques(16, 7, 2), 9, 10)
    strict = analyze_graph(g)
    assert report_is_consistent(strict)
    loose = analyze_graph(g, tol=1.0)
    assert loose["rigid_condition_applicable"]
    assert not loose["rigid_condition_consistent"]
    assert not report_is_consistent(loose)


def _family_oracle_graph(rng):
    """A relabelled two-clique family member or a near miss, built around
    linked_cliques(n, delta + 1, links) with delta in 6..9 and
    2*delta + 4 <= n <= 2*delta + 14."""
    delta = rng.randint(6, 9)
    n = rng.randint(2 * delta + 4, 2 * delta + 14)
    a, links = delta + 1, rng.choice((2, 3))
    kind = rng.choice(("member", "member", "member-big-first", "added",
                       "deleted", "swap", "shared-endpoint", "cross",
                       "gnp"))
    if kind == "gnp":
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < rng.uniform(0.3, 0.5)]
    elif kind == "member-big-first":
        edges = linked_cliques(n, n - a, links).edge_list()
    else:
        edges = linked_cliques(n, a, 0).edge_list()
        if kind == "shared-endpoint":
            edges += [(0, a), (1, a), (2, a + 1)][:links]
        elif kind == "cross":
            pairs = [(u, v) for u in range(a) for v in range(a, n)]
            edges += rng.sample(pairs, rng.randint(1, 4))
        else:
            edges += [(j, a + j) for j in range(links)]
    g = Graph(n, edges)
    if kind == "added":
        non = [(u, v) for u, v in itertools.combinations(range(n), 2)
               if not g.adj[u] >> v & 1]
        g = with_edge(g, *rng.choice(non))
    elif kind == "deleted":
        g = without_edge(g, *rng.choice(g.edge_list()))
    elif kind == "swap":
        el = g.edge_list()
        while True:
            (u, v), (x, y) = rng.sample(el, 2)
            if (len({u, v, x, y}) == 4 and not g.adj[u] >> y & 1
                    and not g.adj[x] >> v & 1):
                break
        g = without_edge(without_edge(g, u, v), x, y)
        g = with_edge(with_edge(g, u, y), x, v)
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in g.edge_list()])


def test_family_test_matches_canonical_form():
    # the structural test against the canonical-labelling definition, on
    # graphs meeting the report path's preconditions (delta >= 6,
    # n >= 2*delta + 4, links in {2, 3})
    rng = random.Random(4099)
    refs = {}
    checks = positives = 0
    while checks < 2400:
        g = _family_oracle_graph(rng)
        delta = g.min_degree()
        if delta < 6 or g.n < 2 * delta + 4:
            continue
        form = canonical_form(g)
        for links in (2, 3):
            key = (g.n, delta, links)
            if key not in refs:
                refs[key] = canonical_form(
                    linked_cliques(g.n, delta + 1, links))
            want = form == refs[key]
            assert _isomorphic_to_family(g, links) == want, (
                write_graph6(g), links)
            checks += 1
            positives += want
    assert positives >= 200


def test_hub_pair_degree_test_matches_canonical_form():
    for n in range(3, 9):
        ref = canonical_form(complete_split_graph(n))
        hits = 0
        for g in next(minimally_rigid_levels(n, n))[1]:
            assert _is_hub_pair(g) == (canonical_form(g) == ref)
            hits += _is_hub_pair(g)
        assert hits == 1


def test_consistency_on_connected_class_corpus(connected_class_reps_upto6):
    reports = [analyze_graph(g) for g in connected_class_reps_upto6]
    assert len(reports) == 143
    assert all(report_is_consistent(r) for r in reports)


def test_cached_threshold_is_bit_identical_to_the_closed_form():
    _threshold.cache_clear()
    for n in range(2, 81):
        for delta in range(n):
            a = delta + 1
            for links in (2, 3):
                if a <= n - 1 and links <= min(a, n - a):
                    # a == links takes the eigensolve fallback
                    fresh = linked_cliques_rho(n, a, links)
                else:
                    fresh = None
                for _ in ("cold", "warm"):
                    thr = _threshold(n, delta, links)
                    assert thr == fresh and type(thr) is type(fresh), \
                        (n, delta, links)
    assert _threshold.cache_info().hits == _threshold.cache_info().misses


def _split(results):
    """(reports, errors) from analyze_lines' (report, error) pairs."""
    results = list(results)
    return ([r for r, err in results if err is None],
            [err for _, err in results if err is not None])


def test_analyze_lines_same_bytes_with_cold_and_warm_threshold_cache():
    rng = random.Random(12)
    graphs = [linked_cliques(n, a, links)
              for n, a, links in [(16, 7, 2), (16, 7, 3), (20, 7, 3),
                                  (9, 3, 3), (12, 5, 2)]]
    graphs += [random_graph(rng, rng.randint(8, 24), rng.uniform(0.3, 0.9))
               for _ in range(40)]
    lines = [write_graph6(g).encode() for g in graphs]

    def serialised():
        reports, errors = _split(analyze_lines(lines))
        assert not errors
        return "\n".join(json_stable(r) for r in reports)

    _threshold.cache_clear()
    cold = serialised()
    misses = _threshold.cache_info().misses
    warm = serialised()
    assert _threshold.cache_info().misses == misses  # all read from cache
    assert cold == warm


def test_json_stable_formatting():
    assert json_stable({"a": 1.5, "b": None, "c": [True, 0.0]}) == \
        '{"a":1.5,"b":null,"c":[true,0]}'
    assert json_stable({"x": 8.049448332688991}) == '{"x":8.04944833269}'
    assert json_stable({"x": -0.0}) == '{"x":0}'
    assert json_stable([3, 3.0]) == "[3,3]"
    with pytest.raises(ValueError):
        json_stable({"x": float("nan")})
    with pytest.raises(TypeError):
        json_stable({"x": object()})


def test_json_round_trip_is_byte_stable():
    rng = random.Random(211)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        s = json_stable(analyze_graph(g))
        assert json_stable(json.loads(s)) == s


def test_csv_output_shape():
    reports = [analyze_graph(complete_graph(4)),
               analyze_graph(cycle_graph(5))]
    buf = io.StringIO()
    write_csv(buf, CSV_COLUMNS, map(flatten_report, reports))
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "graph6" and "rigidity_rank" in header
    assert len(lines[1].split(",")) == len(header)


def test_analyze_lines_order_and_errors():
    lines = [
        write_graph6(complete_graph(4)).encode() + b"\n",
        b"\n",
        b"!!bad\n",
        write_graph6(cycle_graph(5)).encode() + b"\n",
    ]
    reports, errors = _split(analyze_lines(lines))
    assert [r["n"] for r in reports] == [4, 5]
    assert len(errors) == 1 and errors[0].startswith("line 3:")


def test_analyze_lines_parallel_matches_serial():
    rng = random.Random(223)
    lines = [
        write_graph6(random_graph(rng, rng.randint(3, 9),
                                  rng.random())).encode() + b"\n"
        for _ in range(30)
    ]
    serial, err1 = _split(analyze_lines(lines, jobs=1))
    parallel, err2 = _split(analyze_lines(lines, jobs=2))
    assert err1 == err2 == []
    assert [json_stable(r) for r in serial] == [json_stable(r) for r in parallel]
    assert multiprocessing.active_children() == []


def test_analyze_lines_pool_capped_at_line_count(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    lines = [b"Bw\n", b"\n", b"Cw\n", b"C~\n"]
    reports, errors = _split(analyze_lines(lines, jobs=64))
    assert sizes == [3] and len(reports) == 3 and errors == []
    reports, _ = _split(analyze_lines(lines[:2], jobs=64))  # one graph: no pool
    assert sizes == [3] and len(reports) == 1


def test_analyze_lines_yields_each_report_before_reading_on():
    def lines():
        yield b"\n"
        yield b"Bw\n"
        raise AssertionError("read past the first graph")

    report, err = next(analyze_lines(lines(), jobs=1))
    assert err is None and report["graph6"] == "Bw"


def test_closing_parallel_analysis_leaves_no_worker():
    rng = random.Random(227)
    lines = [write_graph6(random_graph(rng, rng.randint(20, 30),
                                       rng.uniform(0.3, 0.9))).encode()
             for _ in range(200)]
    results = analyze_lines(lines, jobs=2)
    report, err = next(results)
    assert err is None and report["graph6"] == lines[0].decode()
    results.close()
    assert multiprocessing.active_children() == []


# graphs analysed by the workers of the test below, counted across processes
ANALYSED = multiprocessing.Value("i", 0)
_analyze_graph = rigidspec.verify.analyze_graph


def _slow_analyze_graph(*args, **kwargs):
    time.sleep(0.01)
    with ANALYSED.get_lock():
        ANALYSED.value += 1
    return _analyze_graph(*args, **kwargs)


def test_closing_parallel_analysis_stops_the_workers(monkeypatch):
    # forked workers inherit the patch
    monkeypatch.setattr(rigidspec.verify, "analyze_graph",
                        _slow_analyze_graph)
    ANALYSED.value = 0
    results = analyze_lines([b"Bw\n"] * 400, jobs=2)
    report, err = next(results)
    assert err is None and report["graph6"] == "Bw"
    results.close()
    assert multiprocessing.active_children() == []
    # read without the lock, which a stopped worker may have held
    assert ANALYSED.get_obj().value < 100


def test_cli_import_leaves_process_pool_unloaded():
    src = os.path.dirname(os.path.dirname(rigidspec.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, rigidspec.cli; "
            "sys.exit('multiprocessing.pool' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_extremal_report_leaves_numpy_random_unloaded():
    # placements come from the standard library's generator
    src = os.path.dirname(os.path.dirname(rigidspec.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys; from rigidspec.verify import extremal_family_report; "
            "assert extremal_family_report(6, 16)['ok']; "
            "sys.exit('numpy.random' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_laman_extremal_report_ok():
    rep = laman_extremal_report(3, 6)
    assert rep["ok"]
    assert [row["count"] for row in rep["rows"]] == [1, 1, 3, 13]
    assert all(row["argmax_is_hub_pair"] for row in rep["rows"])
    # one eigensolve per level gives each graph's own radius, bit for bit
    for row, (_, graphs) in zip(rep["rows"], minimally_rigid_levels(3, 6)):
        assert row["max_rho"] == max(map(spectral_radius, graphs))
    with pytest.raises(ValueError):
        laman_extremal_report(3, 10)


def test_hong_bound_certifies_hub_pair_for_every_order():
    """Hong's bound with its equality case proves laman-extremal's claim
    for every n: at m = 2n - 3 it is decreasing in the minimum degree, it
    equals the hub-pair radius at degree 2 and falls below it at degree 3."""
    for n in range(3, 200):
        assert hong_bound(n, 2 * n - 3, 2) == complete_split_rho(n)
        if n >= 4:
            assert hong_bound(n, 2 * n - 3, 3) < complete_split_rho(n)
    for n, graphs in minimally_rigid_levels(3, 8):
        for g in graphs:
            rho = spectral_radius(g)
            assert rho <= hong_bound(n, g.m, g.min_degree()) + 1e-9
            assert (rho > complete_split_rho(n) - 1e-9) == _is_hub_pair(g)


def test_family_sweep_report_ok():
    rep = family_sweep_report(2, 3, 6, 26)
    assert rep["ok"] and rep["cells"] > 0
    assert rep["max_closed_form_deviation"] <= 1e-8
    assert rep["min_decrease_margin"] > 1e-9
    with pytest.raises(ValueError):
        family_sweep_report(1, 3, 6, 26)
    with pytest.raises(ValueError):
        family_sweep_report(2, 2, 6, 26)
    with pytest.raises(ValueError):
        family_sweep_report(2, 3, 2, 26)


def _family_sweep_per_cell(links, amin, amax, nmax):
    """family_sweep_report as a graph built and eigensolved per cell."""
    rho = {}
    max_dev = 0.0
    cells = 0
    for a in range(amin, amax + 1):
        for n in range(2 * a + 2, nmax + 1):
            r = linked_cliques_rho(n, a, links)
            e = spectral_radius(linked_cliques(n, a, links))
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
    monotone_ok = pairs > 0 and min_margin > 1e-9
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


@pytest.mark.parametrize("links", [2, 3, 4])
def test_family_member_is_leading_block_of_largest(links):
    # the README grid, whose clique sizes start at 3, shifted up to the
    # smallest size that takes `links` links
    nmax = 60
    for a in range(links + 1, 13):
        big = linked_cliques(nmax, a, links).adjacency_matrix()
        for n in range(2 * a + 2, nmax + 1):
            assert np.array_equal(
                big[:n, :n], linked_cliques(n, a, links).adjacency_matrix())


@pytest.mark.parametrize("grid", [
    (2, 3, 6, 26),
    (2, 3, 12, 40),
    (3, 4, 8, 30),
    (4, 5, 9, 28),
    (2, 5, 40, 17),  # clique sizes past nmax / 2 - 1 have no cells
])
def test_family_sweep_matches_per_cell_graphs(grid):
    assert (json_stable(family_sweep_report(*grid))
            == json_stable(_family_sweep_per_cell(*grid)))


def test_extremal_family_report_ok():
    rep = extremal_family_report(6, 18)
    assert rep["ok"]
    assert [row["n"] for row in rep["rows"]] == [16, 17, 18]
    with pytest.raises(ValueError):
        extremal_family_report(5, 18)
    with pytest.raises(ValueError):
        extremal_family_report(6, 15)  # below the first feasible order


# -- command line ---------------------------------------------------------


def _write_corpus(tmp_path, graphs, name="corpus.g6"):
    path = tmp_path / name
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    return str(path)


def test_cli_analyze_json(tmp_path, capsys):
    path = _write_corpus(tmp_path, [complete_graph(4), cycle_graph(6)])
    assert cli_main(["analyze", path]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2
    first = json.loads(out[0])
    assert first["n"] == 4 and first["rigidity"]["globally_rigid"]


def test_cli_analyze_csv_and_jobs(tmp_path, capsys):
    graphs = [complete_graph(4), cycle_graph(6), complete_split_graph(7)]
    path = _write_corpus(tmp_path, graphs)
    assert cli_main(["analyze", path, "--format", "csv", "--jobs", "2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 4  # header + 3 rows


def test_cli_analyze_bad_line(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\nnot graph6!\n")
    assert cli_main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_cli_analyze_non_ascii_line(tmp_path, capsys):
    path = tmp_path / "accent.g6"
    path.write_bytes(b"Bw\nC\xc3\xa9\nCw\n")
    assert cli_main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("line 2: non-ascii byte 0xc3")
    assert len(captured.err.strip().split("\n")) == 1
    out = captured.out.strip().split("\n")
    assert [json.loads(r)["graph6"] for r in out] == ["Bw", "Cw"]


BAD_CORPUS = b"Bw\n\n?\nA_x\nB\xe9\n\x1c\nCw\n"
BAD_CORPUS_ERRORS = [
    "line 3: empty graph not supported in reports",
    "line 4: body length 2 != expected 1 for n=2",
    "line 5: non-ascii byte 0xe9 at position 1",
    "line 6: empty graph6 string",  # str.strip drops \x1c
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("from_stdin", [False, True])
def test_cli_analyze_bad_corpus(tmp_path, monkeypatch, capsys, jobs,
                                from_stdin):
    if from_stdin:
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(BAD_CORPUS)))
        source = "-"
    else:
        source = tmp_path / "bad.g6"
        source.write_bytes(BAD_CORPUS)
    assert cli_main(["analyze", str(source), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == BAD_CORPUS_ERRORS
    out = captured.out.strip().split("\n")
    assert [json.loads(r)["graph6"] for r in out] == ["Bw", "Cw"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_analyze_into_closed_pipe(tmp_path, jobs):
    """As in `analyze CORPUS | head -1`: the reader closes stdout after the
    first line.  Exit 141, as for SIGPIPE, with nothing on stderr, and no
    worker outlives the CLI."""
    corpus = tmp_path / "small.g6"
    corpus.write_text("Bw\nCw\nDQc\n" * 1000)
    src = os.path.dirname(os.path.dirname(rigidspec.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    with open(tmp_path / "err", "wb") as err:
        # a session of its own makes the CLI lead a process group, which
        # its workers join
        proc = subprocess.Popen(
            [sys.executable, "-m", "rigidspec.cli", "analyze", str(corpus),
             "--jobs", jobs],
            stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL,
            env=env, start_new_session=True)
        assert json.loads(proc.stdout.readline())["graph6"] == "Bw"
        proc.stdout.close()
        code = proc.wait(timeout=120)
    try:
        os.killpg(proc.pid, 9)
    except ProcessLookupError:
        pass
    else:
        pytest.fail("a worker outlived the CLI")
    assert code == 141
    assert (tmp_path / "err").read_bytes() == b""


def test_cli_analyze_bad_line_outranks_inconsistent_report(tmp_path, capsys):
    g = without_edge(linked_cliques(16, 7, 2), 9, 10)
    path = tmp_path / "mixed.g6"
    path.write_text(write_graph6(g) + "\nnot graph6!\n")
    assert cli_main(["analyze", str(path), "--tol", "1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("line 2:")
    assert json.loads(captured.out)["rigid_condition_consistent"] is False


def test_cli_analyze_missing_file(capsys):
    assert cli_main(["analyze", "/nonexistent/corpus.g6"]) == 2


def test_cli_analyze_inconsistency_exit_code(tmp_path, capsys):
    g = without_edge(linked_cliques(16, 7, 2), 9, 10)
    path = _write_corpus(tmp_path, [g])
    assert cli_main(["analyze", path]) == 0
    capsys.readouterr()
    assert cli_main(["analyze", path, "--tol", "1.0"]) == 1


def test_cli_sweeps(capsys):
    assert cli_main(["laman-extremal", "--nmin", "3", "--nmax", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["job"] == "laman-extremal"
    assert cli_main(["family-sweep", "--links", "3", "--clique-min", "4",
                     "--clique-max", "6", "--nmax", "24"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["cells"] > 0


def test_cli_extremal_seed_flag_and_default(capsys):
    args = ["extremal", "--delta", "6", "--nmax", "16"]
    assert cli_main(args) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 1729
    assert cli_main(args + ["--seed", "222"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 222


def test_cli_extremal_rejects_negative_seed(capsys):
    args = ["extremal", "--delta", "6", "--nmax", "16", "--seed=-1"]
    assert cli_main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invalid parameters: expected non-negative integer\n"


def test_cli_bad_parameters(capsys):
    assert cli_main(["family-sweep", "--links", "1"]) == 2
    assert cli_main(["extremal", "--delta", "3"]) == 2
    for args in (["--format", "xml"], ["--tol", "nan"], ["--tol", "-1"],
                 ["--tol", "inf"], ["--jobs", "0"], ["--jobs", "-3"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(["analyze", "-"] + args)
        assert exc.value.code == 2, args
    with pytest.raises(SystemExit):
        cli_main([])


def test_cli_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"Bw\n")))
    assert cli_main(["analyze", "-"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["n"] == 3


def test_cli_option_sets():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h",
                                                                   "--help"}
        for name, p in sub.choices.items()
    }
    assert options == {
        "analyze": {"--format", "--tol", "--jobs"},
        "laman-extremal": {"--nmin", "--nmax", "--format"},
        "family-sweep": {"--links", "--clique-min", "--clique-max", "--nmax"},
        "extremal": {"--delta", "--nmax", "--format", "--seed"},
    }


def test_cli_rejects_options_that_do_nothing(capsys):
    for args in (["analyze", "-", "--seed", "1"],
                 ["laman-extremal", "--tol", "1"],
                 ["laman-extremal", "--seed", "1"],
                 ["family-sweep", "--format", "csv"],
                 ["family-sweep", "--tol", "1"],
                 ["family-sweep", "--seed", "1"],
                 ["extremal", "--tol", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(args)
        assert exc.value.code == 2, args


def _csv_value(cell):
    try:
        return json.loads(cell)
    except ValueError:
        return cell


def test_cli_sweep_csv_matches_json(capsys):
    for args in (["laman-extremal", "--nmin", "3", "--nmax", "6"],
                 ["extremal", "--delta", "6", "--nmax", "17"]):
        assert cli_main(args) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert cli_main(args + ["--format", "csv"]) == 0
        text = capsys.readouterr().out
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert list(parsed[0]) == list(rows[0])
        assert [{k: _csv_value(v) for k, v in r.items()}
                for r in parsed] == rows
        assert "true" in text and "True" not in text


def test_cli_analyze_csv_empty_corpus(tmp_path, capsys):
    path = _write_corpus(tmp_path, [])
    assert cli_main(["analyze", path, "--format", "csv"]) == 0
    assert capsys.readouterr().out == ",".join(CSV_COLUMNS) + "\n"

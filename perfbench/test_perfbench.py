"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpora  # noqa: E402
import speed  # noqa: E402
from stats import summary, tail_percentile  # noqa: E402
from trace import Span, Tracer, layer_table, self_times  # noqa: E402


@pytest.mark.parametrize("name", sorted(corpora.CORPORA))
def test_generators_are_deterministic(name):
    gen = corpora.CORPORA[name]
    a = corpora.corpus_text(gen(7, 30))
    assert a == corpora.corpus_text(gen(7, 30))
    assert a != corpora.corpus_text(gen(8, 30))
    assert len(a.splitlines()) == 30


def test_generators_respect_their_ranges():
    assert {it.n for it in corpora.corpus_small(1, 200)} <= set(range(8, 17))
    dense = corpora.corpus_dense(1, 20)
    assert all(20 <= it.n <= 40 for it in dense if it.kind == "gnp")
    assert sum(it.kind.startswith("family") for it in dense) == 4
    sparse = corpora.corpus_sparse(1, 10)
    assert all(40 <= it.n <= 80 for it in sparse)
    for it in sparse:
        extra = len(it.edges) - (2 * it.n - 3)
        assert 2 <= extra <= 12


def test_graph6_writer_matches_known_lines():
    assert corpora.write_graph6(3, [(0, 1), (1, 2)]) == "Bg"
    assert corpora.write_graph6(4, []) == "C?"
    long_line = corpora.write_graph6(63, [(0, 1)])
    assert long_line.startswith("~??~")


def test_self_times_subtract_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, -1),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),   # overlaps a: union of a and b is 5
        Span("c", 1.5, 2.0, 1, 0),
        Span("d", 9.0, 12.0, 0, 1),  # runs past the parent: 1 counted
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])
    table = layer_table(spans)
    assert table["a"] == {"self_s": pytest.approx(2.5), "calls": 1}


def test_tail_percentile_rule():
    assert tail_percentile(5) == 50
    assert tail_percentile(20) == 50
    assert tail_percentile(28) == 64
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    s = summary([float(i) for i in range(1, 101)])
    assert s == {"p50": 50.5, "tail": 90.0, "pct": 90, "n": 100}
    # ten samples lie beyond the reported tail value
    assert sum(v > s["tail"] for v in range(1, 101)) == 10
    few = summary([3.0, 1.0, 2.0])
    assert few == {"p50": 2.0, "tail": 2.0, "pct": 50, "n": 3}


def test_samples_are_scaled_by_their_bracketing_bursts(monkeypatch):
    bursts = iter([0.010, 0.010, 0.020, 0.005])
    monkeypatch.setattr(speed, "burst", lambda: next(bursts))
    cal = speed.Calibrated()
    cal.add("a", 1.0)  # between bursts 0.010 and 0.010
    cal.add("b", 3.0)  # between 0.010 and 0.020
    cal.add("a", 2.0)  # between 0.020 and 0.005
    nominal = speed.NOMINAL_BURST_S
    assert cal.raw("a") == [1.0, 2.0]
    assert cal.at_reference("a") == pytest.approx(
        [1.0 * nominal / 0.010, 2.0 * nominal / 0.0125])
    assert cal.at_reference("b") == pytest.approx([3.0 * nominal / 0.015])


def test_reference_loop_does_fixed_work():
    assert speed.reference_loop(2) == speed.reference_loop(2) > 0


def _stdout(items, seed):
    return "".join(json.dumps(checks.expected_report(it, seed)) + "\n"
                   for it in items)


def test_oracle_accepts_correct_and_flags_corrupted_reports():
    items = corpora.corpus_small(3, 40) + corpora.corpus_dense(3, 8)[:2]
    good = _stdout(items, 3)
    assert checks.check_corpus_output(items, good, 0, 3) == (0, [])

    lines = good.splitlines(keepends=True)
    rep = json.loads(lines[5])
    rep["rigidity"]["rank"] += 1
    lines[5] = json.dumps(rep) + "\n"
    failed, problems = checks.check_corpus_output(items, "".join(lines), 0, 3)
    assert failed == 1 and "rigidity.rank" in problems[0]

    failed, _ = checks.check_corpus_output(items, good, 1, 3)
    assert failed == len(items)
    failed, _ = checks.check_corpus_output(items, good[:-20], 0, 3)
    assert failed == 1


def test_oracle_knows_construction_facts():
    fam = [it for it in corpora.corpus_dense(2, 8) if "family" in it.known]
    for it in fam:
        exp = checks.expected_report(it, 0)
        assert exp["vertex_connectivity"] == it.known["kappa"]
        assert exp["rigidity"]["rank"] == it.known["rank"]
    lam = [it for it in corpora.corpus_small(2, 100)
           if it.known.get("minimally_rigid")]
    assert lam
    for it in lam:
        assert checks.expected_report(it, 0)["rigidity"]["minimally_rigid"]


def test_sweep_check_flags_a_bad_row_and_digest():
    report = {"rows": [{"ok": True}, {"ok": False}], "ok": False}
    out = json.dumps(report)
    n, failed, _ = checks.check_sweep_output(out, 1, "x", None, 2)
    assert (n, failed) == (2, 2)
    good = json.dumps({"rows": [{"ok": True}], "ok": True})
    assert checks.check_sweep_output(good, 0, "x", "x", 1)[:2] == (1, 0)
    assert checks.check_sweep_output(good, 0, "x", "y", 1)[:2] == (1, 1)


def test_tracer_wraps_every_binding_and_restores():
    src = HERE.parent / "src"
    if not (src / "rigidspec").is_dir():
        pytest.skip("no rigidspec sources next to the benchmark")
    sys.path.insert(0, str(src))
    import rigidspec.graphcore as graphcore
    import rigidspec.verify as verify

    original = graphcore.vertex_connectivity
    g = graphcore.parse_graph6("Dhc")  # 5-cycle
    plain = verify.json_stable(verify.analyze_graph(g))
    tracer = Tracer()
    with tracer:
        assert verify.vertex_connectivity is graphcore.vertex_connectivity
        assert graphcore.vertex_connectivity is not original
        traced = verify.json_stable(verify.analyze_graph(g))
    assert graphcore.vertex_connectivity is original
    assert verify.vertex_connectivity is original
    assert traced == plain
    names = [s.name for s in tracer.spans]
    assert names.count("graphcore.vertex_connectivity") == 2
    top = names.index("verify.analyze_graph")
    outer = tracer.spans[top]
    inner = [s for s in tracer.spans if outer.start < s.start < outer.end]
    assert inner and all(s.parent >= top for s in inner)

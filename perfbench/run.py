"""Benchmark for rigidspec: seeded corpora and the three sweeps, run
through the real CLI, with every output checked by independent oracles.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus-dense --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
makes a separate traced in-process pass and reports per-layer costs.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Human-readable tables go before it.

Workloads (each a closed loop: one CLI invocation at a time from this
process, except the two-worker pass):

  corpus-small   8 <= n <= 16, G(n,p) and Laman graphs: fixed per-graph
                 costs (parse, Graph build, numpy calls, serialisation) and
                 the process pool's per-graph dispatch.
  corpus-dense   G(n,p), 20 <= n <= 40, plus near-threshold two-clique
                 graphs: vertex connectivity dominates, redundancy is small,
                 and the family-membership path (canonical_form) runs.
  corpus-sparse  rigid graphs, 40 <= n <= 80, few extra edges: the
                 redundancy rerun dominates, connectivity is small.
  sweeps         laman-extremal, family-sweep and extremal at their README
                 defaults: enumeration, canonical labelling, closed-form
                 radii and the oracle module; never the analyze path.

An item is a graph for corpus-* and a sweep row for sweeps (a sweep
without rows is one item).  End-to-end metrics, gated by BENCHMARK.json:
setup_s (fresh interpreter importing rigidspec.cli), wall_s (one jobs-1
pass of the workload's CLI invocations), items_per_s (items over the
jobs-1 pass wall time), peak_rss_mb (jobs-1 CLI process).  The table also
prints items_per_s_jobs2.raw (for sweeps the jobs-2 pass runs the three
invocations two at a time).

After an untimed in-process pass and JOBS2_PASSES untimed jobs-2 passes,
an untraced run repeats rounds of (setup, jobs-1 pass, jobs-1 pass) for
--seconds on one CPU, with a burst of speed.py's reference loop between
every two samples (each CLI invocation of a jobs-1 pass is a sample).  The
timings it gates are medians over the run taken at reference speed (see
speed.py), because the host's own speed moves raw wall times by more than
the benchmark's bounds; the table prints the raw wall-clock medians beside
them (.raw rows), with the reference burst itself, and every sample and
burst goes to out/<workload>-<seed>-e/samples.json.  The table also prints
item_ms.raw, the in-process time per item of the untimed pass
(verify.analyze_graph per graph; per row of a cli.main pass for sweeps),
and failed_frac.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import cycle
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpora  # noqa: E402
from speed import Calibrated, pinned  # noqa: E402
from stats import summary  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"

# An untraced run repeats ROUND until --seconds have passed, and makes at
# least MIN_ROUNDS rounds.  Corpus sizes are fixed, so a seed asks for the
# same work at any --seconds.
ROUND = ("setup", "jobs1", "jobs1")
JOBS2_PASSES = 1
MIN_ROUNDS = 2
CORPUS_SIZE = {"corpus-small": 300, "corpus-dense": 12, "corpus-sparse": 12}
SWEEPS = (
    ("laman-extremal", ["laman-extremal", "--nmin", "3", "--nmax", "8"], 6),
    ("family-sweep", ["family-sweep"], 1),
    ("extremal", ["extremal", "--delta", "6", "--nmax", "26"], 11),
)
WORKLOADS = ("corpus-small", "corpus-dense", "corpus-sparse", "sweeps")
# The gated end-to-end metrics (BENCHMARK.json), and the rows the table
# prints beside them.  Items per second at jobs 2 is printed but not gated:
# a jobs-2 pass runs on both cores, whose speeds flip independently, and no
# burst on one core tracks it (its five-seed spread was 0.37 at reference
# speed).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
TABLE_ROWS = {"setup_s.raw": "s", "wall_s.raw": "s",
              "items_per_s_jobs2.raw": "1/s", "burst_ms.raw": "ms",
              "item_ms.raw": "ms"}

# Per-layer metrics: (span name, kind).  "ms" is self time per item (per
# graph for corpus-*, per pass for sweeps) and "calls" the call count per
# item, both from the traced pass.  Which end-to-end metric each should
# move, and where:
#   parse_graph6, spectral_radius, algebraic_connectivity, analyze_graph,
#     json_stable, jobs2_efficiency  -> items_per_s(_jobs2) on corpus-small
#   vertex_connectivity, is_k_connected -> items_per_s and the item_ms
#     tail on corpus-dense (little on corpus-sparse)
#   pebble_rank, is_redundantly_rigid -> items_per_s and the item_ms tail
#     on corpus-sparse (little on corpus-dense)
#   is_globally_rigid, rigidity_verdict -> items_per_s on dense and sparse
#   canonical_form -> wall_s on sweeps, the item_ms tail on corpus-dense
#   enumerate_minimally_rigid, linked_cliques_rho, numeric_rank,
#     packing_violation_search, the three *_report, cli.main -> wall_s on
#     sweeps
#   trace.overhead_frac (traced / untraced in-process wall - 1) -> none
# The .calls counts repeat exactly.  At the seed connectivity runs 2.0 times
# per graph and redundancy up to 2.0 (is_globally_rigid skips it when the
# graph is not 3-connected); 1.0 would mean no repeated work.
LAYERS = (
    ("graphcore.parse_graph6", "ms"),
    ("graphcore.vertex_connectivity", "ms"),
    ("graphcore.vertex_connectivity", "calls"),
    ("graphcore.is_k_connected", "ms"),
    ("graphcore.is_k_connected", "calls"),
    ("rigidity.pebble_rank", "ms"),
    ("rigidity.pebble_rank", "calls"),
    ("rigidity.is_redundantly_rigid", "ms"),
    ("rigidity.is_redundantly_rigid", "calls"),
    ("rigidity.is_globally_rigid", "ms"),
    ("rigidity.rigidity_verdict", "ms"),
    ("rigidity.canonical_form", "ms"),
    ("rigidity.canonical_form", "calls"),
    ("rigidity.enumerate_minimally_rigid", "ms"),
    ("spectral.spectral_radius", "ms"),
    ("spectral.algebraic_connectivity", "ms"),
    ("spectral.linked_cliques_rho", "ms"),
    ("spectral.linked_cliques_rho", "calls"),
    ("oracle.numeric_rank", "ms"),
    ("oracle.packing_violation_search", "ms"),
    ("verify.analyze_graph", "ms"),
    ("verify.json_stable", "ms"),
    ("verify.laman_extremal_report", "ms"),
    ("verify.family_sweep_report", "ms"),
    ("verify.extremal_family_report", "ms"),
    ("cli.main", "ms"),
)


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def load_program():
    """Import rigidspec from this checkout's src/ and nowhere else."""
    if not (SRC / "rigidspec" / "cli.py").is_file():
        raise BenchError(f"no rigidspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rigidspec.cli
    import rigidspec.verify

    where = Path(rigidspec.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"rigidspec imported from {where}, not {SRC}")
    return rigidspec


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("RIGIDSPEC_SEED", None)
    return env


# Runs `python -m rigidspec.cli ARGS` and, on the way out, writes the
# process's peak RSS (VmHWM) to stderr.  rusage from wait4 cannot give it:
# the child is started by vfork, so its ru_maxrss includes this larger
# parent's peak.
CLI_LAUNCHER = """\
import runpy, sys
try:
    runpy.run_module("rigidspec.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("perfbench " + hwm)
"""


def run_cli(args: list[str], workdir: Path, tag: str) -> dict:
    """One CLI invocation with stdout captured to a file.  Returns wall
    time, exit code, stdout, stderr and the CLI process's peak RSS."""
    out_path = workdir / f"{tag}.out"
    err_path = workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_LAUNCHER, *args],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env=child_env(), cwd=ROOT, check=False,
        )
        wall = time.perf_counter() - t0
    stderr, _, hwm = err_path.read_text(errors="replace").rpartition(
        "perfbench VmHWM:")
    return {
        "wall": wall,
        "rc": proc.returncode,
        "stdout": out_path.read_bytes(),
        "stderr": stderr,
        "rss_mb": int(hwm.split()[0]) / 1024.0,
    }


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing rigidspec.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rigidspec.cli"],
                   env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_baseline() -> dict:
    if BASELINE.is_file():
        return json.loads(BASELINE.read_text())
    return {}


# -- workloads ------------------------------------------------------------


class CorpusWorkload:
    """`rigidspec analyze` over one seeded corpus."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.items = corpora.CORPORA[name](seed, CORPUS_SIZE[name])
        self.path = workdir / "corpus.g6"
        self.path.write_text(corpora.corpus_text(self.items))
        self.n_items = len(self.items)
        self.invocations = ("analyze",)

    def cli_pass(self, jobs: int, tag: str, after_each=None) -> dict:
        """One `analyze --jobs JOBS` invocation; `after_each(name, result)`
        is called when it ends."""
        res = run_cli(["analyze", str(self.path), "--jobs", str(jobs)],
                      self.workdir, tag)
        if after_each:
            after_each("analyze", res)
        return {"wall": res["wall"], "rss_mb": res["rss_mb"],
                "outputs": [res]}

    def item_times(self, rigidspec) -> tuple[list[float], str]:
        """Per-graph wall time of verify.analyze_graph, untraced, in one
        pass over the corpus, and the reports serialised as the CLI
        would."""
        analyze, emit = rigidspec.verify.analyze_graph, rigidspec.json_stable
        times, lines = [], []
        for it in self.items:
            g = rigidspec.parse_graph6(it.graph6)
            t0 = time.perf_counter()
            rep = analyze(g, graph6=it.graph6)
            times.append(time.perf_counter() - t0)
            lines.append(emit(rep) + "\n")
        return times, "".join(lines)

    def main_args(self) -> list[list[str]]:
        return [["analyze", str(self.path), "--jobs", "1"]]

    def check(self, checked: list[dict], baseline: dict):
        """(attempted, failed, problems, digest) over the CLI outputs."""
        import checks

        first = checked[0]
        failed, problems = checks.check_corpus_output(
            self.items, first["stdout"].decode("ascii", "replace"),
            first["rc"], self.seed)
        for res in checked[1:]:
            if res["stdout"] != first["stdout"] or res["rc"] != first["rc"]:
                problems.append("outputs differ between passes")
                failed = self.n_items
        digest = sha256(first["stdout"])
        want = baseline.get("stdout_sha256", {}).get(self.name, {}).get(
            str(self.seed))
        if want is not None and want != digest:
            problems.append(f"stdout sha256 {digest} != recorded {want}")
            failed = self.n_items
        return self.n_items, failed, problems, digest


class SweepWorkload:
    """The three sweep subcommands at their README defaults."""

    def __init__(self, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = "sweeps", seed, workdir
        self.n_items = sum(rows for _, _, rows in SWEEPS)
        self.invocations = tuple(name for name, _, _ in SWEEPS)

    def cli_pass(self, jobs: int, tag: str, after_each=None) -> dict:
        """All three invocations, one at a time or `jobs` at a time; one at
        a time, `after_each(name, result)` is called as each ends."""
        def one(sweep):
            return run_cli(sweep[1], self.workdir, f"{tag}-{sweep[0]}")

        t0 = time.perf_counter()
        if jobs == 1:
            outputs = []
            for sweep in SWEEPS:
                outputs.append(one(sweep))
                if after_each:
                    after_each(sweep[0], outputs[-1])
        else:
            with ThreadPoolExecutor(max_workers=jobs) as ex:
                outputs = list(ex.map(one, SWEEPS))
        wall = time.perf_counter() - t0
        return {"wall": wall, "rss_mb": max(o["rss_mb"] for o in outputs),
                "outputs": outputs}

    def item_times(self, rigidspec) -> tuple[list[float], None]:
        """In-process time per row: one pass of the three invocations
        through cli.main, its wall time over its row count."""
        wall, _ = in_process_main(rigidspec, self)
        return [wall / self.n_items], None

    def main_args(self) -> list[list[str]]:
        return [args for _, args, _ in SWEEPS]

    def check(self, checked: list[dict], baseline: dict):
        import checks

        recorded = baseline.get("stdout_sha256", {}).get("sweeps", {})
        attempted = failed = 0
        problems = []
        digests = {}
        for res in checked:
            for (name, _, rows), out in zip(SWEEPS, res):
                digest = sha256(out["stdout"])
                digests[name] = digest
                n, bad, probs = checks.check_sweep_output(
                    out["stdout"].decode("ascii", "replace"), out["rc"],
                    digest, recorded.get(name), rows)
                attempted += n
                failed += bad
                problems += [f"{name}: {p}" for p in probs]
        return attempted, failed, problems, digests


def make_workload(name: str, seed: int, workdir: Path):
    if name == "sweeps":
        return SweepWorkload(seed, workdir)
    return CorpusWorkload(name, seed, workdir)


# -- measurement ----------------------------------------------------------


def checked_outputs(wl, passes: list[dict]) -> list:
    """What `wl.check` takes: CLI results, grouped per pass for sweeps."""
    if wl.name == "sweeps":
        return [p["outputs"] for p in passes]
    return [o for p in passes for o in p["outputs"]]


def in_process_main(rigidspec, wl) -> tuple[float, str]:
    """Wall time and stdout of the workload's invocations through cli.main
    in this process."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        for args in wl.main_args():
            rigidspec.cli.main(args)
    return time.perf_counter() - t0, buf.getvalue()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(rigidspec, wl, seconds: int):
    """End-to-end metrics, tracing off: one untimed in-process pass and
    JOBS2_PASSES untimed jobs-2 passes, then rounds of ROUND for
    `seconds`, with a reference burst between every two samples.

    The per-item times (median and tail) are printed but not returned as
    gated metrics: on the 12-graph dense and sparse corpora the graph at
    a given percentile changes with the labelling, and their spread over
    ten seeds was 23-36%, above any bound the benchmark may set."""
    times, text = wl.item_times(rigidspec)
    passes2 = [wl.cli_pass(2, f"jobs2-{i}") for i in range(JOBS2_PASSES)]
    passes1 = []
    with pinned({min(os.sched_getaffinity(0))}):
        cal = Calibrated()
        deadline = time.perf_counter() + seconds
        for step, kind in enumerate(cycle(ROUND)):
            if (step >= MIN_ROUNDS * len(ROUND)
                    and time.perf_counter() >= deadline):
                break
            if kind == "setup":
                cal.add(kind, measure_setup())
            else:
                passes1.append(wl.cli_pass(
                    1, f"{kind}-{step}", after_each=lambda name, res:
                    cal.add(f"jobs1 {name}", res["wall"])))

    # A jobs-1 pass's time is the sum of its invocations' times; each
    # invocation is a sample, with a burst after it.
    def pass_times(values):
        per_invocation = [values(f"jobs1 {name}") for name in wl.invocations]
        return [sum(ts) for ts in zip(*per_invocation)]

    walls1 = pass_times(cal.at_reference)
    stats = {
        "setup_s": summary(cal.at_reference("setup")),
        "wall_s": summary(walls1),
        "items_per_s": summary([wl.n_items / w for w in walls1]),
        "peak_rss_mb": summary([p["rss_mb"] for p in passes1]),
        "setup_s.raw": summary(cal.raw("setup")),
        "wall_s.raw": summary(pass_times(cal.raw)),
        "items_per_s_jobs2.raw": summary(
            [wl.n_items / p["wall"] for p in passes2]),
        "burst_ms.raw": summary([1e3 * b for b in cal.bursts]),
        "item_ms.raw": summary([1e3 * t for t in times]),
    }
    (wl.workdir / "samples.json").write_text(json.dumps(
        {"bursts": cal.bursts, "samples": cal.samples}))
    checked = checked_outputs(wl, passes1 + passes2)
    metrics = {name: metric(stats[name]["p50"], unit)
               for name, unit in END_TO_END}
    problems = []
    if text is not None and text.encode("ascii") != checked[0]["stdout"]:
        problems.append("in-process reports differ from the CLI's")
    return metrics, stats, checked, problems


def run_traced(rigidspec, wl):
    """Per-layer metrics from one traced in-process pass, beside one
    untraced in-process pass and one jobs-1 and one jobs-2 CLI pass."""
    from trace import Tracer, layer_table

    p1 = wl.cli_pass(1, "t1")
    p2 = wl.cli_pass(2, "t2")
    wall_plain, out_plain = in_process_main(rigidspec, wl)
    tracer = Tracer(item_start=("graphcore.parse_graph6",
                                "verify.analyze_lines"))
    with tracer:
        wall_traced, out_traced = in_process_main(rigidspec, wl)
    per = wl.n_items if wl.name != "sweeps" else 1
    table = layer_table(tracer.spans)
    metrics = {}
    for name, kind in LAYERS:
        row = table.get(name, {"self_s": 0.0, "calls": 0})
        if kind == "ms":
            metrics[f"{name}.ms"] = metric(1e3 * row["self_s"] / per, "ms")
        else:
            metrics[f"{name}.calls"] = metric(row["calls"] / per, "count")
    metrics["verify.analyze_lines.jobs2_efficiency"] = metric(
        p1["wall"] / (2.0 * p2["wall"]), "ratio")
    metrics["trace.overhead_frac"] = metric(wall_traced / wall_plain - 1.0,
                                            "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{wl.name}-{wl.seed}.jsonl"))
    checked = checked_outputs(wl, [p1, p2])
    problems = []
    if out_traced != out_plain:
        problems.append("traced in-process stdout differs from untraced")
    cli_text = "".join(o["stdout"].decode("ascii", "replace")
                       for o in p1["outputs"])
    if out_plain != cli_text:
        problems.append("in-process stdout differs from the CLI's")
    return metrics, table, per, checked, problems


# -- reporting ------------------------------------------------------------


def print_end_to_end(wl, stats: dict, failed: int, attempted: int) -> None:
    print(f"== {wl.name} (seed {wl.seed}, {wl.n_items} items) end to end, "
          f"tracing off; timings at reference speed, .raw rows wall clock")
    print(f"{'metric':<21} {'unit':<6} {'median':>12} {'tail':>12} "
          f"{'pct':>5} {'samples':>7}")
    units = dict(END_TO_END, **TABLE_ROWS)
    for name, s in stats.items():
        print(f"{name:<21} {units[name]:<6} {s['p50']:>12.6g} "
              f"{s['tail']:>12.6g} {'p' + format(s['pct'], 'g'):>5} "
              f"{s['n']:>7}")
    print(f"{'failed_frac':<21} {'1':<6} {failed / attempted:>12.6g} "
          f"{'':>12} {'':>5} {attempted:>7}")


def print_layers(wl, table: dict, per: int, metrics: dict) -> None:
    unit = "graph" if wl.name != "sweeps" else "pass"
    print(f"== {wl.name} (seed {wl.seed}) per layer, traced in-process, "
          f"per {unit} ({per} {unit}s)")
    print(f"{'span':<40} {'self ms':>12} {'calls':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<40} {1e3 * row['self_s'] / per:>12.4f} "
              f"{row['calls'] / per:>10.3f}")
    for key in ("verify.analyze_lines.jobs2_efficiency",
                "trace.overhead_frac"):
        print(f"{key:<40} {metrics[key]['value']:>12.4f}")


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def run_workload(rigidspec, name: str, seed: int, seconds: int, trace: bool,
                 baseline: dict) -> dict:
    workdir = OUT / f"{name}-{seed}-{'t' if trace else 'e'}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = make_workload(name, seed, workdir)
    if trace:
        metrics, table, per, checked, extra = run_traced(rigidspec, wl)
    else:
        metrics, stats, checked, extra = run_untraced(rigidspec, wl, seconds)
    attempted, failed, problems, digest = wl.check(checked, baseline)
    if extra:
        failed = attempted
    problems += extra
    if trace:
        print_layers(wl, table, per, metrics)
    else:
        print_end_to_end(wl, stats, failed, attempted)
    print(f"stdout sha256: {json.dumps(digest, sort_keys=True)}")
    for p in problems[:20]:
        print(f"FAILED: {p}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        rigidspec = load_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    baseline = load_baseline()
    env = environment()
    print(f"environment: {json.dumps(env)}")
    if args.workload != "all":
        result = run_workload(rigidspec, args.workload, args.seed,
                              args.seconds, bool(args.trace), baseline)
        print(json.dumps(result))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            res = run_workload(rigidspec, name, args.seed, args.seconds,
                               trace, baseline)
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for key, val in res["metrics"].items():
                total["metrics"][f"{name}/{key}"] = val
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread (IQR over median), as
`statistics.quantiles(values, n=4)` gives the quartiles.

    python3 perfbench/spread.py --workloads corpus-dense --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --record perfbench/baseline.json

`--record` writes the baseline: for each gated metric its median over
the seeds, unit and spread; for each row of the printed table (which adds
the per-item times) the medians over the seeds of its median and tail,
the tail percentile and samples per run; failed_frac; the traced
per-layer medians (with --traced); the stdout digests (per seed for
corpora) and the environment.  Runs are sequential, so they do not compete for cores.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    digest = next((json.loads(line.split(":", 1)[1]) for line in lines
                   if line.startswith("stdout sha256:")), None)
    result["digest"] = digest
    result["table"] = {}
    for line in lines:
        cols = line.split()
        if len(cols) == 6 and cols[5].isdigit():
            result["table"][cols[0]] = {
                "unit": cols[1], "median": float(cols[2]),
                "tail": float(cols[3]), "tail_pct": cols[4],
                "samples": int(cols[5])}
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--traced", action="store_true",
                    help="also make one traced run per seed")
    ap.add_argument("--record", type=Path)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    baseline = {"seconds": args.seconds, "seeds": seeds, "workloads": {},
                "stdout_sha256": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            res = run_once(workload, seed, args.seconds, 0)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}"
                      for k, v in res["metrics"].items()), flush=True)
            ok &= res["correct"] and res["failed"] == 0
            results.append(res)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            sp = spread(values)
            flag = "ok" if sp < bound / 3 else (
                "WITHIN BOUND" if sp <= bound else "OVER BOUND")
            print(f"  {name:<20} median {statistics.median(values):<12.6g} "
                  f"spread {sp:7.4f}  bound {bound}  {flag}")
            summary[name] = {
                "median": statistics.median(values),
                "unit": results[0]["metrics"][name]["unit"],
                "spread": sp, "runs": len(values),
            }
        table = {}
        for name, row in results[0]["table"].items():
            table[name] = {
                "unit": row["unit"], "tail_pct": row["tail_pct"],
                "samples_per_run": row["samples"],
                "median_of_medians": statistics.median(
                    r["table"][name]["median"] for r in results),
                "median_of_tails": statistics.median(
                    r["table"][name]["tail"] for r in results),
            }
        entry = {"end_to_end": summary, "table": table,
                 "failed_frac": sum(r["failed"] for r in results)
                 / sum(r["attempted"] for r in results)}
        if args.traced:
            traced = [run_once(workload, seed, args.seconds, 1)
                      for seed in seeds]
            entry["per_layer"] = {
                name: {"median": statistics.median(
                    r["metrics"][name]["value"] for r in traced),
                    "unit": traced[0]["metrics"][name]["unit"],
                    "runs": len(traced)}
                for name in traced[0]["metrics"]
            }
        baseline["workloads"][workload] = entry
        baseline["stdout_sha256"][workload] = (
            results[0]["digest"] if workload == "sweeps"
            else {str(s): r["digest"] for s, r in zip(seeds, results)})
    if args.record:
        baseline["environment"] = environment()
        args.record.write_text(json.dumps(baseline, indent=1, sort_keys=True)
                               + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

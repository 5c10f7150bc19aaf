"""Repeat run.py over seeds 1-10 and report each metric's median and spread.

    python3 perfbench/spread.py [--trace-seed N] [--record FILE]

For every workload in BENCHMARK.json it runs ``run.py --trace 0`` once per
seed, for the spec's ``run_seconds``, and prints, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(n=4)``) and the quartile spread
as a share of the median, next to the metric's bound. A spread above a third
of its bound is flagged WIDE. ``--trace-seed`` adds one traced run per
workload for the per-layer breakdown. ``--record`` writes everything, with the
environment of the last run, as JSON (this is how baseline.json was made).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result object, environment) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    environment = {}
    for line in lines:
        if line.startswith("environment "):
            environment = json.loads(line[len("environment "):])
    return json.loads(lines[-1]), environment


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    environment = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, environment = run_once(workload, seed, seconds, 0)
            runs.append(result)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        print(f"{workload}: {len(runs)} runs, failed_frac {entry['failed_frac']:.3g}")
        for name, bound in bounds.items():
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = summary
            flag = "" if summary["spread"] <= bound / 3 else "  WIDE"
            print(
                f"  {name:<12} median {summary['median']:.6g} {summary['unit']:<4} "
                f"q1 {summary['q1']:.6g} q3 {summary['q3']:.6g} "
                f"spread {summary['spread']:.2%} (bound {bound:.0%}){flag}"
            )
        if args.trace_seed is not None:
            traced, environment = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {
                name: metric["value"] for name, metric in traced["metrics"].items()
            }
            entry["per_layer_seed"] = args.trace_seed
        record["workloads"][workload] = entry
    record["environment"] = environment
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the figures recorded in README.md.

    python3 egsbench/report.py

For each workload named in BENCHMARK.json it makes one timed run of
``run_seconds`` per seed (seeds 1 to 10, one after the other), prints each
run's input digest, metrics, wall time and times as measured before
rescaling to the reference speed, then the median and the quartile
spread (third minus first quartile, over the median) of every end-to-end
metric.  It then makes two traced runs on seed 1 and checks that every count
agrees exactly between them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, "egsbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    for workload in (w["name"] for w in config["workloads"]):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in SEEDS:
            start = time.perf_counter()
            result, notes = run(workload, seed, seconds, 0)
            wall = time.perf_counter() - start
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            digest = next(line for line in notes if line.startswith("digest"))
            figures = " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            )
            measured = next(line for line in notes if line.startswith("measured"))
            print(f"{digest} correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']} {figures} wall={wall:.1f}s", flush=True)
            print(f"  {measured}", flush=True)
        for name, vals in values.items():
            print(f"{workload} {name}: median {statistics.median(vals):.4g},"
                  f" spread {spread(vals):.3f}")
        print(f"{workload} failed shares: {sorted(shares)}")
        traced = [run(workload, 1, seconds, 1) for _ in range(2)]
        for line in traced[0][1]:
            if line.startswith("trace"):
                print(line)
        first, second = (t[0]["metrics"] for t in traced)
        counts = [k for k, v in first.items() if v["unit"] == "count"]
        differing = [k for k in counts if first[k]["value"] != second[k]["value"]]
        print(f"{workload} traced counts equal across two runs: {not differing} {differing}")
        for name, metric in first.items():
            print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Run the benchmark on ten seeds per workload and record the baseline.

    python3 bench/baseline.py

Run from the repository root.  Each run is a fresh, untraced
``bench/run.py`` process on seeds 1 to 10 for ``run_seconds`` from
``BENCHMARK.json``.  For every metric the table gives the median over the
seeds and the spread, the distance between the first and third quartiles
as a share of the median.  An end-to-end metric is marked ``ok`` when its
spread is below a third of its bound in ``BENCHMARK.json``, ``wide`` when
it is below the bound and ``OVER`` otherwise.  The medians, the values
and the environment they were measured in go to ``bench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    digest = lines[-2].split()[1] if len(lines) > 1 else None
    return json.loads(lines[-1]), digest


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        results = [run_once(name, seed, seconds) for seed in SEEDS]
        attempted = [r["attempted"] for r, _ in results]
        metrics = {}
        print(f"{name}: ops per run {min(attempted)}..{max(attempted)}")
        for metric, first in results[0][0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r, _ in results]
            summary = summarise(values)
            summary["unit"] = first["unit"]
            summary["values"] = values
            metrics[metric] = summary
            spread, bound = summary["spread"], bounds[metric]
            flag = "ok" if spread < bound / 3 else "wide" if spread <= bound else "OVER"
            print(
                f"  {metric:20s} {summary['median']:14.6g} {first['unit']:6s}"
                f" spread {spread:7.2%} of bound {bound:.2f}: {flag}"
            )
        record["workloads"][name] = {
            "why": workload["why"],
            "ops_per_run": statistics.median(attempted),
            "metrics": metrics,
            "digests": {str(seed): d for seed, (_, d) in zip(SEEDS, results)},
        }
        sys.stdout.flush()
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()

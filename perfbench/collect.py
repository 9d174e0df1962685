"""Run the benchmark several times per workload and summarise the spread.

Run from the repository root, for example:

    python3 perfbench/collect.py --runs 10 --seconds 15 --out baseline.json

Each run is ``run.py`` in a fresh process with its own seed.  For every
metric the summary holds the values, their median, their quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  With ``--trace-runs k`` it also
keeps the per-layer metrics of k traced runs per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """One benchmark process: its final JSON object, its metric lines, its env line.

    The metric lines gain ``process_s``, the wall time of the whole process.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    reported = {"process_s": {"value": time.perf_counter() - start, "unit": "s"}}
    env = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            reported[name] = {"value": float(value), "unit": unit}
        elif line.startswith("env "):
            env = json.loads(line[4:])
    return json.loads(lines[-1]), reported, env


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="score,files,simulate")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    summary: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        if not all(result["correct"] for result, _, _ in runs):
            raise SystemExit(f"{workload}: a run reported correct=false")
        summary["env"] = {k: v for k, v in runs[0][2].items() if k != "seed"}
        names = list(runs[0][1])
        entry = {
            "seeds": list(seeds),
            "attempted": sum(result["attempted"] for result, _, _ in runs),
            "failed": sum(result["failed"] for result, _, _ in runs),
            "metrics": {
                name: {"unit": runs[0][1][name]["unit"],
                       **summarise([reported[name]["value"] for _, reported, _ in runs])}
                for name in names
            },
        }
        traced = [run_once(workload, seed, args.seconds, 1)
                  for seed in range(args.first_seed, args.first_seed + args.trace_runs)]
        if traced:
            entry["per_layer"] = [result["metrics"] for result, _, _ in traced]
            entry["traced_process_s"] = [reported["process_s"]["value"] for _, reported, _ in traced]
        summary["workloads"][workload] = entry
        for name in names:
            m = entry["metrics"][name]
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:9s} {name:24s} median {m['median']:.6g} {m['unit']:6s} spread {spread}")
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

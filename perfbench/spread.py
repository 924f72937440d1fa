"""Run-to-run spread of the end-to-end metrics, and a recorded baseline.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --held-out 9001 \
        --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed on each workload, one run at a time,
and reports for every end-to-end metric its median, quartiles and spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
is steady when it is below a third of the metric's bound in BENCHMARK.json.
With ``--held-out`` it also records one untraced and one traced run on that
seed, which was not used while the benchmark was tuned, so that later
claims can be checked on it.  ``--out`` writes everything, with the
machine and program provenance, as JSON.  ``--previous`` takes the output
of an earlier set, keeps it, and compares the two sets' medians against the
bounds, as a second set of runs of the same code is compared with a first.
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
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "steady": spread < bound / 3.0, "values": values}


def provenance() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "program_git_sha": sha,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--previous", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report = {"provenance": provenance(), "run_seconds": seconds, "tuning_seeds": args.seeds,
              "why": {w["name"]: w["why"] for w in spec["workloads"]}, "spread": {}, "held_out": {}}
    for workload in workloads:
        results = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            rows[metric["name"]] = summarize(values, metric["bound"])
            row = rows[metric["name"]]
            print(f"{workload:<12} {metric['name']:<16} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f} bound {metric['bound']} "
                  f"{'steady' if row['steady'] else 'NOT STEADY'}", flush=True)
        report["spread"][workload] = {
            "metrics": rows,
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
        }
        if args.held_out is not None:
            report["held_out"][workload] = {
                "seed": args.held_out,
                "untraced": run_once(workload, args.held_out, seconds, 0),
                "traced": run_once(workload, args.held_out, seconds, 1),
            }
    if args.previous:
        report = compare(json.loads(args.previous.read_text()), report, spec)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


def compare(first: dict, second: dict, spec: dict) -> dict:
    """Both sets, and for each metric how much worse the second median reads."""
    between = {}
    for workload, rows in second["spread"].items():
        between[workload] = {}
        for metric in spec["end_to_end"]:
            a = first["spread"][workload]["metrics"][metric["name"]]["median"]
            b = rows["metrics"][metric["name"]]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            between[workload][metric["name"]] = {
                "worse_by": worse, "bound": metric["bound"], "within": worse <= metric["bound"]}
            print(f"{workload:<12} {metric['name']:<20} second set worse by {worse:+.4f} "
                  f"(bound {metric['bound']})")
    return {
        "provenance": first["provenance"],
        "run_seconds": first["run_seconds"],
        "why": first["why"],
        "held_out": first["held_out"] or second["held_out"],
        "sets": [{k: first[k] for k in ("tuning_seeds", "spread")},
                 {k: second[k] for k in ("tuning_seeds", "spread")}],
        "between_sets": between,
    }


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json over seeds 1-10 and summarize it.

    python3 bench/report.py --label "parent abc123" --out bench/results/mine.json

Each run is a separate `bench/run.py` process of BENCHMARK.json's
`run_seconds`, one after another.  For every end-to-end metric the report
gives the median and quartiles over the seeds and the spread (third minus
first quartile, as a share of the median), next to the bound that
BENCHMARK.json fixes.  `failed_frac` is printed from the runs' `failed` and
`attempted` counts.  One traced run per workload, on seed 1, adds the
per-layer metrics, the tracing overhead (traced against median untraced
`ops_per_s`) and each layer's share of op time.
"""

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
RUN_TIMEOUT_S = 600
SEEDS = range(1, 11)
TRACE_SEED = 1
SHARE = "  share of op time "


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {
        "label": args.label,
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, "
        f"{platform.python_implementation()} {platform.python_version()}",
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, seconds, 0)[0] for seed in SEEDS]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed_frac": [r["failed"] / r["attempted"] for r in runs],
            "metrics": {},
        }
        print(f"{workload}: correct {entry['correct']}, attempted {entry['attempted']}")
        print(f"  failed_frac {statistics.median(entry['failed_frac']):.6f}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            stats.update(values=values, unit=runs[0]["metrics"][name]["unit"], bound=bound)
            entry["metrics"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(
                f"  {name:12s} median {stats['median']:.6g} {stats['unit']}  "
                f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f} "
                f"(bound {bound}){flag}"
            )
        traced, lines = run_once(workload, TRACE_SEED, seconds, 1)
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        shares = {}
        for line in lines:
            if line.startswith(SHARE):
                name, _, value = line[len(SHARE):].partition(": ")
                shares[name] = float(value)
        untraced = entry["metrics"]["ops_per_s"]["median"]
        entry["traced"] = {
            "seed": TRACE_SEED,
            "ops_per_s": layers["traced.ops_per_s"],
            "overhead": 1 - layers["traced.ops_per_s"] / untraced,
            "shares": shares,
            "layers": layers,
        }
        print(
            f"  traced ops_per_s {layers['traced.ops_per_s']:.6g} 1/s, "
            f"overhead {entry['traced']['overhead']:.3f}"
        )
        for name, share in shares.items():
            print(f"    share {name}: {share:.4f}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one postimp benchmark workload and print its metrics.

    python3 bench/run.py --workload mix-small --seed 1 --seconds 20 --trace 0

Imports the package from `src/` next to this directory, times that import
and builds the workload's inputs from the seed (each several times, to time
set-up), then runs
its operations in a closed loop with one client: whole passes over the
inputs, each op under an in-process deadline, until `--seconds` have passed
and at least MIN_OPS ops ran.  Answers are checked after the loop.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` the loop runs under `tracing.Tracer`
and the JSON object carries the per-layer metrics instead, and the spans
are written to `bench/out/`.
"""

import argparse
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# run in a fresh interpreter: a module is imported only once per process
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import postimp; print(time.perf_counter() - t)"
)
MIN_OPS = 100
# stop the loop after this long, even mid-pass, so a run always ends in time
LOOP_CAP_S = 120.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class DeadlineMiss(Exception):
    """An op ran past its workload's per-op deadline."""


def _alarm(signum, frame):
    raise DeadlineMiss()


def import_package():
    """Import postimp from this checkout's `src/`, and nowhere else."""
    if not (SRC / "postimp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'postimp'} not found; run from a postimp checkout")
    sys.path.insert(0, str(SRC))
    import postimp

    if Path(postimp.__file__).resolve().parent != SRC / "postimp":
        sys.exit(f"error: imported postimp from {postimp.__file__}, not {SRC}")


def import_seconds():
    """Median time to import postimp, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def peak_rss_mb():
    """Peak resident memory of this process image.  Linux's ru_maxrss also
    counts the parent's memory at fork, so read VmHWM where it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def nearest_rank(ranked, q):
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def build_inputs(workload, seed, workdir):
    """Generate the inputs SETUP_REPEATS times; return the last copy, the
    median generation time, and whether every copy was identical."""
    times, digests, data = [], set(), None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        started = time.perf_counter()
        data = workload.setup(seed, str(workdir))
        times.append(time.perf_counter() - started)
        digests.add(workload.digest(data))
    return data, statistics.median(times), len(digests) == 1


def run_loop(workload, data, seconds, tracer):
    """Closed loop, one client.  Returns the op records and the wall time;
    a record is (input index, seconds, status, answer)."""
    records = []
    size = workload.ops(data)
    started = time.perf_counter()
    while True:
        for i in range(size):
            status, answer = "ok", None
            if tracer is not None:
                tracer.begin_op(len(records))
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, workload.deadline(data, i))
                try:
                    answer = workload.run(data, i)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineMiss:
                status = "deadline"
            except Exception:  # the op failed; count it and keep measuring
                status = "error: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op(None if status == "ok" else status)
            records.append((i, elapsed, status, answer))
            if time.perf_counter() - started >= LOOP_CAP_S:
                return records, time.perf_counter() - started
        wall = time.perf_counter() - started
        if wall >= seconds and len(records) >= MIN_OPS:
            return records, wall


def summarize(workload, data, records, wall):
    """Check every answer and derive the end-to-end figures."""
    check = workload.checker(data)
    failures = []
    latency = []
    for i, elapsed, status, answer in records:
        if status == "ok" and not check(i, answer):
            status = "wrong answer"
        if status != "ok":
            failures.append((i, status))
        # a failed op ranks after every completed one
        latency.append((status != "ok", elapsed))
    latency.sort()
    attempted = len(records)
    completed = attempted - len(failures)
    return {
        "attempted": attempted,
        "failures": failures,
        "ops_per_s": completed / wall,
        "op_ms_p50": nearest_rank(latency, 0.5)[1] * 1000,
        "op_ms_p90": nearest_rank(latency, 0.9)[1] * 1000,
        "ok_frac": completed / attempted,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    workdir = OUT / f"{workload.name}-seed{args.seed}"
    import_s = import_seconds()
    signal.signal(signal.SIGALRM, _alarm)
    if tracer is not None:
        tracer.install()
    try:
        data, setup_gen_s, deterministic = build_inputs(workload, args.seed, workdir)
        if tracer is not None:
            tracer.phase = "loop"
        records, wall = run_loop(workload, data, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = summarize(workload, data, records, wall)
    shutil.rmtree(workdir, ignore_errors=True)
    failures = result["failures"]
    wrong = [f for f in failures if f[1] != "deadline"]
    result["setup_s"] = import_s + setup_gen_s
    result["peak_rss_mb"] = peak_rss_mb()

    passes = result["attempted"] / workload.ops(data)
    print(
        f"{workload.name} seed {args.seed} trace {args.trace}: {result['attempted']} ops "
        f"({passes:g} passes of {workload.ops(data)}) in {wall:.2f} s, closed loop, one client"
    )
    print(f"  op: {workload.op}; loads {', '.join(workload.loads)}; bypasses {', '.join(workload.bypasses)}")
    print(
        f"  failed_frac {len(failures) / result['attempted']:.6f} "
        f"({len(failures)} failed, {len(wrong)} not by deadline)"
    )
    for i, status in sorted(set(failures)):
        print(f"  failed: {workload.describe(data, i)}: {status}")
    if not deterministic:
        print("  set-up produced different inputs on repetition", file=sys.stderr)

    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload.name}.json")
        metrics = tracer.layer_metrics(
            result["attempted"], SETUP_REPEATS, result["ops_per_s"], result["op_ms_p50"]
        )
        units = tracing.layer_metric_units()
        for name, share in tracer.op_shares().items():
            print(f"  share of op time {name}: {share:.4f}")
    else:
        metrics = {name: result[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not wrong and deterministic,
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

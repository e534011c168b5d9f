#!/usr/bin/env python3
"""The repository benchmark: runs one workload and prints its metrics.

    python3 kbench/run.py --workload offline-plan --seed 1 --seconds 15 --trace 0

Builds the kbench binary (kbench/CMakeLists.txt) from the sources in the
checkout into .bench_build/kbench, runs one workload in its own process,
prints a readable report and, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are its per-layer metrics. Exits non-zero without a result when the build
or the run fails. See kbench/README.md.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "kbench"
BINARY = BUILD_DIR / "kbench"
RESULT_PREFIX = "KBENCH_RESULT "

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# What each workload's request, throughput and result cost are called in
# its readable report (README.md, "Metrics").
WORKLOAD_NAMES = {
    "offline-plan": {
        "request": "plan_s", "throughput": ("plans_per_s", "1/s"),
        "result_cost": ("fleet_cost_per_plan", "score"),
    },
    "diurnal-control": {
        "request": "resolve_s", "throughput": ("steps_per_s", "1/s"),
        "result_cost": ("service_objective", "score"),
    },
    "telemetry-fleet": {
        "request": "detect_s", "throughput": ("samples_per_s", "1/s"),
        "result_cost": ("p95_estimate_error", "score"),
    },
}
# Figures printed for the reader only: the summed fleet cost, the migration
# moves, and replays of a traced run that did not reproduce the workload's
# own result (the replay mirrors Solve()/the controller, so a mismatch means
# it needs updating).
INFO_UNITS = {"fleet_cost": "cost", "moves": "count",
              "replay_mismatches": "count"}


class BenchError(Exception):
    pass


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile) by nearest rank: the value with exactly ten
    larger-ranked samples after it. When that value is below the median (too
    few samples), the median is reported as the tail, at percentile 50.
    """
    if not values:
        raise BenchError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10
    median = statistics.median(ordered)
    if rank < 1 or ordered[rank - 1] < median:
        return median, 50.0
    return ordered[rank - 1], 100.0 * rank / n


def load_spec(path=ROOT / "BENCHMARK.json"):
    with open(path) as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
                raise BenchError(f"bad metric name or unit: {m}")
    return spec


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the kbench binary; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_binary(workload, seed, seconds, trace):
    cmd = [str(BINARY), workload, str(seed), str(seconds), "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.startswith(RESULT_PREFIX)]
    if len(lines) != 1:
        raise BenchError(f"{workload} printed {len(lines)} result lines")
    return json.loads(lines[0][len(RESULT_PREFIX):])


def end_to_end(result):
    """The end-to-end metric values of one untraced run."""
    requests = result["request_s"]
    tail_value, _ = tail(requests)
    attempted = result["attempted"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - result["failed"] / attempted,
        "request_s_p50": statistics.median(requests),
        "request_s_tail": tail_value,
        "throughput_per_s": result["work"] / result["work_seconds"],
        "result_cost": result["result_cost"],
    }


def workload_report(workload, result, values):
    """Readable lines under the workload's own metric names."""
    names = WORKLOAD_NAMES[workload]
    requests = result["request_s"]
    tail_value, pct = tail(requests)
    lines = [
        f"{names['request']}_p50 = {values['request_s_p50']:.6g} s "
        f"(n={len(requests)})",
        f"{names['request']}_tail = {tail_value:.6g} s "
        f"(p{pct:.4g}, n={len(requests)})",
        f"{names['throughput'][0]} = {values['throughput_per_s']:.6g} "
        f"{names['throughput'][1]}",
        f"{names['result_cost'][0]} = {values['result_cost']:.6g} "
        f"{names['result_cost'][1]}",
        f"failed_frac = {result['failed'] / result['attempted']:.6g} frac "
        f"({result['failed']} of {result['attempted']} outputs)",
        f"setup_s = {values['setup_s']:.6g} s (median of "
        f"{len(result['setup_s'])} set-ups)",
        f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB",
    ]
    return lines + info_lines(result)


def info_lines(result):
    return [f"{key} = {result['info'][key]:.6g} {unit}"
            for key, unit in INFO_UNITS.items() if key in result["info"]]


def assemble(spec, workload, result, trace):
    """Returns (readable lines, metrics) for one run's result."""
    if trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(result["layers"]) - set(declared))
        if unknown:
            raise BenchError(f"undeclared per-layer metrics: {unknown}")
        values = {name: result["layers"].get(name, 0.0) for name in declared}
        lines = [f"{name} = {values[name]:.6g} {declared[name]}"
                 for name in declared]
        lines += info_lines(result)
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(result)
        if set(values) != set(declared):
            raise BenchError("end-to-end metrics do not match BENCHMARK.json")
        lines = workload_report(workload, result, values)
    for name, value in values.items():
        if not math.isfinite(value):
            raise BenchError(f"{name} is not finite")
    metrics = {name: {"value": values[name], "unit": declared[name]}
               for name in declared}
    return lines, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        build()
        result = run_binary(args.workload, args.seed, args.seconds,
                            bool(args.trace))
        lines, metrics = assemble(spec, args.workload, result, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"kbench: {e}")
        return 1
    print(f"# {args.workload} seed={args.seed} threads={result['threads']} "
          f"trace={args.trace}")
    for line in lines:
        print(f"  {line}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

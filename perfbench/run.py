"""Benchmark of arithcorr: one workload per invocation, one process, one thread.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics (run_s, setup_s, op_p50_us,
op_p99_us, peak_rss_mib) and `--trace 1` the per-layer metrics of a traced
pass.  `--workload all` runs every workload in a fresh interpreter.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The library is imported from `src/` next to this directory, never
from anywhere else; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
PACKAGE = "arithcorr"

# Set-up is repeated until this much time is spent (at least MIN, at most MAX
# times), once before and once after the passes, so that the median spans two
# moments of the host's speed.
SETUP_BUDGET_S = 1.0
SETUP_MIN_REPS, SETUP_MAX_REPS = 5, 51


class NoLibrary(Exception):
    pass


def fresh_import():
    """Import arithcorr from SRC anew, so no module state survives from before."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        lib = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".cli")
    except ImportError as exc:
        raise NoLibrary(f"cannot import {PACKAGE} from {SRC}: {exc}") from None
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise NoLibrary(f"{PACKAGE} resolved to {lib.__file__}, outside {SRC}")
    return lib


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure_setup(workload) -> list[float]:
    times = []
    spent = 0.0
    while len(times) < SETUP_MIN_REPS or (spent < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS):
        # like a fresh process, a repetition does not pay to collect the
        # modules earlier repetitions left behind
        gc.collect()
        start = time.perf_counter()
        workload.setup(fresh_import())
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return times


def run_passes(workload, seconds: float, check: oracles.Check):
    """Passes on a fresh import each, while one more fits in `seconds` (at least one)."""
    walls, latencies = [], array("q")
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        wall, ops, pass_check = workload.run_pass(fresh_import())
        walls.append(wall)
        latencies.extend(ops)
        check.add(pass_check)
    return walls, latencies


def end_to_end(workload, seconds: float, check: oracles.Check) -> dict:
    setups = measure_setup(workload)
    walls, latencies = run_passes(workload, seconds, check)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += measure_setup(workload)
    latencies = sorted(latencies)
    metrics = {
        "run_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "op_p50_us": (percentile(latencies, 0.50) / 1e3, "us", f"{len(latencies)} {workload.op_name} samples"),
        "op_p99_us": (percentile(latencies, 0.99) / 1e3, "us", f"{len(latencies)} {workload.op_name} samples"),
        "peak_rss_mib": (peak_rss_mib, "MiB", "ru_maxrss of this process"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<14} {value:>14.6f} {unit:<4} ({note})")
    return {name: (value, unit) for name, (value, unit, _note) in metrics.items()}


def traced(workload, seconds: float, seed: int, check: oracles.Check) -> dict:
    walls, _ = run_passes(workload, seconds, check)
    # the host's speed drifts, so the traced pass is compared with the
    # untraced pass just before it rather than with the median
    untraced_s = walls[-1]
    lib = fresh_import()
    tracer = tracing.Tracer(PACKAGE, lib.errors.ArithCorrError)
    tracer.install()
    for name in tracer.missing:
        print(f"trace: wrap target {name} is missing; skipped")
    traced_s, _ops, pass_check = workload.run_pass(lib)
    check.add(pass_check)
    values = tracer.layer_metrics(traced_s, untraced_s)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}.csv.gz"
    tracer.write(str(path), f"workload {workload.name}, seed {seed}")
    print(f"trace: {tracer.span_count()} spans written to {path.relative_to(ROOT)}")
    print(f"trace: untraced run_s {statistics.median(walls):.6f} s (median of {len(walls)} passes),"
          f" last untraced pass {untraced_s:.6f} s, traced pass {traced_s:.6f} s")
    called = [(module, path) for module, path in tracing.TARGETS if values[f"{module}.{path}.calls"]]
    called.sort(key=lambda t: -values[f"{t[0]}.{t[1]}.self_s"])
    for module, path in called:
        name = f"{module}.{path}"
        print(f"{name:<46} calls {values[name + '.calls']:>8}  busy {values[name + '.busy_s']:>10.6f} s"
            f"  self {values[name + '.self_s']:>10.6f} s  errors {values[name + '.errors']}")
    for module in tracing.MODULES:
        print(f"{module + '.self_s':<20} {values[module + '.self_s']:>12.6f} s  share {values[module + '.share']:.4f}")
    print(f"{'trace.overhead_frac':<20} {values['trace.overhead_frac']:>12.6f}")
    return {name: (values[name], unit) for name, unit in tracing.layer_metric_names()}


def run_one(args) -> int:
    workload = workloads.make(args.workload, args.seed)
    check = oracles.Check()
    try:
        fresh_import()
    except NoLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    if args.trace:
        metrics = traced(workload, args.seconds, args.seed, check)
    else:
        metrics = end_to_end(workload, args.seconds, check)
    frac = check.failed / check.attempted
    print(f"{'fail_frac':<14} {frac:>14.6f}      ({check.failed} of {check.attempted} operations failed)")
    for note in check.notes[:20]:
        print(f"check: {note}")
    result = {
        "correct": check.failed == 0 and check.attempted > 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, in turn."""
    status = 0
    for name in workloads.NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, text=True, capture_output=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

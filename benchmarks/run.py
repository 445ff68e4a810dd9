#!/usr/bin/env python3
"""Run one invgame benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload markov_freq --seed 1 --seconds 10 --trace 0

The run sets up the workload (inputs and one untimed warm-up op), then runs
whole cycles over the workload's problem set, in an order drawn from
--seed, until the timed ops add up to --seconds.  Every op's outputs are
checked after it returns, outside the timed region; an op that raises or
fails a check counts as failed.

With --trace 0 the metrics are the end-to-end ones.  Before the timed ops,
setup_probe.py times SETUPS set-ups, each in a fresh interpreter, and
reports their peak memory.  A calibration kernel runs before the first op
and, after each op's check, for a tenth of the op's time; the mean op time
is reported in units of the mean kernel time, and the wall-time ops_per_s
and op_ms_p50 on the line above the result.

With --trace 1 each op runs twice, untraced and traced, and the metrics are
the per-layer ones from the traced twins; trace.overhead_frac compares the
two.  The spans are written to .bench_run/trace-<workload>-seed<seed>.jsonl.

Metric names and units are those of BENCHMARK.json.  Standard output ends
with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUPS = 3
CALIBRATION_SHARE = 0.1
# Kernel time on the 2-vCPU Xeon VM the baseline was recorded on; setup_s
# is given in seconds at that kernel speed.
KERNEL_NOMINAL_S = 0.03


class Outcome:
    """Attempted and failed ops, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, instance, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"instance {instance}: {p}" for p in problems]


def run_op(workload, instance, outcome, tracer=None):
    """Run one op, then check it.  Returns (seconds, completed)."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                outputs = workload.op(instance)
            else:
                outputs = tracer.run(workload.op, instance)
    except Exception as err:  # an op that raises is a failed op
        outcome.record(instance, [f"op raised {err!r}"])
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    try:
        problems = workload.check(instance, outputs)
    except Exception as err:  # so is one whose outputs cannot be checked
        problems = [f"check raised {err!r}"]
    outcome.record(instance, problems)
    return elapsed, True


def probe_setups(name, outcome):
    """SETUPS set-ups of workload `name`, each timed by setup_probe.py in a
    fresh interpreter; every warm-up op is recorded in `outcome`."""
    probes = []
    for i in range(SETUPS):
        work_dir = RUN_DIR / f"setup-{os.getpid()}-{i}"
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(work_dir)],
                capture_output=True, text=True, timeout=150,
            )
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"setup_probe.py exited with {done.returncode}")
        probe = json.loads(done.stdout.splitlines()[-1])
        outcome.record(f"{probe['instance']} (set-up {i + 1})", probe["problems"])
        probes.append(probe)
    return probes


def calibration_kernel():
    """Fixed work that uses no invgame code, about 30 ms on a 2-vCPU Xeon VM,
    in four parts of similar length: a small-array fixed-point iteration like
    the QRE solver's, a cumulative sum and sort of 2e5 floats, a bincount and
    a broadcast comparison on 3e5 integers, and an interpreter loop.  Of the
    kernels tried, this mix followed the op times of all four workloads
    best."""
    import numpy as np

    rng = np.random.default_rng(0)
    q = rng.standard_normal((5, 5))
    x = y = np.full(5, 0.2)
    for _ in range(700):
        a = np.exp(q @ y)
        b = np.exp(-q.T @ x)
        x = 0.5 * (x + a / a.sum())
        y = 0.5 * (y + b / b.sum())
    np.sort(np.cumsum(rng.random(200_000)))
    draws = rng.integers(0, 20, 300_000)
    np.bincount(draws, minlength=20)
    (rng.random((60_000, 1)) > np.linspace(0.0, 1.0, 5)).sum(axis=1)
    return float(x[0]) + sum(i * i % 7 for i in range(60_000))


def calibrate(seconds):
    """Kernel times of calibration_kernel runs adding up to `seconds`, at least one."""
    times = []
    while not times or sum(times) < seconds:
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return times


def measure(workload, pool, seed, seconds, outcome, tracer=None):
    """Whole cycles over the pool until the timed ops reach `seconds`.

    Returns the untraced and the traced (seconds, completed) of every op,
    and for untraced runs the calibration kernel times.  Traced runs pair
    each op with an untraced twin, alternating which runs first.
    """
    order = random.Random(seed)
    untraced, traced = [], []
    calibrations = [] if tracer else calibrate(0.0)
    while sum(t for t, _ in untraced + traced) < seconds:
        for k, instance in enumerate(order.sample(pool, len(pool))):
            if tracer is None:
                untraced.append(run_op(workload, instance, outcome))
                calibrations += calibrate(CALIBRATION_SHARE * untraced[-1][0])
            elif k % 2 == 0:
                untraced.append(run_op(workload, instance, outcome))
                traced.append(run_op(workload, instance, outcome, tracer))
            else:
                traced.append(run_op(workload, instance, outcome, tracer))
                untraced.append(run_op(workload, instance, outcome))
    return untraced, traced, calibrations


def wall_times(ops):
    """(ops_per_s, op_ms_p50): completed ops per second of timed op time, and
    the median time of a completed op."""
    done = [t for t, completed in ops if completed]
    total = sum(t for t, _ in ops)
    return (len(done) / total if total else 0.0), (1000 * statistics.median(done) if done else 0.0)


def end_to_end(ops, probes, calibrations):
    """The end-to-end metrics.  Times are normalised by the calibration
    kernel, as the machine's speed wanders by up to 2x for the same op and
    the kernel's time follows it: the mean op time is given in kernel times,
    and each set-up's time in seconds at a kernel time of KERNEL_NOMINAL_S."""
    ops_per_s = wall_times(ops)[0]
    return {
        "op_cost_mean": 1 / ops_per_s / statistics.mean(calibrations) if ops_per_s else 0.0,
        "setup_s": statistics.median(
            p["setup_s"] * KERNEL_NOMINAL_S / p["kernel_s"] for p in probes
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in probes),
    }


def per_layer(names, tracer, untraced, traced):
    """The per-layer metrics `names`: those the run itself measures, the
    rest from the tracer."""
    done = sorted(1000 * t for t, completed in untraced if completed)
    tail = statistics.quantiles(done, n=10, method="inclusive")[-1] if len(done) > 1 else max(done, default=0.0)
    own = {
        "trace.overhead_frac": sum(t for t, _ in traced) / sum(t for t, _ in untraced) - 1,
        "op.ms_p50": wall_times(untraced)[1],
        "op.ms_p90": tail,
    }
    return {**own, **tracer.metrics([name for name in names if name not in own])}


def machine_info(numpy_version):
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def layer_table(tracer) -> str:
    table = tracer.table()
    ops = max(tracer.ops, 1)
    total = sum(row["self_s"] for row in table.values())
    lines = [f"{'per op':<48}{'calls':>9}{'busy_s':>11}{'self_s':>11}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:<48}{row['calls'] / ops:>9.1f}{row['busy_s'] / ops:>11.4f}{row['self_s'] / ops:>11.4f}"
        )
    lines.append(f"{'sum of self_s':<48}{'':>9}{'':>11}{total / ops:>11.4f}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, make_catalog=None):
    """Run the workload; `make_catalog(work_dir)` replaces the catalog of
    workloads.py, so tests can run them at small sizes."""
    args = parse_args(argv)
    if not (SRC / "invgame" / "__init__.py").is_file():
        print(f"no invgame sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = RUN_DIR / f"work-{os.getpid()}"
    try:
        catalog = (make_catalog or workloads.catalog)(work_dir)
        if args.workload not in catalog:
            print(f"unknown workload {args.workload!r}; choose from {sorted(catalog)}", file=sys.stderr)
            return 2
        workload = catalog[args.workload]
        pool = list(workloads.POOL)
        outcome = Outcome()
        workload.setup()
        run_op(workload, workloads.WARMUP_INSTANCE, outcome)
        if args.trace:
            from tracing import Tracer

            specs = spec["per_layer"]
            tracer = Tracer()
            untraced, traced, _ = measure(workload, pool, args.seed, args.seconds, outcome, tracer)
            values = per_layer([m["name"] for m in specs], tracer, untraced, traced)
            RUN_DIR.mkdir(exist_ok=True)
            tracer.write(RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
            print(layer_table(tracer), file=sys.stderr)
            ops, setup_note = untraced, ""
        else:
            specs = spec["end_to_end"]
            probes = probe_setups(args.workload, outcome)
            ops, _, calibrations = measure(workload, pool, args.seed, args.seconds, outcome)
            values = end_to_end(ops, probes, calibrations)
            setup_note = f", set-up wall times {[round(p['setup_s'], 4) for p in probes]} s"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    ops_per_s, op_ms_p50 = wall_times(ops)
    print("machine " + json.dumps(machine_info(numpy.__version__)))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: ops_per_s={ops_per_s:.4g} 1/s, "
        f"op_ms_p50={op_ms_p50:.4g} ms over n={sum(c for _, c in ops)} untraced ops, "
        f"failed_frac={outcome.failed / outcome.attempted:.4g} frac "
        f"({outcome.failed}/{outcome.attempted}, warm-up ops included){setup_note}"
    )
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

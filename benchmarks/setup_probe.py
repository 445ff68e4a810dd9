#!/usr/bin/env python3
"""One timed set-up of a benchmark workload, in a fresh interpreter.

    python3 benchmarks/setup_probe.py markov_freq .bench_run/setup-1

Times the import of invgame, building the workload's inputs in the given
work directory and one warm-up op, from the first line of this script.  It
then reads the process's peak resident memory, times the calibration kernel
of run.py for KERNEL_SECONDS right after the op, and checks the op's
outputs.  It prints one JSON line: the warm-up instance, setup_s,
peak_rss_mb, the median kernel time kernel_s, and the problems the check
found.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

KERNEL_SECONDS = 0.3


def main(name, work_dir):
    workload = workloads.catalog(Path(work_dir))[name]
    workload.setup()
    problems = []
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            outputs = workload.op(workloads.WARMUP_INSTANCE)
    except Exception as err:  # reported as a failed warm-up op
        problems.append(f"warm-up op raised {err!r}")
    setup_s = time.perf_counter() - STARTED
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from run import calibrate

    kernel_s = statistics.median(calibrate(KERNEL_SECONDS))
    if not problems:
        try:
            problems = workload.check(workloads.WARMUP_INSTANCE, outputs)
        except Exception as err:  # so is one whose outputs cannot be checked
            problems.append(f"check raised {err!r}")
    print(json.dumps({"instance": workloads.WARMUP_INSTANCE, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                      "kernel_s": kernel_s, "problems": problems}))


if __name__ == "__main__":
    main(*sys.argv[1:])

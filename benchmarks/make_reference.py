#!/usr/bin/env python3
"""Write reference.json: the per-size means that the markov workloads
produce on the warm-up instance and on every instance of the problem set.

The benchmark compares every markov op with these means, so regenerate the
file only in a change that is meant to move the results:

    python3 benchmarks/make_reference.py
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def build_reference(catalog) -> dict:
    """{workload: {instance: per-size means}} for the markov workloads of
    `catalog`, on the warm-up instance and every pool instance."""
    reference = {}
    for name, workload in catalog.items():
        if not isinstance(workload, workloads.MarkovExperiment):
            continue
        workload.setup()
        reference[name] = {}
        for instance in (workloads.WARMUP_INSTANCE, *workloads.POOL):
            with contextlib.redirect_stdout(io.StringIO()):
                code = workload.op(instance)
            problems = workload.check(instance, code)
            if problems:
                raise RuntimeError(f"{name} instance {instance}: {problems}")
            reference[name][str(instance)] = workload.summary()
    return reference


def main():
    work_dir = ROOT / ".bench_run" / "reference"
    try:
        reference = build_reference(workloads.catalog(work_dir, reference={}))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

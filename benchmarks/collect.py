#!/usr/bin/env python3
"""Run the benchmark's workloads over several seeds and keep the results.

    python3 benchmarks/collect.py --seeds 1-10 --out results.json
    python3 benchmarks/collect.py --seeds 7                  # all workloads once
    python3 benchmarks/collect.py --seeds 1 --trace --out layers.json

Runs the command of BENCHMARK.json for every seed and workload (all
workloads of one seed before the next seed), each for BENCHMARK.json's
run_seconds, then prints each metric's median and spread over the seeds
with its unit, and failed_frac.  --out writes every run's result with the
machine info; compare.py reads such files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import ROOT, spec, summarize


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: (its result line plus seed and wall time, machine info)."""
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(int(trace))]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    machine = next(json.loads(line[len("machine "):]) for line in lines if line.startswith("machine "))
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed}: {wall:.1f} s, {lines[-2]}", flush=True)
    return {"seed": seed, "wall_s": wall, **result}, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", action="store_true", help="collect the per-layer metrics")
    parser.add_argument("--out", help="write the results to this JSON file")
    args = parser.parse_args(argv)
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    results = {"trace": int(args.trace), "run_seconds": bench["run_seconds"],
               "runs": {name: [] for name in names}}
    for seed in parse_seeds(args.seeds):
        for name in names:
            run, results["machine"] = run_once(bench, name, seed, args.trace)
            results["runs"][name].append(run)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    summarize(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Summarize a result file written by collect.py, or compare two of them.

    python3 benchmarks/compare.py base.json             # medians and spreads
    python3 benchmarks/compare.py base.json new.json    # new against base

For each workload and metric the value is the median over the file's runs
(one run per seed) and the spread is the distance between the first and
third quartile, as statistics.quantiles(values, n=4) gives them, as a share
of the median.  Comparing two files prints one row per workload.  An
end-to-end metric is WORSE when the new median is worse than the base median
by more than the metric's bound in BENCHMARK.json, and unresolved when either
file's spread exceeds the bound, unless every new run is better than every
base run.  Per-layer metrics have no bound and are listed as changes only.
The exit status is 1 when a metric is WORSE or an op failed, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    return json.loads(Path(path).read_text())


def spec() -> dict:
    return load(ROOT / "BENCHMARK.json")


def metric_specs(results: dict) -> list[dict]:
    bench = spec()
    return bench["per_layer"] if results["trace"] else bench["end_to_end"]


def values(runs: list[dict], name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in runs]


def median_spread(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], 0.0
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def failed_frac(runs: list[dict]) -> str:
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    return f"failed_frac {failed / attempted:.3g} frac ({failed}/{attempted})"


def summarize(results: dict) -> None:
    """Print every metric's median and spread, workload by workload."""
    print("machine " + json.dumps(results["machine"]))
    for workload, runs in results["runs"].items():
        print(f"{workload}: {len(runs)} runs, {failed_frac(runs)}")
        for metric in metric_specs(results):
            median, spread = median_spread(values(runs, metric["name"]))
            note = ""
            if "bound" in metric:
                bound = metric["bound"]
                note = "  over bound" if spread > bound else "  over bound/3" if spread > bound / 3 else ""
                note = f"  (bound {bound:g}){note}"
            print(f"  {metric['name']:<58} {median:>12.6g} {metric['unit']:<6} spread {spread:6.2%}{note}")


def verdict(metric: dict, base: list[float], new: list[float]) -> tuple[float, str]:
    """(share by which new is worse than base, verdict) for one metric."""
    sign = 1 if metric["better"] == "lower" else -1
    base_median, base_spread = median_spread(base)
    new_median, new_spread = median_spread(new)
    worse = sign * (new_median - base_median) / base_median if base_median else 0.0
    if "bound" not in metric:
        return worse, ""
    bound = metric["bound"]
    if max(base_spread, new_spread) > bound:
        all_better = all(sign * n < sign * b for n in new for b in base)
        return worse, "better" if all_better else "unresolved"
    return worse, "WORSE" if worse > bound else "ok"


def compare(base: dict, new: dict) -> int:
    """Print one row per workload (per-layer files: one line per metric);
    return 1 when a metric got WORSE or an op failed."""
    status = 0
    metrics = metric_specs(base)
    print("base " + json.dumps(base["machine"]))
    print("new  " + json.dumps(new["machine"]))
    print("change is the share by which the new median is worse (+) or better (-)")
    if not base["trace"]:
        print(f"{'workload':<20}" + "".join(f"{m['name']:>22}" for m in metrics))
    for workload, base_runs in base["runs"].items():
        new_runs = new["runs"].get(workload)
        if not new_runs:
            print(f"{workload:<20} missing from the new file")
            status = 1
            continue
        cells = []
        for metric in metrics:
            name = metric["name"]
            worse, word = verdict(metric, values(base_runs, name), values(new_runs, name))
            cells.append(f"{worse:+.2%} {word}".rstrip())
            status |= word == "WORSE"
        if any(run["failed"] for run in new_runs):
            status = 1
        if base["trace"]:
            print(f"{workload}: new {failed_frac(new_runs)}")
            for metric, cell in zip(metrics, cells):
                base_median = median_spread(values(base_runs, metric["name"]))[0]
                new_median = median_spread(values(new_runs, metric["name"]))[0]
                print(f"  {metric['name']:<58} {base_median:>12.6g} -> {new_median:<12.6g} {metric['unit']:<6} {cell}")
        else:
            print(f"{workload:<20}" + "".join(f"{c:>22}" for c in cells) + f"   new {failed_frac(new_runs)}")
    return status


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) == 1:
        summarize(load(paths[0]))
        return 0
    if len(paths) == 2:
        return compare(load(paths[0]), load(paths[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

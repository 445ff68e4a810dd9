"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of invgame's modules from outside.  For
the duration of one traced op, every attribute of a loaded module, and every
class attribute, that holds one of the functions in LAYERS is replaced by a
wrapper, so calls through `from invgame.x import f` bindings are seen too.
Each call records a span (name, start, end, parent) in memory; the spans are
written out when the run ends.  A span's self time is its duration minus the
durations of its direct child spans.  The root span of every op is named
"op", so the self times of all spans add up to the op time and the root's
self time is the part no traced layer covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict


def _count_outside(counters, name, args, result):
    counters[name + ".outside"] += result[1] > 0


def _count_feasible(counters, name, args, result):
    counters[name + ".feasible"] += bool(result[1])


def _count_mle(counters, name, args, result):
    counters[name + ".iters"] += result.iterations
    counters[name + ".converged"] += bool(result.converged)


def _count_bytes(counters, name, args, result):
    counters["sampling.dataset_bytes"] += os.path.getsize(args[1])


# "<module>.<function>" or "<module>.<Class>.<method>", with an optional
# observer that derives counts from the call's arguments and result.  Some
# are traced only so that their time is not counted as their caller's self
# time.  Tracer.metrics reads the metrics that BENCHMARK.json names from the
# spans and counters.
LAYERS = {
    "matrix_game.solve_qre": None,
    "markov_game.backward_qre": None,
    "markov_game.visit_distributions": None,
    "sampling.sample_episodes": None,
    "sampling.sample_matrix_actions": None,
    "sampling.frequency_estimate_markov": None,
    "sampling.frequency_estimate_matrix": None,
    "sampling.empirical_state_distribution": None,
    "sampling.write_dataset": _count_bytes,
    "sampling.read_dataset": None,
    "inverse_matrix.build_confidence_set": None,
    "inverse_matrix.feasible_set_from_policies": None,
    "inverse_matrix.hausdorff_estimate": None,
    "inverse_matrix.ConfidenceSet.project": _count_outside,
    "inverse_matrix.ConfidenceSet.min_norm_member": _count_feasible,
    "inverse_matrix.ConfidenceSet.sample_members": None,
    "inverse_matrix.FeasibleSet.project": None,
    "inverse_matrix.FeasibleSet.sample": None,
    "inverse_markov.build_stepwise_system": None,
    "inverse_markov.stepwise_confidence_sets": None,
    "inverse_markov.ridge_fit": None,
    "inverse_markov.mle_fit": _count_mle,
    "inverse_markov.recover_rewards": None,
    "inverse_markov.recover_rewards_mle": None,
    "metrics.qre_discrepancy": None,
    "metrics.qre_discrepancy_markov": None,
    "metrics.reward_metric_D": None,
    "metrics.reward_metric_D1": None,
    "experiments.markov_model": None,
    "experiments.setup2_model": None,
    "experiments.run_markov_rep": None,
    "cli.main": None,
    "cli.load_config": None,
    "cli.run_experiment": None,
    "cli.summarize": None,
    "cli.emit_csv": None,
}

CALLS, BUSY, SELF = "calls", "busy_s", "self_s"
ROOT = "op"


class Tracer:
    """Records spans of traced ops; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._patches = self._find_patches()

    def _wrap(self, name, fn, observe):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(counters, name, args, result)
            return result

        return traced

    def _find_patches(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        patches, functions = [], {}
        for name, observe in LAYERS.items():
            module_name, _, path = name.partition(".")
            owner = importlib.import_module(f"invgame.{module_name}")
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original, self._wrap(name, original, observe)))
            else:
                original = getattr(owner, path)
                functions[id(original)] = (original, self._wrap(name, original, observe))
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, *hit))
        return patches

    def run(self, fn, *args):
        """Run fn(*args) as one traced op under a root span."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self._wrap(ROOT, fn, None)(*args)
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)
            self.ops += 1

    def table(self) -> dict[str, dict[str, float]]:
        """Per function: calls, busy_s and self_s summed over all ops."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {CALLS: 0, BUSY: 0.0, SELF: 0.0}
        )
        for (name, start, end, _), child in zip(self.spans, covered):
            row = table[name]
            row[CALLS] += 1
            row[BUSY] += end - start
            row[SELF] += end - start - child
        return dict(table)

    def metrics(self, names) -> dict[str, float]:
        """The per-layer metrics `names`, per op.  A name is a function of
        LAYERS followed by calls, busy_s or self_s; or by <counter>_frac, its
        counter as a share of the function's calls (0 when it was not
        called); or a counter, per op; or trace.uncovered_frac, the root
        spans' share of op time."""
        table = self.table()
        ops = max(self.ops, 1)
        empty = {CALLS: 0, BUSY: 0.0, SELF: 0.0}
        out = {}
        for name in names:
            layer, _, measure = name.rpartition(".")
            if name == "trace.uncovered_frac":
                root = table.get(ROOT, empty)
                out[name] = root[SELF] / root[BUSY] if root[BUSY] else 0.0
            elif layer in LAYERS and measure in empty:
                out[name] = table.get(layer, empty)[measure] / ops
            elif layer in LAYERS and measure.endswith("_frac"):
                calls = table.get(layer, empty)[CALLS]
                out[name] = self.counters[name[: -len("_frac")]] / calls if calls else 0.0
            else:
                out[name] = self.counters[name] / ops
        return out

    def write(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import make_reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from invgame import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_catalog(reference=None):
    def make(work_dir):
        return {
            "markov_freq": workloads.MarkovExperiment(
                "markov_freq", "frequency", (300, 600), work_dir,
                None if reference is None else reference["markov_freq"],
            ),
            "markov_mle": workloads.MarkovExperiment("markov_mle", "mle", (300,), work_dir),
            "setup2_geometry": workloads.Setup2Geometry(samples=(100, 1000), k=3, cloud=20),
            "dataset_roundtrip": workloads.DatasetRoundtrip(work_dir, episodes=300),
        }

    return make


@pytest.fixture(autouse=True)
def small_pool(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "POOL", (1, 2))
    monkeypatch.setattr(run, "RUN_DIR", tmp_path / "run")
    monkeypatch.setattr(run, "SETUPS", 1)  # set-up probes run at full size


def bench(workload, trace=0, make_catalog=None):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.001", "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv, make_catalog or tiny_catalog()) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def units(specs):
    return {m["name"]: m["unit"] for m in specs}


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result = bench(workload)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    # the warm-up ops, in process and in each set-up probe, and two pool instances
    assert result["attempted"] == 1 + run.SETUPS + 2


def test_every_per_layer_metric_is_printed_and_measured_somewhere():
    seen = set()
    for workload in NAMES:
        result = bench(workload, trace=1)
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units(SPEC["per_layer"])
        assert result["correct"] and result["failed"] == 0
        # the warm-up op and each pool instance untraced and traced
        assert result["attempted"] == 1 + 4
        seen |= {name for name, m in result["metrics"].items() if m["value"] != 0}
    # a name that matches no traced function or counter reads 0 everywhere
    assert seen == set(units(SPEC["per_layer"]))


def test_a_changed_dataset_row_is_a_failed_op(monkeypatch):
    write = cli.write_dataset

    def write_then_change_a_row(data, path):
        write(data, path)
        lines = Path(path).read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[3] = str((int(fields[3]) + 1) % 5)  # action_a of the first row
        lines[1] = ",".join(fields)
        Path(path).write_text("".join(lines))

    monkeypatch.setattr(cli, "write_dataset", write_then_change_a_row)
    result = bench("dataset_roundtrip")
    assert not result["correct"]
    # every op but the set-up probes' warm-ups, which write unchanged files
    assert result["failed"] == result["attempted"] - run.SETUPS


def test_a_perturbed_reference_fails_only_its_instance(tmp_path):
    reference = make_reference.build_reference(tiny_catalog()(tmp_path))
    assert bench("markov_freq", make_catalog=tiny_catalog(reference))["failed"] == 0

    perturbed = copy.deepcopy(reference)
    means = perturbed["markov_freq"]["1"]["600"]
    means["theta_err"] *= 1 + 1e-6
    result = bench("markov_freq", make_catalog=tiny_catalog(perturbed))
    assert not result["correct"]
    assert result["failed"] == 1  # instance 1 runs once; the warm-up ops pass


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

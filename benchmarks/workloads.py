"""The four benchmark workloads.

Every workload is a closed loop in one process and one thread: the next op
starts when the previous one has returned.  One op is one repetition of an
invgame protocol on one problem instance, driven from outside through
`invgame.cli.main` or the public API.  Instance j is what the library builds
from experiment seed j, rep 0.

Every run visits the same problem set, instances 1..8, in an order drawn
from the workload seed.  Op times differ by instance (2.0 s to 4.8 s on
setup2_geometry), so a run of a few seconds that drew fresh instances from
its seed would measure a different amount of work on each seed.  Instance 0
is the warm-up op of every run, and the markov workloads compare each op's
per-size means with a stored reference.

`op(instance)` runs the timed work and returns its outputs;
`check(instance, outputs)` returns a list of problems, empty when the
outputs are correct.  Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from invgame import cli, experiments
from invgame.inverse_markov import (
    InversionConfig,
    recover_rewards,
    stepwise_confidence_sets,
)
from invgame.inverse_matrix import (
    ConfidenceSet,
    build_confidence_set,
    feasible_set_from_policies,
    hausdorff_estimate,
    reconstruct_payoff,
)
from invgame.markov_game import backward_qre
from invgame.matrix_game import MatrixGameSpec, PolicyPair, qre_residual, solve_qre
from invgame.sampling import (
    frequency_estimate_matrix,
    read_dataset,
    sample_episodes,
    sample_matrix_actions,
    stream,
)

WARMUP_INSTANCE = 0
POOL = tuple(range(1, 9))
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

TRUTH_RESIDUAL_MAX = 1e-10
# The library certifies membership with this slack (ConfidenceSet.project,
# min_norm_member, sample_members), so the checks use the same one.
MEMBER_SLACK = 1e-12
# summary.csv holds 10 significant digits; this admits solver changes that
# move results at the 1e-13 level and nothing larger.
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-12


def markov_truth(instance: int):
    """The markov instance the CLI builds for seed `instance`, rep 0, with its
    true equilibrium and the problems found in that equilibrium."""
    model = experiments.markov_model(stream(instance, 0))
    spec = model.to_tabular()
    truth, values = backward_qre(spec, tol=1e-12)
    problems = []
    for h in range(spec.H):
        for s in range(spec.S):
            residual = qre_residual(
                MatrixGameSpec(values.Q[h, s], spec.eta),
                PolicyPair(truth.mu[h, s], truth.nu[h, s]),
            )
            if not residual <= TRUTH_RESIDUAL_MAX:
                problems.append(f"true QRE residual {residual:.3g} at h={h} s={s}")
    return model, spec, truth, problems


def read_summary(path: Path) -> dict[str, dict[str, float]]:
    """summary.csv as {sample size: {metric: mean}}."""
    means: dict[str, dict[str, float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            means.setdefault(row["sample_size"], {})[row["metric"]] = float(row["mean"])
    return means


def reference_problems(expected: dict, actual: dict) -> list[str]:
    if set(expected) != set(actual):
        return [f"sample sizes {sorted(actual)} differ from reference {sorted(expected)}"]
    problems = []
    for size, metrics in expected.items():
        if set(metrics) != set(actual[size]):
            problems.append(f"metrics at N={size} differ from reference")
            continue
        for metric, value in metrics.items():
            got = actual[size][metric]
            if not math.isclose(got, value, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL):
                problems.append(f"{metric} at N={size}: {got!r} != reference {value!r}")
    return problems


class MarkovExperiment:
    """`invgame experiment --kind markov`, one rep per op, on the S=4,
    m=n=5, H=6 instance."""

    def __init__(self, name, estimator, samples, work_dir, reference=None):
        self.name = name
        self.estimator = estimator
        self.samples = tuple(samples)
        self.work_dir = Path(work_dir)
        self.reference = reference  # {instance: summary means}, None skips

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config = self.work_dir / f"{self.name}.json"
        self.config.write_text(
            json.dumps(
                {
                    "kind": "markov",
                    "policy_estimator": self.estimator,
                    "samples": list(self.samples),
                    "reps": 1,
                }
            )
        )
        self.out = self.work_dir / self.name

    def op(self, instance):
        return cli.main(
            [
                "experiment",
                "--config", str(self.config),
                "--seed", str(instance),
                "--out", str(self.out),
            ]
        )

    def summary(self):
        return read_summary(self.out / "summary.csv")

    def check(self, instance, code):
        if code != 0:
            return [f"experiment exited with {code}"]
        problems = markov_truth(instance)[3]
        with open(self.out / "runs.csv", newline="") as fh:
            runs = list(csv.DictReader(fh))
        if [int(r["sample_size"]) for r in runs] != list(self.samples):
            problems.append("runs.csv does not hold one row per sample size")
        if any(r[f] == "" for r in runs for f in cli.METRIC_FIELDS):
            problems.append("runs.csv holds a failed record")
        means = self.summary()
        if not all(math.isfinite(v) for m in means.values() for v in m.values()):
            problems.append("summary.csv holds a non-finite mean")
        if self.reference is not None:
            expected = self.reference.get(str(instance))
            if expected is None:
                problems.append(f"no stored reference for instance {instance}")
            else:
                problems += reference_problems(expected, means)
        return problems


@dataclass
class GeometryOutputs:
    spec: MatrixGameSpec
    truth: PolicyPair
    sets: list[ConfidenceSet]
    members: list[tuple[np.ndarray, bool]]
    cloud: np.ndarray
    distances: list[float]


class Setup2Geometry:
    """Confidence-set geometry on setup2 (6x6, d=6, kappa = 1e3/N, M = 4)."""

    name = "setup2_geometry"

    def __init__(self, samples=(10**3, 10**4, 10**5), k=64, cloud=1000):
        self.samples = tuple(samples)
        self.k = k
        self.cloud = cloud

    def setup(self):
        pass

    def op(self, instance):
        eta, cap = experiments.ETA, experiments.SETUP2_NORM_SQ_CAP
        model = experiments.setup2_model(stream(instance, 0))
        spec = MatrixGameSpec(reconstruct_payoff(model.theta, model.features), eta)
        truth = solve_qre(spec, tol=1e-12)
        data = sample_matrix_actions(truth, max(self.samples), instance, 0)
        feasible = feasible_set_from_policies(model.features, truth, eta, cap)
        sets, members, distances = [], [], []
        for n_samples in self.samples:
            est = frequency_estimate_matrix(data.prefix(n_samples), spec.m, spec.n)
            cset = build_confidence_set(
                est, model.features, eta, experiments.kappa_rule(n_samples), cap
            )
            members.append(cset.min_norm_member())
            distances.append(hausdorff_estimate(feasible, cset, k=self.k, seed=instance))
            sets.append(cset)
        for coarse, fine in zip(sets, sets[1:]):
            distances.append(hausdorff_estimate(coarse, fine, k=self.k, seed=instance))
        cloud = sets[-1].sample_members(self.cloud, stream(instance, 1))
        feasible_cloud = feasible.sample(self.cloud, stream(instance, 2))
        distances.append(
            hausdorff_estimate(cloud, feasible_cloud, k=self.cloud, seed=instance)
        )
        return GeometryOutputs(spec, truth, sets, members, cloud, distances)

    def check(self, instance, out):
        problems = []
        residual = qre_residual(out.spec, out.truth)
        if not residual <= TRUTH_RESIDUAL_MAX:
            problems.append(f"true QRE residual {residual:.3g}")
        for cset, (member, feasible) in zip(out.sets, out.members):
            if feasible and not cset.contains(member, slack=MEMBER_SLACK):
                problems.append(f"min_norm_member reported feasible is outside (kappa={cset.kappa:g})")
        residuals = ((out.cloud @ out.sets[-1].X.T - out.sets[-1].y) ** 2).sum(axis=1)
        norms = (out.cloud**2).sum(axis=1)
        if (residuals > out.sets[-1].kappa + MEMBER_SLACK).any() or (
            norms > out.sets[-1].norm_sq_cap + MEMBER_SLACK
        ).any():
            problems.append("sample_members returned a point outside the set")
        if not all(math.isfinite(d) and d >= 0 for d in out.distances):
            problems.append(f"Hausdorff estimates not finite and nonnegative: {out.distances}")
        # the origin and a point outside the norm ball
        queries = (np.zeros(out.sets[0].X.shape[1]), 2.0 * experiments.SETUP2_THETA)
        for cset in out.sets:
            for point in queries:
                member, distance, feasible = cset.project(point)
                exact = float(np.linalg.norm(point - member))
                if not math.isclose(distance, exact, rel_tol=1e-12, abs_tol=1e-15):
                    problems.append(f"project distance {distance!r} != |point - member| {exact!r}")
                if feasible and not cset.contains(member, slack=MEMBER_SLACK):
                    problems.append("project reported feasible member outside the set")
        return problems


class DatasetRoundtrip:
    """`invgame simulate --kind markov` then `invgame invert-markov` on that file."""

    name = "dataset_roundtrip"

    def __init__(self, work_dir, episodes=20000):
        self.work_dir = Path(work_dir)
        self.episodes = episodes

    def setup(self):
        self.out = self.work_dir / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.dataset = self.out / "dataset.csv"
        self.inversion = self.out / "inversion.json"

    def op(self, instance):
        kind = ["--kind", "markov", "--seed", str(instance)]
        simulated = cli.main(
            ["simulate", *kind, "--samples", str(self.episodes), "--out", str(self.out)]
        )
        inverted = cli.main(
            ["invert-markov", *kind, "--data", str(self.dataset), "--out", str(self.inversion)]
        )
        return simulated, inverted

    def check(self, instance, codes):
        if codes != (0, 0):
            return [f"simulate / invert-markov exited with {codes}"]
        model, spec, truth, problems = markov_truth(instance)
        initial = np.full(spec.S, 1.0 / spec.S)
        data = sample_episodes(spec, truth, initial, self.episodes, instance, 0)
        read = read_dataset(self.dataset)
        for field in ("states", "actions_a", "actions_b", "next_states"):
            if not np.array_equal(getattr(read, field), getattr(data, field)):
                problems.append(f"dataset read back differs from the sampled {field}")
        config = InversionConfig(
            features=model.features,
            eta=experiments.ETA,
            gamma=1.0,
            kappa=1e3 / self.episodes,
            ridge_lambda=experiments.MARKOV_RIDGE_LAMBDA,
            theta_norm_cap=experiments.MARKOV_THETA_CAP,
        )
        sample = recover_rewards(data, config)[0]
        result = json.loads(self.inversion.read_text())
        for key, expected in (
            ("theta_hat", sample.thetas),
            ("feasible", sample.feasible),
            ("rewards", sample.rewards),
            ("kappa", config.kappa),
        ):
            if not np.allclose(result[key], expected, rtol=1e-12, atol=0.0):
                problems.append(f"invert-markov {key} differs from recover_rewards in memory")
        csets = stepwise_confidence_sets(data, config)
        for h, (theta, feasible) in enumerate(zip(sample.thetas, sample.feasible)):
            if feasible and not csets[h].contains(theta, slack=MEMBER_SLACK):
                problems.append(f"step {h} member reported feasible is outside its set")
        return problems


def catalog(work_dir, reference=None) -> dict:
    """The benchmark's workloads at their measured sizes, by name.

    `reference` maps a markov workload to its stored per-size means (default
    reference.json); a workload missing from it is not compared.
    """
    if reference is None:
        reference = json.loads(REFERENCE_PATH.read_text())
    return {
        "markov_freq": MarkovExperiment(
            "markov_freq", "frequency", (10**4, 2 * 10**4, 5 * 10**4, 10**5),
            work_dir, reference.get("markov_freq"),
        ),
        "markov_mle": MarkovExperiment(
            "markov_mle", "mle", (10**4, 10**5), work_dir, reference.get("markov_mle")
        ),
        "setup2_geometry": Setup2Geometry(),
        "dataset_roundtrip": DatasetRoundtrip(work_dir),
    }

"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured quantities (visible under pytest -v via captured output).

The suite seed 20260808 was fixed before any criterion was measured and is
shared by every protocol here.  Criterion 4's threshold rule is applied per
constraint block: a matrix game is one block of N samples (kappa = 1000/N),
while a stepwise Markov system stacks one block per state, estimated from the
N_h(s) visits to that state, so the frequency sets use
kappa_h = 1000 * sum_s 1/N_h(s) (experiments.kappa_rule).  Dividing by the
episode count N instead would put the threshold ~5x below the true
parameters' residual, S(m+n-2) * 2m / (eta^2 * N/S) ~ 5120/N, and leave
every set empty.

Set INVGAME_FULL_ACCEPTANCE=1 to run criterion 6 at the full 100-repetition
protocol instead of the 20-repetition smoke variant.
"""

import os
import time

import numpy as np
import pytest

from invgame.cli import ExperimentConfig, emit_csv, run_experiment
from invgame.experiments import run_rep
from invgame.inverse_markov import InversionConfig, ridge_fit
from invgame.markov_game import backward_qre
from invgame.matrix_game import MatrixGameSpec, qre_residual, solve_qre
from invgame.metrics import reward_metric_D, reward_metric_D1
from invgame.sampling import EpisodeDataset, sample_episodes, stream

from .oracles import (
    full_rank_oracle_model,
    hellinger_sq,
    loglog_slope,
    recover_rewards_on_truth,
    tv,
)

SEED = 20260808
FULL = os.environ.get("INVGAME_FULL_ACCEPTANCE") == "1"


def records(kind, rep, sizes):
    """Repetition rep of the suite seed's `kind` experiment at these sizes."""
    return run_rep(ExperimentConfig(kind=kind, seed=SEED, samples=tuple(sizes)), rep)


def report(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


class TestCriterion01ForwardSolver:
    def test_random_games_and_symmetric_exactness(self):
        started = time.perf_counter()
        rng = stream(SEED)
        worst = 0.0
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            eta = float(rng.uniform(0.05, 2.0))
            spec = MatrixGameSpec(rng.standard_normal((m, n)), eta)
            pair = solve_qre(spec, tol=1e-12)
            worst = max(worst, qre_residual(spec, pair))
        assert worst <= 1e-10
        pennies = solve_qre(MatrixGameSpec(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1.0))
        assert np.abs(pennies.mu - 0.5).max() <= 1e-12
        assert np.abs(pennies.nu - 0.5).max() <= 1e-12
        zero = solve_qre(MatrixGameSpec(np.zeros((3, 4)), 0.7))
        assert np.abs(zero.mu - 1 / 3).max() <= 1e-12
        assert np.abs(zero.nu - 1 / 4).max() <= 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        report(1, f"worst residual {worst:.2e}, {elapsed:.1f}s")


class TestCriterion02StrongIdentifiabilityRate:
    def test_loglog_slope_of_median_theta_error(self):
        started = time.perf_counter()
        sizes = [10**3, 10**4, 10**5, 10**6]
        errors = {n: [] for n in sizes}
        for rep in range(20):
            for record in records("setup1", rep, sizes):
                errors[record.sample_size].append(record.theta_err)
        medians = np.array([np.median(errors[n]) for n in sizes])
        slope = loglog_slope(sizes, medians)
        assert -0.65 <= slope <= -0.35
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        report(2, f"slope {slope:.3f}, medians {np.round(medians, 4)}, {elapsed:.0f}s")


class TestCriterion03PartialIdentifiability:
    def test_qre_discrepancy_converges_theta_stays_bounded(self):
        started = time.perf_counter()
        sizes = [10**3, 10**4, 10**5, 10**6]
        qre_errs = {n: [] for n in sizes}
        theta_errs = {n: [] for n in sizes}
        for rep in range(20):
            for record in records("setup2", rep, sizes):
                qre_errs[record.sample_size].append(record.qre_tv_err)
                theta_errs[record.sample_size].append(record.theta_err)
        first = np.median(qre_errs[10**3])
        last = np.median(qre_errs[10**6])
        assert last <= first / 10
        assert last <= 1e-2
        bound = 2 * np.sqrt(4.0)
        assert all(np.median(theta_errs[n]) <= bound for n in sizes)
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0
        report(
            3,
            f"median qre {first:.4f} -> {last:.5f} (ratio {last / first:.3f}), "
            f"theta medians <= {max(np.median(theta_errs[n]) for n in sizes):.3f}, "
            f"{elapsed:.0f}s",
        )


class TestCriterion04Coverage:
    def test_setup2_coverage_at_surrogate_threshold(self):
        started = time.perf_counter()
        covered = sum(
            records("setup2", rep, [10**4])[0].coverage[0] for rep in range(100)
        )
        elapsed = time.perf_counter() - started
        assert covered >= 95
        assert elapsed < 600.0
        report("4a", f"setup2 coverage {covered}/100, {elapsed:.0f}s")

    def test_markov_stepwise_coverage_at_surrogate_threshold(self):
        # Each step's set stacks S state blocks estimated from N_h(s) visits,
        # so the 1e3 surrogate is applied per block: kappa_h = 1e3 * sum_s
        # 1/N_h(s) over visited states, which is 1e3/N at S = 1.  Coverage
        # alone would pass for a set holding everything, so the sets must
        # also exclude theta* with its identified component flipped; simplex
        # features identify only the direction (1, -1)/sqrt(2).
        started = time.perf_counter()
        identified = np.array([1.0, -1.0]) / np.sqrt(2.0)
        per_step = np.zeros(6)
        flipped_excluded = np.zeros(6)
        for rep in range(100):
            record = records("markov", rep, [10**4])[0]
            per_step += record.coverage
            for h, (cset, theta) in enumerate(zip(record.sets, record.true_thetas)):
                flipped = theta - 2.0 * (theta @ identified) * identified
                flipped_excluded[h] += not cset.contains(flipped)
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0
        assert per_step.min() >= 95, (
            f"per-step coverage {per_step.tolist()} / 100 under the per-block "
            "threshold 1e3 * sum_s 1/N_h(s)"
        )
        assert flipped_excluded.min() >= 95, (
            f"per-step exclusion of the flipped parameters "
            f"{flipped_excluded.tolist()} / 100: the sets do not discriminate"
        )
        report(
            "4b",
            f"markov per-step coverage {per_step.tolist()}, flipped theta "
            f"excluded {flipped_excluded.tolist()}",
        )


class TestCriterion05OracleExactness:
    def test_plugin_identity_recovers_rewards(self):
        started = time.perf_counter()
        spec, feats, _ = full_rank_oracle_model(SEED)
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 100, SEED)
        config = InversionConfig(
            features=feats, eta=spec.eta, gamma=spec.gamma, kappa=0.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        sample = recover_rewards_on_truth(data, config, truth, spec.transition)
        err = reward_metric_D(sample.rewards, spec.rewards)
        assert err <= 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        report(5, f"reward metric D {err:.2e}, {elapsed:.1f}s")


class TestCriterion06MarkovTrend:
    def test_mean_qre_error_decreases_with_samples(self):
        started = time.perf_counter()
        reps = 100 if FULL else 20
        sizes = [10**4, 2 * 10**4, 5 * 10**4, 10**5]
        qre = {n: [] for n in sizes}
        reward = {n: [] for n in sizes}
        for rep in range(reps):
            for record in records("markov", rep, sizes):
                qre[record.sample_size].append(record.qre_tv_err)
                reward[record.sample_size].append(record.reward_D)
        means = np.array([np.mean(qre[n]) for n in sizes])
        assert np.all(np.diff(means) < 0), f"means not decreasing: {means}"
        ratio = means[-1] / means[0]
        assert ratio <= 0.6
        reward_medians = np.array([np.median(reward[n]) for n in sizes])
        assert np.all(np.diff(reward_medians) <= 1e-12), (
            f"median reward_D not nonincreasing: {reward_medians}"
        )
        elapsed = time.perf_counter() - started
        budget = 3600.0 if FULL else 600.0
        assert elapsed < budget
        report(
            6,
            f"{reps} reps, mean qre {np.round(means, 5)} ratio {ratio:.3f}, "
            f"median reward_D {np.round(reward_medians, 3)}, {elapsed:.0f}s",
        )


class TestCriterion07RidgeOracle:
    def test_tabular_ridge_matches_conditional_means(self):
        started = time.perf_counter()
        rng = stream(SEED)
        s_len, m, n = 2, 2, 2
        t = 4000
        feats = np.eye(s_len * m * n).reshape(s_len, m, n, s_len * m * n)
        states = rng.integers(0, s_len, (t, 1))
        acts_a = rng.integers(0, m, (t, 1))
        acts_b = rng.integers(0, n, (t, 1))
        nexts = rng.integers(0, s_len, (t, 1))
        data = EpisodeDataset(states, acts_a, acts_b, nexts)
        v_next = rng.standard_normal(s_len)
        est = ridge_fit(data, feats, ridge_lambda=1e-9, step=0)
        worst = 0.0
        for s in range(s_len):
            for a in range(m):
                for b in range(n):
                    mask = (
                        (states[:, 0] == s)
                        & (acts_a[:, 0] == a)
                        & (acts_b[:, 0] == b)
                    )
                    assert mask.sum() >= 100
                    oracle = v_next[nexts[mask, 0]].mean()
                    pred = feats[s, a, b] @ est.value_weights(v_next)
                    worst = max(worst, abs(pred - oracle))
        assert worst <= 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        report(7, f"worst deviation {worst:.2e}, {elapsed:.1f}s")


class TestCriterion08MleSuite:
    def test_monotonicity_grid_agreement_and_rate(self):
        started = time.perf_counter()
        from invgame.inverse_markov import SoftmaxPolicyModel, mle_fit

        # margin case against the unit-circle grid oracle
        t = 400
        zeros = np.zeros((t, 1), dtype=np.int64)
        data = EpisodeDataset(zeros, zeros, zeros, zeros)
        psi = np.zeros((1, 2, 2))
        psi[0, 0] = [1.0, 0.0]
        psi[0, 1] = [0.0, 1.0]
        model = SoftmaxPolicyModel(psi, psi.copy())
        fit = mle_fit(data, model, 0, "a")
        assert np.all(np.diff(fit.objective_trace) <= 1e-12)
        angles = np.linspace(0, 2 * np.pi, 10**5, endpoint=False)
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        nll = np.log(np.exp(circle[:, 0]) + np.exp(circle[:, 1])) - circle[:, 0]
        oracle = circle[np.argmin(nll)]
        grid_gap = np.abs(fit.params - oracle).max()
        assert grid_gap <= 1e-3

        # squared-TV scaling against the (d_a log T + log(1/delta))/T proxy
        rng = stream(SEED + 1)
        s_len, m, d_a = 3, 4, 3
        psi = rng.standard_normal((s_len, m, d_a))
        psi /= np.linalg.norm(psi, axis=2, keepdims=True)
        theta_star = rng.standard_normal(d_a)
        theta_star *= 0.9 / np.linalg.norm(theta_star)
        model = SoftmaxPolicyModel(psi, psi.copy())
        true_cond = model.conditionals(psi, theta_star)
        cum = np.cumsum(true_cond, axis=1)
        worst_ratio = 0.0
        for t in (10**3, 10**4, 10**5):
            states = rng.integers(0, s_len, (t, 1))
            actions = (
                rng.random((t, 1)) > cum[states[:, 0]]
            ).sum(axis=1, keepdims=True)
            data = EpisodeDataset(states, actions, actions, states)
            fit = mle_fit(data, model, 0, "a")
            assert np.all(np.diff(fit.objective_trace) <= 1e-12)
            fitted = model.conditionals(psi, fit.params)
            rho = np.bincount(states[:, 0], minlength=s_len) / t
            sq_tv = float(rho @ (0.5 * np.abs(fitted - true_cond).sum(axis=1)) ** 2)
            proxy = (d_a * np.log(t) + np.log(20)) / t
            worst_ratio = max(worst_ratio, sq_tv / proxy)
        assert worst_ratio <= 10.0
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        report(
            8,
            f"grid gap {grid_gap:.1e}, worst rate ratio {worst_ratio:.2f}, "
            f"{elapsed:.0f}s",
        )


class TestCriterion09MetricSuite:
    def test_identities_and_inequalities(self):
        started = time.perf_counter()
        assert tv(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert tv(np.array([0.7, 0.3]), np.array([0.5, 0.5])) == pytest.approx(0.2)
        assert hellinger_sq(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert hellinger_sq(np.array([0.4, 0.6]), np.array([0.4, 0.6])) == 0.0
        r = np.zeros((2, 2, 2, 2))
        r_shift = r.copy()
        r_shift[1, 0, 1, 1] = 0.3
        assert reward_metric_D(r, r_shift) == pytest.approx(0.3)
        rng = stream(SEED + 2)
        for _ in range(1000):
            k = int(rng.integers(2, 8))
            p = rng.random(k) + 1e-12
            p /= p.sum()
            q = rng.random(k) + 1e-12
            q /= q.sum()
            assert tv(p, q) <= np.sqrt(2 * hellinger_sq(p, q)) + 1e-12
        for _ in range(1000):
            r1 = rng.standard_normal((2, 3, 2, 2))
            r2 = rng.standard_normal((2, 3, 2, 2))
            rho = rng.random((2, 3)) + 1e-9
            rho /= rho.sum(axis=1, keepdims=True)
            assert reward_metric_D1(r1, r2, rho) <= reward_metric_D(r1, r2) + 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        report(9, f"{elapsed:.2f}s")


class TestCriterion10Determinism:
    def test_rerun_yields_byte_identical_csvs(self, tmp_path):
        for kind, extra in (
            ("setup2", {}),
            ("markov", {"horizon": 3, "samples": (400, 800)}),
        ):
            config = ExperimentConfig(
                kind=kind,
                seed=SEED,
                samples=extra.get("samples", (500, 1000)),
                reps=2,
                horizon=extra.get("horizon", 6),
            )
            emit_csv(run_experiment(config), tmp_path / f"{kind}_a")
            emit_csv(run_experiment(config), tmp_path / f"{kind}_b")
            names = ["runs.csv", "summary.csv"] + (
                ["steps.csv"] if kind == "markov" else []
            )
            for name in names:
                a = (tmp_path / f"{kind}_a" / name).read_bytes()
                b = (tmp_path / f"{kind}_b" / name).read_bytes()
                assert a == b, f"{kind}/{name} differs between reruns"
        report(10, "setup2 and markov reruns byte-identical")

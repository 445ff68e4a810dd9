import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from invgame import experiments, inverse_markov, sampling
from invgame.experiments import (
    ExperimentConfig,
    kappa_rule,
    markov_model,
    run_markov_rep,
    saturated_policy_model,
)
from invgame.inverse_markov import (
    InversionConfig,
    SoftmaxPolicyModel,
    build_stepwise_system,
    fit_every_step,
    mle_fit,
    recover_rewards,
    recover_rewards_mle,
    ridge_fit,
    stepwise_confidence_sets,
)
from invgame.inverse_matrix import ConfidenceSet, floor_distribution
from invgame.markov_game import LinearMDPModel, backward_qre
from invgame.matrix_game import PolicyPair, entropy
from invgame.metrics import reward_metric_D
from invgame.sampling import (
    EpisodeDataset,
    frequency_estimate_markov,
    frequency_estimate_matrix,
    sample_episodes,
    sample_matrix_actions,
    step_counts,
    stream,
)

from .oracles import (
    assert_bit_identical,
    assert_fits_alone,
    frequency_estimate_by_step,
    full_rank_oracle_model,
    matrix_linear_system,
    mle_fit_by_einsum,
    recover_rewards_on_truth,
    ridge_fit_by_gather,
    stacked_case,
    step_counts_by_add_at,
    theoretical_kappa,
    tv_error_bound,
)


def markov_config(seed, sizes, **fields):
    return ExperimentConfig(kind="markov", seed=seed, samples=tuple(sizes), **fields)


def one_hot_policy_model(s_len, m, n):
    psi_a = np.zeros((s_len, m, s_len * m))
    for s in range(s_len):
        for a in range(m):
            psi_a[s, a, s * m + a] = 1.0
    psi_b = np.zeros((s_len, n, s_len * n))
    for s in range(s_len):
        for b in range(n):
            psi_b[s, b, s * n + b] = 1.0
    return SoftmaxPolicyModel(psi_a, psi_b)


def near_uniform_markov_model(seed, uniform_transitions=False):
    """Scaled-down rewards keep stage logits well inside the MLE unit ball."""
    rng = stream(seed)
    s_len, m, n, h_len, d = 4, 5, 5, 6, 2
    feats = np.abs(rng.standard_normal((s_len, m, n, d)))
    feats /= feats.sum(axis=3, keepdims=True)
    if uniform_transitions:
        cols = np.full((h_len, s_len, d), 1.0 / s_len)
    else:
        cols = np.abs(rng.standard_normal((h_len, s_len, d)))
        cols /= cols.sum(axis=1, keepdims=True)
    omegas = np.tile(np.array([0.08, -0.06]), (h_len, 1))
    return LinearMDPModel(feats, omegas, cols, eta=0.5, gamma=1.0)


def dense_mle_case(scale, seed=5, t=500):
    """Dense Gaussian psi maps (3 states, 4 and 2 actions, d = 5) times
    scale, and t one-step episodes of uniform draws.  The unit ball with
    features scale * psi is the radius-scale ball with features psi, so a
    small scale makes the ball bind and a large one leaves it inactive."""
    rng = stream(seed)
    psi_a, psi_b = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 2, 5))
    data = EpisodeDataset(*(rng.integers(0, k, (t, 1)) for k in (3, 4, 2, 3)))
    return data, SoftmaxPolicyModel(scale * psi_a, scale * psi_b)


def assert_same_fit(fit, oracle):
    assert fit.iterations == oracle.iterations
    assert fit.converged == oracle.converged
    assert np.abs(fit.params - oracle.params).max() <= 1e-12
    assert np.abs(fit.objective_trace - oracle.objective_trace).max() <= 1e-12


class TestBuildStepwiseSystem:
    @pytest.mark.bitwise
    def test_single_state_reduces_to_matrix_system(self):
        rng = stream(70)
        feats = rng.standard_normal((1, 3, 4, 2))
        mu = np.array([[0.2, 0.5, 0.3]])
        nu = np.array([[0.1, 0.2, 0.3, 0.4]])
        stepwise = build_stepwise_system(feats, mu, nu, eta=0.7)
        x, y = matrix_linear_system(feats[0], mu[0], nu[0], eta=0.7)
        assert np.array_equal(stepwise.X, x)
        assert np.array_equal(stepwise.y, y)

    def test_policy_dimension_mismatch_rejected(self):
        feats = stream(69).standard_normal((2, 3, 4, 2))
        with pytest.raises(ValueError, match="policy dimensions"):
            build_stepwise_system(feats, np.full((2, 4), 0.25), np.full((2, 4), 0.25), 0.5)

    def test_uniform_conditionals_zero_rhs(self):
        rng = stream(71)
        feats = rng.standard_normal((3, 3, 3, 2))
        mu = np.full((3, 3), 1 / 3)
        stepwise = build_stepwise_system(feats, mu, mu, eta=0.5)
        assert np.allclose(stepwise.y, 0.0)

    def test_exact_stage_qre_satisfied_by_ls_fit_theta(self):
        # oracle: fit theta_h by plain least squares on the true Q tensor,
        # independent of the q_params identity
        model = markov_model(stream(72))
        spec = model.to_tabular()
        truth, values = backward_qre(spec, tol=1e-13)
        flat = model.features.reshape(-1, model.features.shape[3])
        for h in range(spec.H):
            theta_fit, *_ = np.linalg.lstsq(flat, values.Q[h].ravel(), rcond=None)
            system = build_stepwise_system(
                model.features, truth.mu[h], truth.nu[h], spec.eta
            )
            assert np.linalg.norm(system.X @ theta_fit - system.y) <= 1e-8

    def test_zero_weight_states_give_zero_rows(self):
        rng = stream(73)
        feats = rng.standard_normal((2, 2, 2, 3))
        mu = np.array([[0.6, 0.4], [0.5, 0.5]])
        weights = np.array([0.0, 1.0])
        system = build_stepwise_system(feats, mu, mu, 0.5, weights)
        # first state's A-row and B-row blocks are zero
        assert np.allclose(system.X[0], 0.0) and np.allclose(system.y[0], 0.0)

    def test_zero_probability_at_weighted_state_rejected(self):
        rng = stream(74)
        feats = rng.standard_normal((1, 2, 2, 2))
        mu = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            build_stepwise_system(feats, mu, np.array([[0.5, 0.5]]), 0.5)


class TestStepwiseConfidenceSet:
    def test_kappa_zero_exact_membership(self):
        model = markov_model(stream(75))
        spec = model.to_tabular()
        truth, values = backward_qre(spec, tol=1e-13)
        thetas = model.q_params(values.V)
        system = build_stepwise_system(model.features, truth.mu[0], truth.nu[0], spec.eta)
        cset = ConfidenceSet(system.X, system.y, 0.0, 10.0**2)
        assert cset.contains(thetas[0], slack=1e-12)

    def test_norm_above_cap_rejected(self):
        system = build_stepwise_system(
            np.ones((1, 2, 2, 2)), np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), 1.0
        )
        cset = ConfidenceSet(system.X, system.y, 10.0, 2.0**2)
        assert not cset.contains(np.array([3.0, 0.0]))

    @pytest.mark.parametrize("cap", [0.0, -2.0])
    def test_nonpositive_norm_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="theta_norm_cap must be positive"):
            InversionConfig(
                features=np.ones((1, 2, 2, 2)), eta=1.0, gamma=1.0, kappa=1.0,
                ridge_lambda=0.01, theta_norm_cap=cap,
            )


class TestRidge:
    def test_empty_data_gives_lambda_identity(self):
        empty = EpisodeDataset(*(np.zeros((0, 1), dtype=np.int64),) * 4)
        feats = np.zeros((2, 2, 2, 3))
        est = ridge_fit(empty, feats, ridge_lambda=0.5, step=0)
        assert np.allclose(est.gram, 0.5 * np.eye(3))

    def test_single_basis_vector_sample(self):
        states = np.zeros((1, 1), dtype=np.int64)
        data = EpisodeDataset(states, states, states, states)
        feats = np.zeros((1, 1, 1, 3))
        feats[0, 0, 0] = [1.0, 0.0, 0.0]
        est = ridge_fit(data, feats, ridge_lambda=1.0, step=0)
        assert np.allclose(est.gram, np.diag([2.0, 1.0, 1.0]))

    def test_gram_symmetric_with_min_eigenvalue_lambda(self):
        model = markov_model(stream(76))
        spec = model.to_tabular()
        truth, _ = backward_qre(spec)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 500, 77)
        est = ridge_fit(data, model.features, ridge_lambda=0.01, step=2)
        assert np.allclose(est.gram, est.gram.T)
        assert np.linalg.eigvalsh(est.gram).min() >= 0.01 - 1e-12

    def test_zero_value_vector_predicts_zero(self):
        model = markov_model(stream(78))
        spec = model.to_tabular()
        truth, _ = backward_qre(spec)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 100, 79)
        est = ridge_fit(data, model.features, ridge_lambda=0.01, step=0)
        assert model.features[0, 0, 0] @ est.value_weights(np.zeros(spec.S)) == 0.0

    def test_huge_lambda_shrinks_to_zero(self):
        model = markov_model(stream(80))
        spec = model.to_tabular()
        truth, _ = backward_qre(spec)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 100, 81)
        est = ridge_fit(data, model.features, ridge_lambda=1e12, step=0)
        pred = model.features[1, 1, 1] @ est.value_weights(np.ones(spec.S))
        assert abs(pred) < 1e-8

    def test_tabular_features_match_conditional_mean_oracle(self):
        # one-hot features over (s, a, b) make the ridge prediction the
        # empirical mean of V(s') within each cell
        rng = stream(82)
        s_len, m, n = 2, 2, 2
        h_len, t = 1, 3000
        feats = np.eye(s_len * m * n).reshape(s_len, m, n, s_len * m * n)
        states = rng.integers(0, s_len, (t, h_len))
        acts_a = rng.integers(0, m, (t, h_len))
        acts_b = rng.integers(0, n, (t, h_len))
        nexts = rng.integers(0, s_len, (t, h_len))
        data = EpisodeDataset(states, acts_a, acts_b, nexts)
        v_next = rng.standard_normal(s_len)
        est = ridge_fit(data, feats, ridge_lambda=1e-9, step=0)
        for s in range(s_len):
            for a in range(m):
                for b in range(n):
                    mask = (
                        (states[:, 0] == s) & (acts_a[:, 0] == a) & (acts_b[:, 0] == b)
                    )
                    assert mask.sum() >= 100
                    oracle = v_next[nexts[mask, 0]].mean()
                    pred = feats[s, a, b] @ est.value_weights(v_next)
                    assert pred == pytest.approx(oracle, abs=1e-6)


class TestEstimatorsAgainstEarlierBodies:
    """Every estimator reads the step count table.  On 1e5 sampled episodes
    (the markov kind's instance at seed 20260808, rep 0) the frequency
    estimates must equal their earlier per-step body bit for bit, the MLE
    iterates must not move by a bit on the scatter-add oracle's table, and
    the ridge fit, now summed per cell, must match the per-sample gather to
    round-off."""

    @pytest.fixture(scope="class")
    def case(self):
        model = markov_model(stream(20260808, 0))
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-12)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 10**5, 20260808, 0)
        return model, spec, data

    def test_ridge_fit_matches_the_gather(self, case):
        model, spec, data = case
        rng = stream(99)
        for step in range(spec.H):
            fit = ridge_fit(data, model.features, 0.01, step)
            gram, value_weights = ridge_fit_by_gather(data, model.features, 0.01, step)
            np.testing.assert_allclose(fit.gram, gram, rtol=1e-12, atol=0)
            for v_next in (rng.standard_normal(spec.S), np.arange(1.0, spec.S + 1)):
                np.testing.assert_allclose(
                    fit.value_weights(v_next), value_weights(v_next), rtol=1e-12, atol=0
                )

    @pytest.mark.bitwise
    def test_frequency_estimates_are_bit_identical(self, case):
        _, spec, data = case
        est = frequency_estimate_markov(data, spec.S, spec.m, spec.n)
        mu_hat, nu_hat, counts = frequency_estimate_by_step(data, spec.S, spec.m, spec.n)
        assert np.array_equal(est.mu_hat, mu_hat) and np.array_equal(est.nu_hat, nu_hat)
        assert np.array_equal(est.counts, counts) and np.array_equal(est.visited, counts > 0)

    @pytest.mark.bitwise
    def test_mle_iterates_are_bit_identical_on_the_oracle_table(self, case, monkeypatch):
        # the fit sees the data only through the table, so the scatter-add
        # table must give the same iterates to the last bit
        _, spec, data = case
        policy = saturated_policy_model(spec.S, spec.m, spec.n)
        fits = [mle_fit(data, policy, step, player) for step in (0, 5) for player in "ab"]
        monkeypatch.setattr(inverse_markov, "step_counts", step_counts_by_add_at)
        for fit, (step, player) in zip(fits, [(0, "a"), (0, "b"), (5, "a"), (5, "b")]):
            oracle = mle_fit(data, policy, step, player)  # on the oracle's table
            assert fit.converged
            assert_bit_identical(fit, oracle)


@pytest.mark.bitwise
class TestOneCountPass:
    """Each dataset a markov op inverts is counted once, and a rep's nested
    sample sizes as they are drawn, with no dataset built (sample_counts):
    the runner's thresholds, the policy estimates, the visit weights and
    every step's ridge fit read one table per size."""

    @pytest.fixture
    def passes(self, monkeypatch):
        counted = []
        count_steps = sampling._count_steps

        def counting(data, *shape):
            counted.append(data.n_episodes)
            return count_steps(data, *shape)

        monkeypatch.setattr(sampling, "_count_steps", counting)
        return counted

    @pytest.mark.parametrize("policy_estimator", ["frequency", "mle"])
    def test_run_markov_rep(self, monkeypatch, passes, policy_estimator):
        # the sizes are nested prefixes of one dataset, counted as it is
        # drawn: no dataset, range check or dataset count, then one stacked
        # recovery and one lockstep MLE loop serve them all, and each size's
        # estimate is the one its prefix alone gives
        config = markov_config(5, [500, 1000, 3000], policy_estimator=policy_estimator)
        calls = {"__post_init__": [], "check": [], "_fit_stack": [], "_markov_estimate": []}
        for module, name in ((EpisodeDataset, "__post_init__"), (EpisodeDataset, "check"),
                             (inverse_markov, "_fit_stack"), (experiments, "_markov_estimate")):

            def recording(*args, original=getattr(module, name), name=name):
                result = original(*args)
                calls[name].append((args, result))
                return result

            monkeypatch.setattr(module, name, recording)
        run_markov_rep(config, 0)
        monkeypatch.undo()
        assert passes == [] and calls["__post_init__"] == calls["check"] == []
        assert len(calls["_fit_stack"]) == (policy_estimator == "mle")
        model = experiments.build_model(config, 0)
        data = experiments.sample_dataset(config, 0, max(config.samples))
        shape = (config.s_len, config.m, config.n)
        # one recovery call for every size
        (((_, _, tables, kappas), estimates),) = calls["_markov_estimate"]
        for n, table, kappa, estimate in zip(config.samples, tables, kappas, estimates, strict=True):
            alone = step_counts(data.prefix(n), *shape)  # counted and fitted alone
            assert np.array_equal(table, alone)
            assert np.array_equal(kappa, experiments._thresholds(config, alone))
            thetas = experiments._markov_estimate(config, model, [alone], kappa)[0][0]
            assert np.array_equal(estimate[0], thetas)

    def test_invert_markov(self, passes):
        config = markov_config(5, [2000])
        model = experiments.build_model(config, 0)
        data = experiments.sample_dataset(config, 0, 2000)
        result = experiments.invert_markov(config, model, step_counts(data, 4, 5, 5))
        assert len(result["theta_hat"]) == config.horizon
        assert passes == [2000]


class TestTheTableIsTheInput:
    """Every public estimator reads the data only through its count table,
    so it gives the same result to the bit for a dataset and for its
    step_counts table."""

    @pytest.fixture(scope="class")
    def case(self):
        model = markov_model(stream(61), horizon=3)
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-12)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 3000, 62)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=5.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        policy = saturated_policy_model(spec.S, spec.m, spec.n)
        return spec, data, config, replace(config, policy_model=policy)

    @pytest.mark.bitwise
    @pytest.mark.parametrize(
        "estimator",
        [
            "frequency_estimate_markov", "frequency_estimate_matrix", "ridge_fit", "mle_fit",
            "stepwise_confidence_sets", "stepwise_confidence_sets_mle", "recover_rewards",
            "recover_rewards_mle",
        ],
    )
    def test_a_dataset_and_its_table_give_one_result(self, case, estimator):
        spec, data, config, mle_config = case
        shape = (spec.S, spec.m, spec.n)
        calls = {
            "frequency_estimate_markov": lambda d: frequency_estimate_markov(d, *shape),
            "ridge_fit": lambda d: [
                ridge_fit(d, config.features, 0.01, h) for h in range(spec.H)
            ],
            "mle_fit": lambda d: [
                mle_fit(d, mle_config.policy_model, h, p) for h in range(spec.H) for p in "ab"
            ],
            "stepwise_confidence_sets": lambda d: stepwise_confidence_sets(d, config),
            "stepwise_confidence_sets_mle": lambda d: stepwise_confidence_sets(d, mle_config),
            "recover_rewards": lambda d: recover_rewards(d, config),
            "recover_rewards_mle": lambda d: recover_rewards_mle(d, mle_config),
        }
        if estimator == "frequency_estimate_matrix":
            pair = PolicyPair(np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.1, 0.2, 0.1]))
            data, shape = sample_matrix_actions(pair, 3000, seed=63), (1, 3, 4)
            calls[estimator] = lambda d: frequency_estimate_matrix(d, 3, 4)
        expected = calls[estimator](data)
        assert_bit_identical(calls[estimator](step_counts(data, *shape)), expected)

    @pytest.mark.parametrize("step", [-1, 3, 10])
    def test_a_step_outside_the_horizon_is_named(self, case, step):
        # H = 3: step -1 read step 2's counts, and step 3 ended in an IndexError
        spec, data, config, mle_config = case
        message = re.escape(f"step must lie in 0..2, got {step}")
        for source in (data, step_counts(data, spec.S, spec.m, spec.n)):
            with pytest.raises(ValueError, match=message):
                ridge_fit(source, config.features, 0.01, step)
            for player in "ab":
                with pytest.raises(ValueError, match=message):
                    mle_fit(source, mle_config.policy_model, step, player)


@pytest.mark.bitwise
class TestStackedRecovery:
    """A list of tables is checked at entry, before any estimate is made;
    tests/test_stacking.py checks that each table's recovery is its own."""

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda t: [], "no tables to recover from"),
            (lambda t: [t[0], np.zeros((6, 3, 5, 5, 3), dtype=np.int64)],
             re.escape("a table must be shaped (H, 4, 5, 5, 4), not (6, 3, 5, 5, 3)")),
            (lambda t: [t[0], t[1][:5]], "the tables must share one horizon"),
        ],
        ids=["empty", "shapes", "horizons"],
    )
    @pytest.mark.parametrize("entry", ["recover_rewards", "recover_rewards_mle",
                                       "stepwise_confidence_sets", "ridge_fit"])
    def test_a_bad_list_is_rejected_at_entry(self, monkeypatch, change, message, entry):
        *_, tables, inversion = stacked_case("frequency", (200, 400))
        calls = {
            "recover_rewards": lambda t: recover_rewards(t, replace(inversion, kappa=1.0)),
            "recover_rewards_mle": lambda t: recover_rewards_mle(t, replace(
                inversion, kappa=1.0, policy_model=saturated_policy_model(4, 5, 5))),
            "stepwise_confidence_sets": lambda t: stepwise_confidence_sets(
                t, replace(inversion, kappa=1.0)),
            "ridge_fit": lambda t: ridge_fit(t, inversion.features, 0.01, 0),
        }
        monkeypatch.setattr(inverse_markov, "_estimates", None)  # no estimate is made
        with pytest.raises(ValueError, match=message):
            calls[entry](change(tables))

    @pytest.mark.parametrize("shape", [(3, 6), (2, 5), (7,), (2, 6, 1), (6, 2)])
    def test_a_kappa_of_another_shape_is_rejected_at_entry(self, monkeypatch, shape):
        # two tables of H = 6: a scalar, (6,) or (2, 6) kappa
        *_, tables, inversion = stacked_case("frequency", (200, 400))
        monkeypatch.setattr(inverse_markov, "_estimates", None)
        bad = replace(inversion, kappa=np.ones(shape))
        message = re.escape(f"(H,) = (6,) or (K, H) = (2, 6), got {shape}")
        for call in (recover_rewards, stepwise_confidence_sets):
            with pytest.raises(ValueError, match=message):
                call(tables, bad)


def unobserved_last_action_case():
    """A markov dataset (H=3, 500 episodes) whose row player never shows its
    last action, at every visited state, and a frequency inversion config."""
    model = markov_model(stream(97), horizon=3)
    spec = model.to_tabular()
    truth, _ = backward_qre(spec, tol=1e-13)
    data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 500, 98)
    actions_a = np.where(data.actions_a == spec.m - 1, 0, data.actions_a)
    thinned = EpisodeDataset(data.states, actions_a, data.actions_b, data.next_states)
    est = frequency_estimate_markov(thinned, spec.S, spec.m, spec.n)
    assert est.visited.all() and np.all(est.mu_hat[:, :, -1] == 0.0)
    config = InversionConfig(
        features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=1.0,
        ridge_lambda=0.01, theta_norm_cap=10.0,
    )
    return model, thinned, config


class TestRecoverRewards:
    def test_a_policy_model_is_rejected(self):
        # recover_rewards estimates frequency policies and gave the same thetas
        # with and without a policy model; only recover_rewards_mle reads it
        rng = stream(11)
        s_len, m, n, h_len = 3, 2, 3, 4
        data = EpisodeDataset(
            *(rng.integers(0, size, (200, h_len)) for size in (s_len, m, n, s_len))
        )
        config = InversionConfig(
            features=rng.standard_normal((s_len, m, n, 2)), eta=0.5, gamma=1.0, kappa=1e5,
            ridge_lambda=0.01, theta_norm_cap=10.0,
            policy_model=saturated_policy_model(s_len, m, n),
        )
        with pytest.raises(ValueError, match="use recover_rewards_mle"):
            recover_rewards(data, config)
        frequency = recover_rewards(data, replace(config, policy_model=None))[0]
        assert not np.array_equal(recover_rewards_mle(data, config)[0].thetas, frequency.thetas)

    def test_oracle_inputs_recover_exactly(self):
        spec, feats, thetas = full_rank_oracle_model(321)
        truth, values = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 50, 322)
        config = InversionConfig(
            features=feats, eta=spec.eta, gamma=spec.gamma, kappa=0.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        sample = recover_rewards_on_truth(data, config, truth, spec.transition)
        assert reward_metric_D(sample.rewards, spec.rewards) <= 1e-6
        assert np.abs(sample.thetas - thetas).max() < 1e-8
        assert sample.feasible.all()

    def test_single_step_horizon_reward_equals_q(self):
        model = markov_model(stream(83), horizon=1)
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 2000, 84)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=1.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        sample = recover_rewards(data, config)[0]
        assert np.allclose(sample.rewards, sample.q_values, atol=1e-12)
        assert np.allclose(sample.v_values[1], 0.0)

    def test_unobserved_action_at_visited_states_gives_finite_rewards(self):
        model, thinned, config = unobserved_last_action_case()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sample = recover_rewards(thinned, config)[0]
        assert np.isfinite(sample.rewards).all() and np.isfinite(sample.thetas).all()

    def test_unobserved_action_rows_hold_the_floored_log_ratio(self):
        model, thinned, config = unobserved_last_action_case()
        s_len, m, n = model.features.shape[:3]
        est = frequency_estimate_markov(thinned, s_len, m, n)
        sets = stepwise_confidence_sets(thinned, config)
        for h in range(thinned.horizon):
            mu = floor_distribution(est.mu_hat[h])
            system = build_stepwise_system(
                model.features, mu, floor_distribution(est.nu_hat[h]), config.eta,
                est.visited[h],
            )
            assert np.array_equal(sets[h].y, system.y)
            for s in range(s_len):
                # row s * (m - 1) + a - 1 holds action a's A-side constraint
                rhs = system.y[s * (m - 1) + m - 2]
                assert rhs == (np.log(mu[s, -1]) - np.log(mu[s, 0])) / config.eta
                assert rhs == pytest.approx(np.log(1e-12 / est.mu_hat[h, s, 0]) / config.eta)

    @pytest.mark.parametrize("kappa, feasible", [(1.0, False), (1e5, True)],
                             ids=["empty_sets", "feasible_sets"])
    def test_feasible_flags_agree_with_membership_at_the_floor(self, kappa, feasible):
        # the floored rows hold log-ratios near log(1e-12)/eta = -55, so the
        # least residual is ~1.1e4: kappa 1 leaves every set empty, 1e5 not
        _, thinned, config = unobserved_last_action_case()
        sample = recover_rewards(thinned, replace(config, kappa=kappa))[0]
        flags = [cset.contains(theta, slack=1e-12)
                 for cset, theta in zip(sample.sets, sample.thetas)]
        assert sample.feasible.tolist() == flags == [feasible] * thinned.horizon

    @pytest.mark.parametrize("past_end", [False, True])
    def test_out_of_range_successor_rejected(self, past_end):
        # -1 would silently wrap to the last state in the ridge target, and
        # S would index past it
        model = markov_model(stream(95), horizon=2)
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 200, 96)
        next_states = data.next_states.copy()
        next_states[0, -1] = spec.S if past_end else -1
        bad = EpisodeDataset(data.states, data.actions_a, data.actions_b, next_states)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=1.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        with pytest.raises(ValueError, match="next_state"):
            recover_rewards(bad, config)

    def test_emitted_samples_satisfy_value_identity(self):
        model = markov_model(stream(85), horizon=3)
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 5000, 86)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=1.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        sample = recover_rewards(data, config)[0]
        est = frequency_estimate_markov(data, spec.S, spec.m, spec.n)
        mu = np.maximum(est.mu_hat, 1e-12)
        mu /= mu.sum(axis=2, keepdims=True)
        nu = np.maximum(est.nu_hat, 1e-12)
        nu /= nu.sum(axis=2, keepdims=True)
        for h in range(spec.H):
            for s in range(spec.S):
                expected = (
                    mu[h, s] @ sample.q_values[h, s] @ nu[h, s]
                    + (entropy(mu[h, s]) - entropy(nu[h, s])) / spec.eta
                )
                assert sample.v_values[h, s] == pytest.approx(expected, abs=1e-10)

    def test_backward_consistency_of_recovered_rewards(self):
        # rewards recovered from oracle inputs regenerate the stage policies
        # even on the rank-deficient simplex kernel, where theta is pinned
        # only up to the constant direction the QRE ignores
        model = markov_model(stream(87))
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 50, 88)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=0.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        sample = recover_rewards_on_truth(data, config, truth, spec.transition)
        replay_spec = type(spec)(
            sample.rewards, spec.transition, eta=spec.eta, gamma=spec.gamma
        )
        replay, _ = backward_qre(replay_spec, tol=1e-13)
        tv_mu = 0.5 * np.abs(replay.mu - truth.mu).sum(axis=2)
        tv_nu = 0.5 * np.abs(replay.nu - truth.nu).sum(axis=2)
        assert max(tv_mu.max(), tv_nu.max()) <= 1e-6

    def test_one_ridge_fit_per_step(self, monkeypatch):
        model = markov_model(stream(89))
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 5000, 90)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=5.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        steps = []

        def counting(*args):
            steps.append(args[-1])
            return ridge_fit(*args)

        monkeypatch.setattr(inverse_markov, "ridge_fit", counting)
        assert len(recover_rewards(data, config)) == 1
        assert sorted(steps) == list(range(spec.H))

    @pytest.mark.parametrize("shape", [(3,), (8,), (6, 1)], ids=["short", "long", "column"])
    def test_a_kappa_of_another_shape_than_one_per_step_is_rejected(self, shape):
        # H = 6: a length-8 kappa was truncated, and lengths 3 and (6, 1) failed
        # with an IndexError and a TypeError
        model = markov_model(stream(93))
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 500, 94)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma,
            kappa=np.full(shape, 5.0), ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        for call in (stepwise_confidence_sets, recover_rewards):
            with pytest.raises(ValueError, match=r"shape \(H,\) = \(6,\)"):
                call(data, config)
        per_step = stepwise_confidence_sets(data, replace(config, kappa=np.full(6, 5.0)))
        scalar = stepwise_confidence_sets(data, replace(config, kappa=5.0))
        assert [cset.kappa for cset in per_step] == [cset.kappa for cset in scalar] == [5.0] * 6

    @pytest.mark.bitwise
    def test_samples_carry_the_sets_they_were_drawn_from(self):
        model = markov_model(stream(93), horizon=3)
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 5000, 94)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma,
            kappa=np.array([5.0, 6.0, 7.0]), ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        samples = recover_rewards(data, config)
        rebuilt = stepwise_confidence_sets(data, config)
        for sample in samples:
            assert len(sample.sets) == spec.H
            for cset, expected in zip(sample.sets, rebuilt):
                assert np.array_equal(cset.X, expected.X)
                assert np.array_equal(cset.y, expected.y)
                assert cset.kappa == expected.kappa
            for h in range(spec.H):
                assert sample.sets[h].contains(sample.thetas[h], slack=1e-9)

    def test_theoretical_threshold_containment(self):
        hits = total = 0
        for rep in range(20):
            rng = stream(92, rep)
            model = markov_model(rng)
            spec = model.to_tabular()
            truth, values = backward_qre(spec, tol=1e-12)
            thetas = model.q_params(values.V)
            data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 10**4, 92, rep)
            est = frequency_estimate_markov(data, spec.S, spec.m, spec.n)
            kappas = []
            for h in range(spec.H):
                n_state_min = max(int(est.counts[h].min()), 1)
                mu = np.maximum(est.mu_hat[h], 1e-12)
                nu = np.maximum(est.nu_hat[h], 1e-12)
                eps1 = min(
                    2 * tv_error_bound(spec.m, n_state_min, 0.05 / (2 * spec.H * spec.S)),
                    0.9 * mu.min(),
                )
                eps2 = min(
                    2 * tv_error_bound(spec.n, n_state_min, 0.05 / (2 * spec.H * spec.S)),
                    0.9 * nu.min(),
                )
                kappas.append(
                    theoretical_kappa(
                        model.features, mu, nu, 100.0, spec.eta, eps1, eps2
                    )
                )
            config = InversionConfig(
                features=model.features, eta=spec.eta, gamma=spec.gamma,
                kappa=np.array(kappas), ridge_lambda=0.01, theta_norm_cap=10.0,
            )
            csets = stepwise_confidence_sets(data, config)
            for h in range(spec.H):
                total += 1
                hits += csets[h].contains(thetas[h])
        assert hits >= 0.95 * total


@pytest.mark.bitwise
class TestMleFit:
    def test_zero_features_return_zero_vector(self):
        data = EpisodeDataset(
            np.zeros((10, 1), dtype=np.int64),
            np.zeros((10, 1), dtype=np.int64),
            np.zeros((10, 1), dtype=np.int64),
            np.zeros((10, 1), dtype=np.int64),
        )
        model = SoftmaxPolicyModel(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))
        fit = mle_fit(data, model, 0, "a")
        assert np.allclose(fit.params, 0.0)
        assert fit.converged

    def test_two_action_margin_matches_circle_grid_oracle(self):
        t = 400
        data = EpisodeDataset(
            np.zeros((t, 1), dtype=np.int64),
            np.zeros((t, 1), dtype=np.int64),
            np.zeros((t, 1), dtype=np.int64),
            np.zeros((t, 1), dtype=np.int64),
        )
        psi = np.zeros((1, 2, 2))
        psi[0, 0] = [1.0, 0.0]
        psi[0, 1] = [0.0, 1.0]
        model = SoftmaxPolicyModel(psi, psi.copy())
        fit = mle_fit(data, model, 0, "a")
        angles = np.linspace(0, 2 * np.pi, 10**5, endpoint=False)
        candidates = np.column_stack([np.cos(angles), np.sin(angles)])
        nll = np.log(np.exp(candidates @ psi[0, 0]) + np.exp(candidates @ psi[0, 1]))
        nll -= candidates @ psi[0, 0]
        oracle = candidates[np.argmin(nll)]
        assert np.abs(fit.params - oracle).max() < 1e-3
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.abs(fit.params - expected).max() < 1e-3

    def test_objective_monotone_nonincreasing(self):
        model = near_uniform_markov_model(93)
        spec = model.to_tabular()
        truth, _ = backward_qre(spec)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 2000, 94)
        policy = one_hot_policy_model(spec.S, spec.m, spec.n)
        for player in ("a", "b"):
            fit = mle_fit(data, policy, 1, player)
            diffs = np.diff(fit.objective_trace)
            assert np.all(diffs <= 1e-12)

    def test_params_stay_in_ball(self):
        model = near_uniform_markov_model(95)
        spec = model.to_tabular()
        truth, _ = backward_qre(spec)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 500, 96)
        policy = one_hot_policy_model(spec.S, spec.m, spec.n)
        fit = mle_fit(data, policy, 0, "a")
        assert np.linalg.norm(fit.params) <= 1.0 + 1e-12

    def test_estimation_rate_against_dimension_proxy(self):
        # squared TV under the sampling distribution should track the
        # (d_a log T + log 20) / T proxy within a moderate constant
        rng = stream(97)
        s_len, m, d_a = 3, 4, 3
        psi = rng.standard_normal((s_len, m, d_a))
        psi /= np.linalg.norm(psi, axis=2, keepdims=True)
        theta_star = rng.standard_normal(d_a)
        theta_star *= 0.9 / np.linalg.norm(theta_star)
        model = SoftmaxPolicyModel(psi, psi.copy())
        true_cond = model.conditionals(psi, theta_star)
        for t in (10**3, 10**4, 10**5):
            states = rng.integers(0, s_len, (t, 1))
            u = rng.random((t, 1))
            cum = np.cumsum(true_cond, axis=1)
            actions = (u > cum[states[:, 0]][:, None, :].squeeze(1)).sum(axis=1, keepdims=True)
            data = EpisodeDataset(states, actions, actions, states)
            fit = mle_fit(data, model, 0, "a")
            fitted = model.conditionals(psi, fit.params)
            rho = np.bincount(states[:, 0], minlength=s_len) / t
            sq_tv = float(
                rho @ (0.5 * np.abs(fitted - true_cond).sum(axis=1)) ** 2
            )
            proxy = (d_a * np.log(t) + np.log(20)) / t
            assert sq_tv <= 10 * proxy

    @pytest.mark.parametrize("n_episodes", [10**3, 10**4])
    def test_saturated_fits_match_the_einsum_loop(self, n_episodes):
        model = markov_model(stream(20260808, 0))
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-12)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), n_episodes, 20260808, 0)
        policy = saturated_policy_model(spec.S, spec.m, spec.n)
        (fits,) = assert_fits_alone(data, (n_episodes,), policy)
        # the stack runs until its slowest fit stops; the others froze earlier
        assert len({fit.iterations for p in "ab" for fit in fits[p]}) > 1
        for step in (0, 2, 5):
            for player in ("a", "b"):
                assert_same_fit(
                    mle_fit(data, policy, step, player),
                    mle_fit_by_einsum(data, policy, step, player),
                )

    @pytest.mark.parametrize(
        "scale, binding", [(0.05, True), (10.0, False)], ids=["binding", "inactive"]
    )
    def test_dense_fits_match_the_einsum_loop(self, scale, binding):
        data, model = dense_mle_case(scale)
        fit = mle_fit(data, model, 0, "a")
        assert (np.linalg.norm(fit.params) == pytest.approx(1.0)) == binding
        assert_fits_alone(data, (data.n_episodes,), model)
        for player in ("a", "b"):
            assert_same_fit(
                mle_fit(data, model, 0, player), mle_fit_by_einsum(data, model, 0, player)
            )

    def test_replicated_episodes_give_the_same_fit(self):
        # the fit reads counts over N only, and scaling both by 4 is exact
        data, model = dense_mle_case(1.0)
        replicated = EpisodeDataset(
            *(np.tile(col, (4, 1)) for col in
              (data.states, data.actions_a, data.actions_b, data.next_states))
        )
        for player in ("a", "b"):
            fit = mle_fit(data, model, 0, player)
            again = mle_fit(replicated, model, 0, player)
            assert_bit_identical(again, fit)

    def test_a_stack_of_binding_and_free_fits_matches_each_fit_alone(self):
        # psi_a and psi_b of one shape: both players' two steps share a stack
        rng = stream(5)
        psi_a, psi_b = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 4, 5))
        data = EpisodeDataset(*(rng.integers(0, k, (500, 2)) for k in (3, 4, 4, 3)))
        model = SoftmaxPolicyModel(0.15 * psi_a, 0.15 * psi_b)
        (fits,) = assert_fits_alone(data, (500,), model)
        binding = [np.linalg.norm(f.params) == pytest.approx(1.0) for p in "ab" for f in fits[p]]
        assert any(binding) and not all(binding)

    @pytest.mark.parametrize("m, n", [(3, 3), (2, 3)], ids=["one_stack", "a_stack_per_player"])
    def test_one_loop_fits_each_prefix_table_as_it_alone(self, monkeypatch, m, n):
        rng = stream(13)
        s_len, h_len = 3, 4
        data = EpisodeDataset(
            *(rng.integers(0, size, (600, h_len)) for size in (s_len, m, n, s_len))
        )
        stacks = []
        fit_stack = inverse_markov._fit_stack

        def counting(counts, *args):
            stacks.append(len(counts))
            return fit_stack(counts, *args)

        monkeypatch.setattr(inverse_markov, "_fit_stack", counting)
        policy = saturated_policy_model(s_len, m, n)
        sizes = (50, 200, 600)
        fit_every_step([step_counts(data.prefix(size), s_len, m, n) for size in sizes], policy)
        # one loop for the three tables, each fit as alone (tests/test_stacking.py)
        assert stacks == ([3 * 2 * h_len] if m == n else [3 * h_len, 3 * h_len])
        monkeypatch.undo()
        empty = step_counts(data.prefix(0), s_len, m, n)
        with pytest.raises(ValueError, match="^no samples at step 0$"):
            fit_every_step([empty], policy)
        with pytest.raises(ValueError, match="^no samples at step 0$"):
            mle_fit(empty, policy, 0, "a")

    @pytest.mark.parametrize("name, value", [("MLE_MAX_ITER", 50), ("MLE_TOL", 1e-4)])
    def test_the_stopping_rule_is_the_module_constants(self, monkeypatch, name, value):
        data, model = dense_mle_case(0.05)
        default = mle_fit(EpisodeDataset(*data.arrays), model, 0, "a")
        monkeypatch.setattr(inverse_markov, name, value)
        fit = assert_fits_alone(data, (data.n_episodes,), model)[0]["a"][0]
        if name == "MLE_MAX_ITER":
            assert (fit.iterations, fit.converged) == (50, False)
        else:
            assert fit.converged and fit.iterations < default.iterations
        assert len(fit.objective_trace) == fit.iterations < default.iterations

    @pytest.mark.parametrize("tol", [1e-8, 1e-4])
    @pytest.mark.parametrize("scale", [0.15, 1.0], ids=["on_the_ball", "inside_the_ball"])
    def test_convergence_read_per_block_is_the_per_iteration_test(self, monkeypatch, tol, scale):
        # read at each call, so a monkeypatched MLE_TOL is read: each fit's
        # iterations, flag and params are the one-fit loop's, whose norm
        # test (lipschitz * the move on the ball, the gradient inside it)
        # is made every iteration, as is the ball test of a squared norm
        # against the largest double whose sqrt is 1
        ball_sq = inverse_markov._BALL_SQ
        assert np.sqrt(ball_sq) == 1.0 < np.sqrt(np.nextafter(ball_sq, 2.0))
        monkeypatch.setattr(inverse_markov, "MLE_TOL", tol)
        data, model = dense_mle_case(scale)
        assert model.feature_scale**2 != 1.0
        fits = [fit for size in assert_fits_alone(data, (100, data.n_episodes), model)
                for player in "ab" for fit in size[player]]
        assert all(fit.converged for fit in fits)
        on_ball = [np.isclose(np.linalg.norm(fit.params), 1.0) for fit in fits]
        assert any(on_ball) is (scale < 1.0) and not all(on_ball)

    @pytest.mark.parametrize(
        "call, message",
        [
            ({"player": "c"}, "player must be 'a' or 'b'"),
            ({"episodes": 0}, "no samples at step 0"),
        ],
        ids=["player", "no_samples"],
    )
    def test_a_bad_call_raises(self, call, message):
        data, model = dense_mle_case(1.0)
        call = {"step": 0, "player": "a", **call}
        data = data.prefix(call.pop("episodes", data.n_episodes))
        with pytest.raises(ValueError, match=f"^{message}$"):
            mle_fit(data, model, **call)

    @pytest.mark.parametrize(
        "tables, message",
        [
            ([np.zeros((1, 2, 2, 2, 2), dtype=np.int64)],
             re.escape("a table must be shaped (H, 3, 2, 2, 3), not (1, 2, 2, 2, 2)")),
            ([], "no tables to fit"),
            ([np.ones((h, 3, 2, 2, 3), dtype=np.int64) for h in (2, 3)],
             "the tables must share one horizon"),
        ],
        ids=["shape", "no_tables", "horizons"],
    )
    def test_a_bad_fit_every_step_call_raises(self, tables, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_every_step(tables, saturated_policy_model(3, 2, 2))

    def test_binding_ball_fit_meets_kkt_conditions(self):
        radius = 1.0  # the unit ball, made to bind by shrinking psi
        data, model = dense_mle_case(0.05)
        fit = mle_fit(data, model, 0, "a")
        assert abs(np.linalg.norm(fit.params) - radius) <= 1e-12
        freqs = step_counts(data, 3, 4, 2)[0].sum(axis=(2, 3)) / 500
        probs = model.conditionals(model.psi_a, fit.params)
        grad = np.einsum("s,sa,sad->d", freqs.sum(axis=1), probs, model.psi_a)
        grad -= np.einsum("sa,sad->d", freqs, model.psi_a)
        multiplier = -(grad @ fit.params) / radius**2
        assert multiplier >= 0
        assert np.linalg.norm(grad + multiplier * fit.params) <= 1e-6


PSI = np.ones((2, 3, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda data: SoftmaxPolicyModel(PSI, PSI[:1, :2]), "psi_a and psi_b"),
    ],
    ids=["state_mismatch"],
)
def test_softmax_mle_rejects_bad_settings(call, message):
    data = EpisodeDataset(*(np.zeros((4, 1), dtype=np.int64),) * 4)
    with pytest.raises(ValueError, match=message):
        call(data)


class TestRecoverRewardsMle:
    def test_saturated_model_matches_frequency_pipeline(self):
        model = near_uniform_markov_model(60, uniform_transitions=True)
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 5 * 10**4, 61)
        policy = one_hot_policy_model(spec.S, spec.m, spec.n)
        base = dict(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=1.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        from_freq = recover_rewards(data, InversionConfig(**base))[0]
        from_mle = recover_rewards_mle(
            data, InversionConfig(**base, policy_model=policy)
        )[0]
        assert np.abs(from_mle.rewards - from_freq.rewards).max() <= 1e-3

    def test_oracle_inputs_recover_exactly(self):
        spec, feats, _ = full_rank_oracle_model(323)
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 50, 324)
        config = InversionConfig(
            features=feats, eta=spec.eta, gamma=spec.gamma, kappa=0.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        sample = recover_rewards_on_truth(data, config, truth, spec.transition, mle=True)
        assert reward_metric_D(sample.rewards, spec.rewards) <= 1e-6

    def test_unvisited_state_contributes_no_rows(self):
        # episodes never leave state 0, so state 1's weight is zero and its
        # block rows vanish from the weighted system
        model = near_uniform_markov_model(98)
        spec = model.to_tabular()
        t = 200
        states = np.zeros((t, spec.H), dtype=np.int64)
        rng = stream(99)
        acts_a = rng.integers(0, spec.m, (t, spec.H))
        acts_b = rng.integers(0, spec.n, (t, spec.H))
        data = EpisodeDataset(states, acts_a, acts_b, states)
        policy = one_hot_policy_model(spec.S, spec.m, spec.n)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=10.0,
            ridge_lambda=0.01, theta_norm_cap=10.0, policy_model=policy,
        )
        cset = recover_rewards_mle(data, config)[0].sets[0]
        rows_per_state_a = spec.m - 1
        # state 1..3 blocks in the A-part are zero
        a_part = cset.X[: spec.S * rows_per_state_a].reshape(
            spec.S, rows_per_state_a, -1
        )
        assert np.allclose(a_part[1:], 0.0)
        assert not np.allclose(a_part[0], 0.0)

    @pytest.mark.bitwise
    def test_default_sets_of_an_mle_config_are_the_mle_sets(self):
        # stepwise_confidence_sets builds, by default, the sets of the driver
        # its config selects: with a policy_model, recover_rewards_mle's
        model = markov_model(stream(3, 0))
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-12)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 2000, 3)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=0.5,
            ridge_lambda=0.01, theta_norm_cap=10.0,
            policy_model=saturated_policy_model(spec.S, spec.m, spec.n),
        )
        expected = recover_rewards_mle(data, config)[0].sets
        sets = stepwise_confidence_sets(data, config)
        assert len(sets) == len(expected) == spec.H
        for cset, want in zip(sets, expected):
            assert np.array_equal(cset.X, want.X) and np.array_equal(cset.y, want.y)
            assert cset.kappa == want.kappa
        frequency = stepwise_confidence_sets(data, replace(config, policy_model=None))
        assert not np.array_equal(frequency[0].X, sets[0].X)


class TestPerBlockThreshold:
    def test_frequency_step_sets_nonempty_and_members_certified(self):
        record = run_markov_rep(markov_config(20260808, [10**4]), 0)[0]
        for cset in record.sets:
            least_squares = np.linalg.pinv(cset.X) @ cset.y
            assert cset.residual_sq(least_squares) <= cset.kappa
        assert record.feasible.all()

    def test_single_state_rule_is_the_matrix_rule(self):
        # 1e3 * (1 / n) differs from 1e3 / n in the last bit at this n
        n = 9992
        expected = kappa_rule(n)
        assert expected == 1e3 / n
        record = run_markov_rep(markov_config(20260808, [n], s_len=1), 0)[0]
        assert [cset.kappa for cset in record.sets] == [expected] * 6
        counts = np.full((6, 1), n)  # frequency weights 1, MLE weights n / n
        assert np.all(kappa_rule(counts, counts > 0) == expected)
        assert np.all(kappa_rule(counts, counts / n) == expected)

    def markov_rep_data(self, seed, rep, n_episodes):
        model = markov_model(stream(seed, rep))
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-12)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), n_episodes, seed, rep)
        return model, spec, data

    @pytest.mark.bitwise
    def test_frequency_record_sets_are_the_frequency_sets(self):
        n = 10**4
        record = run_markov_rep(markov_config(20260808, [n]), 1)[0]
        model, spec, data = self.markov_rep_data(20260808, 1, n)
        counts = step_counts(data, spec.S, spec.m, spec.n).sum(axis=(2, 3, 4))
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma,
            kappa=kappa_rule(counts, counts > 0), ridge_lambda=0.01, theta_norm_cap=10.0,
        )
        expected = stepwise_confidence_sets(data, config)
        for h, (cset, want) in enumerate(zip(record.sets, expected)):
            assert np.array_equal(cset.X, want.X) and np.array_equal(cset.y, want.y)
            assert cset.kappa == want.kappa
            assert record.coverage[h] == want.contains(record.true_thetas[h])

    def test_mle_record_sets_carry_the_rho_weighted_threshold(self):
        # MLE sets weight state blocks by rho_h(s) = N_h(s) / N, so their
        # threshold is 1e3 * #visited / N, not the frequency rule's sum
        n = 10**4
        record = run_markov_rep(
            markov_config(20260808, [n], policy_estimator="mle"), 1
        )[0]
        _, spec, data = self.markov_rep_data(20260808, 1, n)
        counts = step_counts(data, spec.S, spec.m, spec.n).sum(axis=(2, 3, 4))
        mle_kappa = kappa_rule(counts, counts / n)
        assert [cset.kappa for cset in record.sets] == mle_kappa.tolist()
        assert mle_kappa == pytest.approx(1e3 * (counts > 0).sum(axis=1) / n)
        assert np.all(mle_kappa < kappa_rule(counts, counts > 0))
        assert record.coverage.tolist() == [
            cset.contains(theta) for cset, theta in zip(record.sets, record.true_thetas)
        ]

    def test_weights_select_the_per_state_sum(self):
        counts = np.array([[100, 300, 0, 600]])
        freq = kappa_rule(counts, counts > 0)
        assert freq[0] == pytest.approx(1e3 * (1 / 100 + 1 / 300 + 1 / 600))
        mle = kappa_rule(counts, counts / 1000)
        assert mle[0] == pytest.approx(1e3 * 3 / 1000)
        with pytest.raises(ValueError, match="no samples"):
            kappa_rule(counts, np.ones((1, 4)))


def small_inversion_case():
    """A 3-state, 2 x 3 action, 2-step model and an in-range dataset; the
    dataset's state chain is not kept, which no library entry asks for."""
    rng = stream(97)
    s_len, m, n, h_len, t = 3, 2, 3, 2, 60
    features = rng.standard_normal((s_len, m, n, 2))
    data = EpisodeDataset(
        *(rng.integers(0, size, (t, h_len)) for size in (s_len, m, n, s_len))
    )
    config = InversionConfig(
        features=features, eta=0.5, gamma=1.0, kappa=1e5, ridge_lambda=0.01,
        theta_norm_cap=10.0, policy_model=one_hot_policy_model(s_len, m, n),
    )
    return data, config


ENTRIES = {
    "frequency_estimate_markov":
        lambda data, config: frequency_estimate_markov(data, *config.features.shape[:3]),
    "ridge_fit": lambda data, config: ridge_fit(data, config.features, 0.01, step=0),
    "mle_fit": lambda data, config: mle_fit(data, config.policy_model, 0, "a"),
    "recover_rewards":
        lambda data, config: recover_rewards(data, replace(config, policy_model=None)),
    "recover_rewards_mle": recover_rewards_mle,
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize(
    "column, value, message",
    [
        ("actions_a", 2, "action_a must lie in 0..1"),
        ("actions_b", -1, "action_b must lie in 0..2"),
        ("states", 3, "state must lie in 0..2"),
        ("next_states", -1, "next_state must lie in 0..2"),
        ("next_states", 3, "next_state must lie in 0..2"),
    ],
    ids=["action_past_m", "negative_action", "state_past_S", "negative_next_state",
         "next_state_S"],
)
def test_every_entry_rejects_an_index_outside_the_model(entry, column, value, message):
    data, config = small_inversion_case()
    ENTRIES[entry](data, config)
    # the last step, which ridge_fit and mle_fit at step 0 do not read
    bad = getattr(data, column).copy()
    bad[-1, -1] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        ENTRIES[entry](replace(data, **{column: bad}), config)

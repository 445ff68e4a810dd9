import numpy as np
import pytest

from invgame.experiments import (
    full_rank_oracle_model,
    kappa_rule,
    markov_model,
    run_markov_rep,
)
from invgame.inverse_markov import (
    InversionConfig,
    SoftmaxPolicyModel,
    build_stepwise_system,
    mle_fit,
    recover_rewards,
    recover_rewards_mle,
    ridge_fit,
    stepwise_confidence_set,
    stepwise_confidence_sets,
)
from invgame.inverse_matrix import theoretical_kappa, tv_error_bound
from invgame.markov_game import LinearMDPModel, backward_qre
from invgame.matrix_game import entropy
from invgame.metrics import reward_metric_D
from invgame.sampling import (
    EpisodeDataset,
    frequency_estimate_markov,
    sample_episodes,
    state_visit_counts,
    stream,
)

from .oracles import matrix_linear_system


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


class TestBuildStepwiseSystem:
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
        flat = model.features.reshape(-1, model.dim)
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
        cset = stepwise_confidence_set(system, kappa_h=0.0, theta_norm_cap=10.0)
        assert cset.contains(thetas[0], slack=1e-12)

    def test_norm_above_cap_rejected(self):
        system = build_stepwise_system(
            np.ones((1, 2, 2, 2)), np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), 1.0
        )
        cset = stepwise_confidence_set(system, kappa_h=10.0, theta_norm_cap=2.0)
        assert not cset.contains(np.array([3.0, 0.0]))


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


class TestRecoverRewards:
    def test_oracle_inputs_recover_exactly(self):
        spec, feats, thetas = full_rank_oracle_model(321)
        truth, values = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 50, 322)
        config = InversionConfig(
            features=feats, eta=spec.eta, gamma=spec.gamma, kappa=0.0,
            ridge_lambda=0.01, theta_norm_cap=10.0,
            exact_policies=truth, exact_transition=spec.transition,
        )
        sample = recover_rewards(data, config)[0]
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
            exact_policies=truth, exact_transition=spec.transition,
        )
        sample = recover_rewards(data, config)[0]
        replay_spec = type(spec)(
            sample.rewards, spec.transition, eta=spec.eta, gamma=spec.gamma
        )
        replay, _ = backward_qre(replay_spec, tol=1e-13)
        tv_mu = 0.5 * np.abs(replay.mu - truth.mu).sum(axis=2)
        tv_nu = 0.5 * np.abs(replay.nu - truth.nu).sum(axis=2)
        assert max(tv_mu.max(), tv_nu.max()) <= 1e-6

    def test_extra_members_are_feasible_trajectories(self):
        model = markov_model(stream(89), horizon=2)
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 5000, 90)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=5.0,
            ridge_lambda=0.01, theta_norm_cap=10.0, extra_members=3, member_seed=91,
        )
        samples = recover_rewards(data, config)
        assert len(samples) == 4
        csets = stepwise_confidence_sets(data, config)
        for sample in samples[1:]:
            for h in range(spec.H):
                assert csets[h].contains(sample.thetas[h], slack=1e-9)

    def test_samples_carry_the_sets_they_were_drawn_from(self):
        model = markov_model(stream(93), horizon=3)
        spec = model.to_tabular()
        truth, _ = backward_qre(spec, tol=1e-13)
        data = sample_episodes(spec, truth, np.full(spec.S, 0.25), 5000, 94)
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma,
            kappa=np.array([5.0, 6.0, 7.0]), ridge_lambda=0.01, theta_norm_cap=10.0,
            extra_members=1,
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
            exact_policies=truth, exact_transition=spec.transition,
        )
        sample = recover_rewards_mle(data, config)[0]
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
        from invgame.inverse_markov import _mle_estimates
        from dataclasses import replace as dc_replace
        from invgame.sampling import empirical_state_distribution

        estimates = _mle_estimates(data, policy, spec.S)
        rho = empirical_state_distribution(data, spec.S)
        estimates = dc_replace(estimates, weights=rho)
        system = build_stepwise_system(
            model.features, estimates.mu[0], estimates.nu[0], spec.eta, rho[0]
        )
        rows_per_state_a = spec.m - 1
        # state 1..3 blocks in the A-part are zero
        a_part = system.X[: spec.S * rows_per_state_a].reshape(
            spec.S, rows_per_state_a, -1
        )
        assert np.allclose(a_part[1:], 0.0)
        assert not np.allclose(a_part[0], 0.0)


class TestPerBlockThreshold:
    def test_frequency_step_sets_nonempty_and_members_certified(self):
        record = run_markov_rep(20260808, 0, [10**4])[0]
        for cset in record.sets:
            least_squares = np.linalg.pinv(cset.X) @ cset.y
            assert cset.residual_sq(least_squares) <= cset.kappa
        assert record.feasible.all()

    def test_single_state_rule_is_the_matrix_rule(self):
        # 1e3 * (1 / n) differs from 1e3 / n in the last bit at this n
        n = 9992
        expected = kappa_rule(n)
        assert expected == 1e3 / n
        record = run_markov_rep(20260808, 0, [n], s_len=1)[0]
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

    def test_frequency_record_sets_are_the_frequency_sets(self):
        n = 10**4
        record = run_markov_rep(20260808, 1, [n])[0]
        model, spec, data = self.markov_rep_data(20260808, 1, n)
        counts = state_visit_counts(data, spec.S)
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
        record = run_markov_rep(20260808, 1, [n], estimator="mle")[0]
        _, spec, data = self.markov_rep_data(20260808, 1, n)
        counts = state_visit_counts(data, spec.S)
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

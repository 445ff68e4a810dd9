import numpy as np
import pytest

from invgame import matrix_game
from invgame.markov_game import (
    LinearMDPModel,
    MarkovGameSpec,
    StagePolicies,
    backward_qre,
    backward_qre_stack,
    visit_distributions,
)
from invgame.matrix_game import (
    MatrixGameSpec,
    QreConvergenceError,
    entropy,
    qre_residual,
    solve_qre,
)

from .oracles import (
    backward_values_2x2,
    check_well_posedness,
    rollout_state_frequencies,
)


def make_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_spec(seed, h_len=2, s_len=2, m=2, n=2, eta=1.0, gamma=1.0):
    rng = make_rng(seed)
    rewards = rng.standard_normal((h_len, s_len, m, n))
    raw = rng.random((h_len, s_len, m, n, s_len)) + 1e-3
    transition = raw / raw.sum(axis=4, keepdims=True)
    return MarkovGameSpec(rewards, transition, eta=eta, gamma=gamma)


def simplex_feature_model(seed, s_len=4, m=5, n=5, h_len=6, d=2, eta=0.5, gamma=1.0):
    """Exactly-linear construction: features on the simplex, transition
    parameters are probability-vector columns."""
    rng = make_rng(seed)
    feats = np.abs(rng.standard_normal((s_len, m, n, d)))
    feats /= feats.sum(axis=3, keepdims=True)
    cols = np.abs(rng.standard_normal((h_len, s_len, d)))
    cols /= cols.sum(axis=1, keepdims=True)
    omegas = np.tile(np.array([0.8, -0.6]), (h_len, 1))
    return LinearMDPModel(feats, omegas, cols, eta=eta, gamma=gamma)


class TestSpecValidation:
    def test_transition_rows_must_be_distributions(self):
        rewards = np.zeros((1, 2, 2, 2))
        transition = np.full((1, 2, 2, 2, 2), 0.4)
        with pytest.raises(ValueError):
            MarkovGameSpec(rewards, transition, eta=1.0)

    @pytest.mark.parametrize("eta", [np.inf, np.nan])
    def test_rejects_nonfinite_eta(self, eta):
        spec = random_spec(0)
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            MarkovGameSpec(spec.rewards, spec.transition, eta=eta)

    def test_gamma_range(self):
        spec = random_spec(0)
        with pytest.raises(ValueError):
            MarkovGameSpec(spec.rewards, spec.transition, eta=1.0, gamma=1.5)

    def test_linear_model_reproduces_tabular_exactly(self):
        model = simplex_feature_model(7)
        spec = model.to_tabular()
        rebuilt = np.einsum("smnd,hd->hsmn", model.features, model.reward_params)
        assert np.allclose(spec.rewards, rebuilt, atol=1e-15)
        assert np.all(spec.transition >= 0)
        assert np.allclose(spec.transition.sum(axis=4), 1.0, atol=1e-12)


class TestBackwardQre:
    def test_single_step_reduces_to_matrix_qre(self):
        spec = random_spec(1, h_len=1, s_len=3, m=3, n=4)
        policies, values = backward_qre(spec, tol=1e-13)
        for s in range(spec.S):
            stage = MatrixGameSpec(spec.rewards[0, s], spec.eta)
            pair = solve_qre(stage, tol=1e-13)
            assert np.abs(policies.mu[0, s] - pair.mu).max() < 1e-10
            assert np.abs(policies.nu[0, s] - pair.nu).max() < 1e-10
        assert np.allclose(values.Q[0], spec.rewards[0])

    def test_gamma_zero_kills_continuation(self):
        spec = random_spec(2, h_len=3, gamma=0.0)
        _, values = backward_qre(spec)
        assert np.allclose(values.Q, spec.rewards)

    def test_two_step_matches_bisection_recursion_oracle(self):
        spec = random_spec(3, h_len=2, s_len=2, m=2, n=2, eta=1.3, gamma=0.9)
        _, values = backward_qre(spec, tol=1e-14)
        oracle_v, _ = backward_values_2x2(
            spec.rewards, spec.transition, spec.eta, spec.gamma
        )
        assert np.abs(values.V[0] - oracle_v[0]).max() < 1e-9

    def test_stage_fixed_point_and_value_identity(self):
        spec = random_spec(4, h_len=3, s_len=3, m=3, n=3, eta=0.7)
        policies, values = backward_qre(spec, tol=1e-12)
        for h in range(spec.H):
            for s in range(spec.S):
                stage = MatrixGameSpec(values.Q[h, s], spec.eta)
                mu, nu = policies.mu[h, s], policies.nu[h, s]
                pair = type("P", (), {"mu": mu, "nu": nu})
                assert qre_residual(stage, pair) <= 1e-10
                expected_v = (
                    mu @ values.Q[h, s] @ nu + (entropy(mu) - entropy(nu)) / spec.eta
                )
                assert values.V[h, s] == pytest.approx(expected_v, abs=1e-10)

    def test_reward_shift_propagates_geometrically(self):
        spec = random_spec(5, h_len=3, s_len=2, gamma=0.8)
        shift_step, c = 2, 0.9
        shifted_rewards = spec.rewards.copy()
        shifted_rewards[shift_step] += c
        shifted = MarkovGameSpec(
            shifted_rewards, spec.transition, eta=spec.eta, gamma=spec.gamma
        )
        base_pol, base_val = backward_qre(spec)
        new_pol, new_val = backward_qre(shifted)
        for h in range(spec.H):
            expected = c * spec.gamma ** (shift_step - h) if h <= shift_step else 0.0
            assert np.abs(new_val.V[h] - base_val.V[h] - expected).max() < 1e-9
        assert np.abs(new_pol.mu - base_pol.mu).max() < 1e-9
        assert np.abs(new_pol.nu - base_pol.nu).max() < 1e-9

    def test_nonconvergence_names_step_and_state(self, monkeypatch):
        # the last step is solved first; its state 0 game is the zero game,
        # which the uniform start solves, and state 1 cannot converge in 3
        rewards = np.zeros((2, 2, 2, 2))
        rewards[1, 1] = [[7.0, -2.0], [0.5, 3.0]]
        transition = np.full((2, 2, 2, 2, 2), 0.5)
        spec = MarkovGameSpec(rewards, transition, eta=2.0)
        monkeypatch.setattr(matrix_game, "MAX_NEWTON_STEPS", 3)
        with pytest.raises(QreConvergenceError, match="at step 1, state 1") as err:
            backward_qre(spec)
        assert (err.value.step, err.value.state) == (1, 1)
        assert err.value.failed == ((1,),)
        assert err.value.iterations == 3
        assert err.value.reached == (0.0,)
        with pytest.raises(QreConvergenceError) as err:
            backward_qre_stack(np.stack([rewards, rewards]), transition, 2.0)
        assert (err.value.step, err.value.state) == (1, 1)
        assert err.value.failed == ((0, 1), (1, 1))
        assert err.value.reached == (0.0, 0.0)


class TestVisitDistributions:
    def test_identity_transitions_freeze_initial(self):
        h_len, s_len, m, n = 3, 4, 2, 2
        rewards = np.zeros((h_len, s_len, m, n))
        transition = np.zeros((h_len, s_len, m, n, s_len))
        for s in range(s_len):
            transition[:, s, :, :, s] = 1.0
        spec = MarkovGameSpec(rewards, transition, eta=1.0)
        policies, _ = backward_qre(spec)
        initial = np.array([0.7, 0.1, 0.1, 0.1])
        state, _ = visit_distributions(spec, policies, initial)
        assert np.allclose(state, initial, atol=1e-12)

    def test_uniform_transitions_mix_immediately(self):
        spec = random_spec(6, h_len=3, s_len=4)
        uniform_t = np.full_like(spec.transition, 1 / spec.S)
        spec = MarkovGameSpec(spec.rewards, uniform_t, eta=1.0)
        policies, _ = backward_qre(spec)
        state, _ = visit_distributions(spec, policies, np.array([1.0, 0, 0, 0]))
        assert np.allclose(state[1:], 0.25, atol=1e-12)

    def test_matches_monte_carlo_rollouts(self):
        model = simplex_feature_model(8, s_len=4, m=3, n=3, h_len=3)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        initial = np.full(spec.S, 0.25)
        state, _ = visit_distributions(spec, policies, initial)
        freq = rollout_state_frequencies(
            initial, policies.mu, policies.nu, spec.transition, 10**6, make_rng(123)
        )
        tv = 0.5 * np.abs(freq - state).sum(axis=1)
        assert tv.max() < 5e-3

    def test_rows_sum_to_one_and_joint_consistent(self):
        spec = random_spec(9, h_len=4, s_len=3, m=3, n=2)
        policies, _ = backward_qre(spec)
        initial = np.array([0.2, 0.3, 0.5])
        state, joint = visit_distributions(spec, policies, initial)
        assert np.allclose(state.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(joint.sum(axis=(1, 2, 3)), 1.0, atol=1e-12)
        assert np.allclose(joint.sum(axis=(2, 3)), state, atol=1e-12)


class TestWellPosedness:
    def test_uniform_visits(self):
        dists = np.full((3, 4), 0.25)
        ok, minimum = check_well_posedness(dists, 0.2)
        assert ok and minimum == pytest.approx(0.25)

    def test_unreachable_state(self):
        dists = np.array([[0.5, 0.5, 0.0]])
        ok, minimum = check_well_posedness(dists, 0.01)
        assert not ok and minimum == 0.0

    def test_seeded_markov_instance(self):
        model = simplex_feature_model(10)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        state, _ = visit_distributions(spec, policies, np.full(spec.S, 0.25))
        ok, minimum = check_well_posedness(state, 0.01)
        assert ok == (minimum >= 0.01)
        assert minimum > 0


class TestQParams:
    def test_q_params_reproduce_backward_q_tensor(self):
        model = simplex_feature_model(11, h_len=4)
        spec = model.to_tabular()
        _, values = backward_qre(spec, tol=1e-13)
        thetas = model.q_params(values.V)
        q_lin = np.einsum("smnd,hd->hsmn", model.features, thetas)
        assert np.abs(q_lin - values.Q).max() < 1e-9

import numpy as np
import pytest

from invgame import experiments
from invgame.experiments import ExperimentConfig
from invgame.inverse_matrix import reconstruct_payoff
from invgame.markov_game import backward_qre, visit_distributions
from invgame.matrix_game import MatrixGameSpec, PolicyPair, solve_qre
from invgame.metrics import (
    qre_discrepancy,
    qre_discrepancy_markov,
    reward_metric_D,
    reward_metric_D1,
)

from .oracles import hellinger_sq, tv
from .test_markov_game import make_rng, simplex_feature_model
from .test_matrix_game import seeded_features


def random_distribution(rng, k):
    raw = rng.random(k) + 1e-12
    return raw / raw.sum()


class TestTv:
    def test_identical(self):
        assert tv(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0

    def test_disjoint_point_masses(self):
        assert tv(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_hand_value(self):
        assert tv(np.array([0.7, 0.3]), np.array([0.5, 0.5])) == pytest.approx(0.2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tv(np.array([1.0]), np.array([0.5, 0.5]))


class TestHellinger:
    def test_identical(self):
        assert hellinger_sq(np.array([0.2, 0.8]), np.array([0.2, 0.8])) == 0.0

    def test_disjoint_point_masses(self):
        assert hellinger_sq(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_tv_hellinger_inequality_on_random_pairs(self):
        rng = make_rng(100)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            p = random_distribution(rng, k)
            q = random_distribution(rng, k)
            assert tv(p, q) <= np.sqrt(2 * hellinger_sq(p, q)) + 1e-12

    def test_symmetry_and_triangle_inequality(self):
        rng = make_rng(101)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            p, q, r = (random_distribution(rng, k) for _ in range(3))
            assert tv(p, q) == pytest.approx(tv(q, p))
            assert hellinger_sq(p, q) == pytest.approx(hellinger_sq(q, p))
            assert tv(p, r) <= tv(p, q) + tv(q, r) + 1e-12
            h = lambda x, y: np.sqrt(hellinger_sq(x, y))
            assert h(p, r) <= h(p, q) + h(q, r) + 1e-12


class TestRewardMetrics:
    def test_equal_rewards(self):
        r = np.zeros((2, 3, 2, 2))
        assert reward_metric_D(r, r) == 0.0

    def test_single_entry_shift(self):
        r = np.zeros((2, 3, 2, 2))
        r2 = r.copy()
        r2[1, 2, 0, 1] = -0.7
        assert reward_metric_D(r, r2) == pytest.approx(0.7)

    def test_d1_with_concentrated_rho(self):
        rng = make_rng(102)
        r = rng.standard_normal((2, 3, 2, 2))
        r2 = rng.standard_normal((2, 3, 2, 2))
        rho = np.zeros((2, 3))
        rho[:, 1] = 1.0
        expected = np.abs(r - r2)[:, 1].max()
        assert reward_metric_D1(r, r2, rho) == pytest.approx(expected)

    def test_d1_never_exceeds_d(self):
        rng = make_rng(103)
        for _ in range(1000):
            r = rng.standard_normal((2, 2, 2, 2))
            r2 = rng.standard_normal((2, 2, 2, 2))
            rho = rng.random((2, 2)) + 1e-9
            rho /= rho.sum(axis=1, keepdims=True)
            assert reward_metric_D1(r, r2, rho) <= reward_metric_D(r, r2) + 1e-12

    def test_d_symmetric_nonnegative(self):
        rng = make_rng(104)
        r = rng.standard_normal((1, 2, 2, 2))
        r2 = rng.standard_normal((1, 2, 2, 2))
        assert reward_metric_D(r, r2) == pytest.approx(reward_metric_D(r2, r))
        assert reward_metric_D(r, r2) > 0


class TestQreDiscrepancy:
    def test_true_payoff_gives_zero(self):
        feats = seeded_features(4, 6, 2, seed=30)
        q = feats @ np.array([0.8, -0.6])
        pair = solve_qre(MatrixGameSpec(q, 0.5), tol=1e-13)
        assert qre_discrepancy(q, pair, 0.5, tol=1e-13) < 2e-13 * (4 + 6)

    def test_shift_invariance(self):
        feats = seeded_features(3, 3, 2, seed=31)
        q = feats @ np.array([0.8, -0.6])
        pair = solve_qre(MatrixGameSpec(q, 1.0), tol=1e-13)
        assert qre_discrepancy(q + 5.0, pair, 1.0, tol=1e-13) < 1e-10

    def test_markov_variant_zero_on_true_rewards(self):
        model = simplex_feature_model(32, h_len=3)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec, tol=1e-13)
        state, _ = visit_distributions(spec, policies, np.full(spec.S, 0.25))
        total, per_step = qre_discrepancy_markov(
            spec, spec.rewards, policies, state, tol=1e-13
        )
        assert total < 1e-10
        assert per_step.shape == (3,)

    def test_markov_variant_ignores_zero_visit_states(self):
        model = simplex_feature_model(33, h_len=2)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        weights = np.zeros((spec.H, spec.S))
        weights[:, 0] = 1.0
        corrupted = spec.rewards.copy()
        corrupted[:, 1:] += 100.0  # garbage at states that carry zero weight
        # rebuild so only state 0 feeds the metric; transitions stay identical,
        # so re-solved stage policies at state 0 depend only on rewards there
        # when gamma is 0
        spec0 = type(spec)(spec.rewards, spec.transition, eta=spec.eta, gamma=0.0)
        policies0, _ = backward_qre(spec0)
        corrupted0 = spec.rewards.copy()
        corrupted0[:, 1:] += 100.0
        total, _ = qre_discrepancy_markov(spec0, corrupted0, policies0, weights)
        assert total < 1e-9

    def test_markov_variant_scores_a_reward_stack_in_one_pass(self):
        model = simplex_feature_model(34, h_len=3)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        state, _ = visit_distributions(spec, policies, np.full(spec.S, 0.25))
        rng = make_rng(35)
        stack = spec.rewards + 0.3 * rng.standard_normal((3,) + spec.rewards.shape)
        totals, per_steps = qre_discrepancy_markov(spec, stack, policies, state)
        assert totals.shape == (3,) and per_steps.shape == (3, spec.H)
        for k in range(3):
            total, per_step = qre_discrepancy_markov(spec, stack[k], policies, state)
            assert isinstance(total, float)
            assert abs(totals[k] - total) <= 1e-15
            assert np.abs(per_steps[k] - per_step).max() <= 1e-15
        with pytest.raises(ValueError):
            qre_discrepancy_markov(spec, stack[:, :2], policies, state)


class TestMatrixGameIsOneMarkovStep:
    # the runner solves and re-solves a matrix game as the one-step,
    # one-state Markov game; both must match the matrix solver exactly

    @pytest.mark.parametrize(
        "fields",
        [{"kind": "setup1"}, {"kind": "setup2"},
         {"kind": "custom", "m": 3, "n": 5, "theta": (0.5, -0.25, 0.3)}],
        ids=["setup1", "setup2", "custom"],
    )
    def test_backward_qre_truth_is_the_matrix_qre(self, fields):
        config = ExperimentConfig(**fields, seed=8)
        for rep in range(3):
            model, spec, (truth, _), _ = experiments._instance(config, rep, 1)
            assert (spec.H, spec.S) == (1, 1)
            payoff = reconstruct_payoff(model.theta, model.features)
            pair = solve_qre(MatrixGameSpec(payoff, config.eta), tol=1e-12)
            assert np.array_equal(truth.mu[0, 0], pair.mu)
            assert np.array_equal(truth.nu[0, 0], pair.nu)

    def test_qre_discrepancy_is_the_matrix_re_solve(self):
        rng = make_rng(41)
        for m, n in ((2, 2), (3, 5), (6, 4)):
            q = rng.standard_normal((m, n))
            truth = solve_qre(MatrixGameSpec(q, 0.5), tol=1e-12)
            for scale in (1e-3, 0.3, 3.0):
                q_hat = q + scale * rng.standard_normal((m, n))
                pair = solve_qre(MatrixGameSpec(q_hat, 0.5), tol=1e-12)
                expected = tv(pair.mu, truth.mu) + tv(pair.nu, truth.nu)
                assert qre_discrepancy(q_hat, truth, 0.5) == expected

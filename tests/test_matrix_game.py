from functools import lru_cache

import numpy as np
import pytest

from invgame import experiments, markov_game, matrix_game
from invgame.markov_game import backward_qre
from invgame.matrix_game import (
    FeatureModel,
    MatrixGameSpec,
    PolicyPair,
    QreConvergenceError,
    game_value,
    qre_residual,
    solve_qre,
    solve_qre_batch,
)

from .oracles import (
    assert_bit_identical,
    payoff_by_scalar_loops,
    payoff_from_features,
    qre_2x2_bisection,
    qre_by_damped_iteration,
    qre_by_eager_newton,
    simplex_mesh,
)


def seeded_features(m, n, d, seed, unit_norm=True):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    feats = rng.standard_normal((m, n, d))
    if unit_norm:
        feats /= np.linalg.norm(feats, axis=2, keepdims=True)
    return feats


@lru_cache(maxsize=None)
def strongly_scaled_game():
    """A near-deterministic 4x4 game that plain Newton from uniform play
    does not solve, so its solve takes several continuation steps in eta,
    with its single-game QRE (cached: several tests share it)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(124)))
    spec = MatrixGameSpec(rng.standard_normal((4, 4)) * 20, eta=2.0)
    return spec, solve_qre(spec, tol=1e-12)


def solved_or_raised(solver, payoffs, eta, tol):
    try:
        return solver(payoffs, eta, tol)
    except QreConvergenceError as err:
        return err


def assert_solves_as_eager_newton(payoffs, eta, tol=1e-12):
    """solve_qre_batch's mu and nu, or the failed entries, t reached, step
    count, residual and message of its QreConvergenceError, are those of
    its earlier body to the last bit."""
    got = solved_or_raised(solve_qre_batch, payoffs, eta, tol)
    expected = solved_or_raised(qre_by_eager_newton, payoffs, eta, tol)
    if isinstance(expected, QreConvergenceError):
        assert isinstance(got, QreConvergenceError) and str(got) == str(expected)
        for field in ("failed", "reached", "iterations", "residual"):
            assert_bit_identical(getattr(got, field), getattr(expected, field))
    else:
        assert_bit_identical(got, expected)
    return got


def markov_stacks(monkeypatch):
    """Every solve_qre_batch input of one markov repetition of instances
    0-8 at four sample sizes: each step's truth stack (B = 4) and the
    re-solve stack of the four recovered reward tables (B = 16)."""
    stacks = []

    def recording(payoffs, eta, tol):
        stacks.append((payoffs.copy(), eta, tol))
        return solve_qre_batch(payoffs, eta, tol)

    with monkeypatch.context() as patch:
        patch.setattr(markov_game, "solve_qre_batch", recording)
        for seed in range(9):
            sizes = (1000, 2000, 5000, 10_000)
            config = experiments.ExperimentConfig("markov", seed=seed, samples=sizes)
            experiments.run_markov_rep(config, 0)
    assert sorted({len(payoffs) for payoffs, _, _ in stacks}) == [4, 16]
    return stacks


def random_stacks():
    """Stacks of three random games: m != n, and m = n of 8 and 10, where
    numpy's sums run in blocks of 8; payoff scales 0.1 to 300, eta 0.1 to 2."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(140)))
    for m, n in [(2, 3), (3, 7), (6, 4), (5, 5), (8, 8), (10, 10)]:
        for scale, eta in [(0.1, 2.0), (1, 0.1), (30, 0.5), (300, 2.0)]:
            yield rng.standard_normal((3, m, n)) * scale, eta, 1e-12


class TestSpecValidation:
    def test_rejects_tiny_action_sets(self):
        with pytest.raises(ValueError):
            MatrixGameSpec(np.zeros((1, 3)), eta=1.0)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            MatrixGameSpec(np.zeros((2, 2)), eta=0.0)

    @pytest.mark.parametrize("eta", [np.inf, np.nan])
    def test_rejects_nonfinite_eta(self, eta):
        with pytest.raises(ValueError, match="eta"):
            MatrixGameSpec(np.zeros((2, 2)), eta=eta)
        with pytest.raises(ValueError, match="eta"):
            solve_qre_batch(np.zeros((1, 2, 2)), eta)

    def test_rejects_nonfinite_payoff(self):
        q = np.zeros((2, 2))
        q[0, 0] = np.inf
        with pytest.raises(ValueError):
            MatrixGameSpec(q, eta=1.0)

    def test_policy_pair_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PolicyPair(np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    def test_policy_pair_rejects_negative(self):
        with pytest.raises(ValueError):
            PolicyPair(np.array([1.5, -0.5]), np.array([0.5, 0.5]))


class TestPayoffFromFeatures:
    def test_zero_theta_gives_zero_matrix(self):
        model = FeatureModel(seeded_features(3, 4, 2, 0), np.zeros(2))
        assert np.all(payoff_from_features(model) == 0.0)

    def test_constant_feature(self):
        model = FeatureModel(np.ones((2, 3, 1)), np.array([0.8]))
        assert np.allclose(payoff_from_features(model), 0.8)

    def test_setup_i_matches_scalar_loop_oracle(self):
        feats = seeded_features(4, 6, 2, seed=11)
        theta = np.array([0.8, -0.6])
        model = FeatureModel(feats, theta, norm_sq_cap=4.0)
        expected = payoff_by_scalar_loops(feats, theta)
        assert np.allclose(payoff_from_features(model), expected, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeatureModel(seeded_features(2, 2, 3, 0), np.zeros(2))


class TestSolveQre:
    def test_zero_payoff_gives_uniform(self):
        spec = MatrixGameSpec(np.zeros((3, 5)), eta=1.7)
        pair = solve_qre(spec)
        assert np.allclose(pair.mu, 1 / 3, atol=1e-12)
        assert np.allclose(pair.nu, 1 / 5, atol=1e-12)

    def test_matching_pennies_uniform(self):
        spec = MatrixGameSpec(np.array([[1.0, -1.0], [-1.0, 1.0]]), eta=1.0)
        pair = solve_qre(spec)
        assert np.allclose(pair.mu, 0.5, atol=1e-12)
        assert np.allclose(pair.nu, 0.5, atol=1e-12)

    def test_2x2_against_bisection_oracle(self):
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        spec = MatrixGameSpec(q, eta=1.0)
        pair = solve_qre(spec, tol=1e-13)
        mu_star, nu_star = qre_2x2_bisection(q, eta=1.0)
        assert np.abs(pair.mu - mu_star).max() < 1e-10
        assert np.abs(pair.nu - nu_star).max() < 1e-10

    def test_setup_i_residual_at_tolerance(self):
        feats = seeded_features(4, 6, 2, seed=3)
        q = feats @ np.array([0.8, -0.6])
        spec = MatrixGameSpec(q, eta=0.5)
        pair = solve_qre(spec, tol=1e-12)
        assert qre_residual(spec, pair) <= 1e-10

    def test_role_swap_symmetry(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
        q = rng.standard_normal((4, 3))
        pair = solve_qre(MatrixGameSpec(q, eta=0.8))
        swapped = solve_qre(MatrixGameSpec(-q.T, eta=0.8))
        assert np.abs(swapped.mu - pair.nu).max() < 1e-9
        assert np.abs(swapped.nu - pair.mu).max() < 1e-9

    def test_constant_shift_invariance(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(22)))
        q = rng.standard_normal((3, 4))
        pair = solve_qre(MatrixGameSpec(q, eta=1.2))
        shifted = solve_qre(MatrixGameSpec(q + 3.7, eta=1.2))
        assert np.abs(shifted.mu - pair.mu).max() < 1e-9
        assert np.abs(shifted.nu - pair.nu).max() < 1e-9

    def test_strictly_positive_outputs(self):
        q = np.array([[5.0, -5.0, 0.0], [0.0, 2.0, -3.0]])
        pair = solve_qre(MatrixGameSpec(q, eta=2.0))
        assert pair.mu.min() > 0
        assert pair.nu.min() > 0

    def test_strongly_scaled_payoffs_converge_via_continuation(self):
        # near-deterministic equilibrium regime: the full-eta Newton trial
        # misses and the continuation in eta has to carry the solve
        spec, pair = strongly_scaled_game()
        assert qre_residual(spec, pair) <= 1e-10

    def test_strongly_scaled_2x2_against_bisection_oracle(self):
        q = 50 * np.array([[7.0, -2.0], [0.5, 3.0]])
        pair = solve_qre(MatrixGameSpec(q, eta=1.0))
        mu_star, nu_star = qre_2x2_bisection(q, eta=1.0)
        assert np.abs(pair.mu - mu_star).max() < 1e-10
        assert np.abs(pair.nu - nu_star).max() < 1e-10

    def test_nonconvergence_reports_the_continuation_reached(self, monkeypatch):
        # cut off part-way along the strongly scaled game's branch in eta
        spec, _ = strongly_scaled_game()
        monkeypatch.setattr(matrix_game, "MAX_NEWTON_STEPS", 20)
        with pytest.raises(QreConvergenceError) as err:
            solve_qre(spec, tol=1e-12)
        (reached,) = err.value.reached
        assert 0 < reached < 1
        assert f"(last residual {err.value.residual:.3e};" in str(err.value)
        assert f"reached t [{reached:.3g}])" in str(err.value)

    def test_nonconvergence_reports_residual(self, monkeypatch):
        spec = MatrixGameSpec(np.array([[7.0, -2.0], [0.5, 3.0]]), eta=2.0)
        monkeypatch.setattr(matrix_game, "MAX_NEWTON_STEPS", 3)
        with pytest.raises(QreConvergenceError) as err:
            solve_qre(spec, tol=1e-12)
        assert err.value.iterations == 3
        assert err.value.residual > 0

    def test_a_stalled_continuation_fails_without_spending_max_iter(self):
        # with 1e308 payoffs the continuation accepts no t above ~1e-280,
        # where a halved step soon stops moving t; the stall fails there,
        # far below the 100,000 Newton steps of MAX_NEWTON_STEPS
        stack = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1e308, -1e308], [0.0, 1.0]]])
        with pytest.raises(QreConvergenceError, match=r"failed entries \[1\]") as err:
            solve_qre_batch(stack, 0.5)
        assert err.value.iterations <= 20_000
        (reached,) = err.value.reached
        assert 0 < reached < 1e-200
        # the stall is named, t keeps its digits, and the residual of the
        # last trial, which hit at the unmoved t, is not reported
        assert err.value.residual is None
        assert "(stalled; failed entries [1]" in str(err.value)
        assert f"reached t [{reached:.3g}])" in str(err.value)
        assert "residual" not in str(err.value)


class TestSolveQreBatch:
    @pytest.mark.parametrize("eta", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("scale", [1, 10, 100, 300])
    def test_converges_across_sizes_and_payoff_scales(self, scale, eta):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(127)))
        for m, n in [(2, 2), (2, 5), (4, 3), (5, 5), (7, 6)]:
            stack = rng.standard_normal((3, m, n)) * scale
            mu, nu = solve_qre_batch(stack, eta, tol=1e-12)
            for q, mu_q, nu_q in zip(stack, mu, nu):
                assert qre_residual(MatrixGameSpec(q, eta), PolicyPair(mu_q, nu_q)) <= 1e-10

    @pytest.mark.parametrize("scale", [1, 3, 10])
    def test_random_games_against_damped_iteration(self, scale):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(128)))
        stack = rng.standard_normal((6, 4, 5)) * scale
        mu, nu = solve_qre_batch(stack, 0.5, tol=1e-12)
        mu_ref, nu_ref = qre_by_damped_iteration(stack, 0.5, tol=1e-12)
        assert np.abs(mu - mu_ref).max() <= 1e-10
        assert np.abs(nu - nu_ref).max() <= 1e-10

    def test_benchmark_stage_stacks_against_damped_iteration(self):
        # every state's stage game of each step of markov instance 3
        spec = experiments.markov_model(experiments.stream(3, 0)).to_tabular()
        _, values = backward_qre(spec)
        for stage in values.Q:
            mu, nu = solve_qre_batch(stage, spec.eta, tol=1e-12)
            mu_ref, nu_ref = qre_by_damped_iteration(stage, spec.eta, tol=1e-12)
            assert np.abs(mu - mu_ref).max() <= 1e-10
            assert np.abs(nu - nu_ref).max() <= 1e-10

    @pytest.mark.bitwise
    def test_2x2_stack_against_bisection_oracle(self):
        stack = np.array(
            [
                [[1.0, 0.0], [0.0, 0.0]],
                [[7.0, -2.0], [0.5, 3.0]],
                [[1.0, -1.0], [-1.0, 1.0]],
                [[0.0, 0.0], [0.0, 0.0]],
            ]
        )
        mu, nu = solve_qre_batch(stack, 1.0, tol=1e-13)
        for i, q in enumerate(stack):
            alone = solve_qre(MatrixGameSpec(q, 1.0), tol=1e-13)
            assert np.abs(mu[i] - alone.mu).max() <= 1e-15
            assert np.abs(nu[i] - alone.nu).max() <= 1e-15
            mu_star, nu_star = qre_2x2_bisection(q, eta=1.0)
            assert np.abs(mu[i] - mu_star).max() < 1e-10
            assert np.abs(nu[i] - nu_star).max() < 1e-10

    def test_nonconvergence_names_the_failed_entries(self, monkeypatch):
        # the zero game is solved by the uniform start; the others are not
        hard = np.array([[7.0, -2.0], [0.5, 3.0]])
        stack = np.stack([np.zeros((2, 2)), hard, 2 * hard])
        monkeypatch.setattr(matrix_game, "MAX_NEWTON_STEPS", 3)
        with pytest.raises(QreConvergenceError, match=r"failed entries \[1, 2\]") as err:
            solve_qre_batch(stack, 2.0, tol=1e-12)
        assert err.value.failed == (1, 2)
        assert err.value.iterations == 3
        assert err.value.residual > 0
        assert err.value.step is None and err.value.state is None

    def test_an_empty_stack_is_solved_at_once(self, monkeypatch):
        monkeypatch.setattr(matrix_game, "MAX_NEWTON_STEPS", 1)  # no Newton step to run
        mu, nu = solve_qre_batch(np.zeros((0, 3, 2)), 1.0)
        assert (mu.shape, nu.shape, mu.dtype, nu.dtype) == ((0, 3), (0, 2), float, float)

    @pytest.mark.bitwise
    @pytest.mark.parametrize("case", ["markov", "random", "mixed", "capped", "stalled"])
    def test_solves_as_the_eager_body(self, case, monkeypatch):
        scaled, _ = strongly_scaled_game()
        # the zero game is done at the first step, the strongly scaled one continues in eta
        mixed = (np.stack([np.zeros((4, 4)), scaled.payoff]), scaled.eta)
        hard = np.array([[7.0, -2.0], [0.5, 3.0]])
        if case in ("markov", "random"):
            stacks = markov_stacks(monkeypatch) if case == "markov" else random_stacks()
            for payoffs, eta, tol in stacks:
                assert_solves_as_eager_newton(payoffs, eta, tol)
        elif case == "mixed":
            assert_solves_as_eager_newton(*mixed)
        elif case == "capped":  # in the first trial at t = 1, and part-way along the branch
            hard_stack = (np.stack([np.zeros((2, 2)), hard, 2 * hard]), 2.0)
            # a zero game, one whose residual rises at step 2 and one that
            # plain Newton would solve at step 9, which the 8-step trial cuts
            late = [np.zeros((2, 2)), [[-48.0, -48.0], [-48.0, 16.0]], [[-24.0, 0.0], [16.0, 0.0]]]
            cases = [(3, hard_stack), (3, mixed), (9, (np.array(late), 2.0)), (20, mixed)]
            for max_steps, (payoffs, eta) in cases:
                monkeypatch.setattr(matrix_game, "MAX_NEWTON_STEPS", max_steps)
                err = assert_solves_as_eager_newton(payoffs, eta)
                assert isinstance(err, QreConvergenceError) and err.iterations == max_steps
            assert 0 < err.reached[0] < 1
        else:
            stack = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1e308, -1e308], [0.0, 1.0]]])
            err = assert_solves_as_eager_newton(stack, 0.5)
            assert isinstance(err, QreConvergenceError) and err.residual is None

    def test_rejects_invalid_stacks(self):
        with pytest.raises(ValueError):
            solve_qre_batch(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            solve_qre_batch(np.zeros((3, 1, 2)), 1.0)
        with pytest.raises(ValueError):
            solve_qre_batch(np.full((1, 2, 2), np.nan), 1.0)
        with pytest.raises(ValueError):
            solve_qre_batch(np.zeros((1, 2, 2)), 0.0)


class TestQreResidual:
    def test_uniform_pair_exact_for_zero_payoff(self):
        spec = MatrixGameSpec(np.zeros((2, 2)), eta=1.0)
        pair = PolicyPair(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert qre_residual(spec, pair) <= 1e-15

    def test_uniform_pair_positive_when_rows_differ(self):
        spec = MatrixGameSpec(np.array([[1.0, 0.0], [0.0, 0.0]]), eta=1.0)
        pair = PolicyPair(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert qre_residual(spec, pair) > 1e-3

    def test_dimension_mismatch(self):
        spec = MatrixGameSpec(np.zeros((2, 3)), eta=1.0)
        pair = PolicyPair(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            qre_residual(spec, pair)


class TestGameValue:
    def test_zero_payoff_uniform_value_zero(self):
        spec = MatrixGameSpec(np.zeros((2, 2)), eta=1.0)
        pair = PolicyPair(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert game_value(spec, pair) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_row_against_uniform(self):
        spec = MatrixGameSpec(np.zeros((2, 2)), eta=1.0)
        pair = PolicyPair(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert game_value(spec, pair) == pytest.approx(-np.log(2))

    def test_qre_nu_minimizes_over_nu_mesh(self):
        # nu* is the exact minimizer of the objective given mu*, so the QRE
        # value lower-bounds the objective at every grid point of the simplex
        feats = seeded_features(4, 6, 2, seed=5)
        q = feats @ np.array([0.8, -0.6])
        spec = MatrixGameSpec(q, eta=0.5)
        pair = solve_qre(spec)
        value = game_value(spec, pair)
        grid_values = [
            game_value(spec, PolicyPair(pair.mu, nu)) for nu in simplex_mesh(6, 3)
        ]
        assert value <= min(grid_values) + 1e-12

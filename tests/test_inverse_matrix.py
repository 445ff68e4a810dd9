import numpy as np
import pytest

from invgame.experiments import (
    SETUP2_THETA,
    custom_model,
    kappa_rule,
    setup1_model,
    setup2_model,
)
from invgame.inverse_matrix import (
    ConfidenceSet,
    FeasibleSet,
    PartialIdentifiabilityError,
    build_confidence_set,
    build_stepwise_system,
    empirical_system,
    feasible_set_from_policies,
    floor_distribution,
    hausdorff_estimate,
    least_squares_theta,
    min_norm_theta,
    rank_condition,
    reconstruct_payoff,
    _distances_to,
)
from invgame.matrix_game import MatrixGameSpec, PolicyPair, solve_qre
from invgame.sampling import frequency_estimate_matrix, sample_matrix_actions, stream

from .oracles import (
    feasible_projection_by_clamp,
    matrix_linear_system,
    payoff_from_features,
    theoretical_kappa,
    tv_error_bound,
)
from .test_sampling import one_step_dataset


def matrix_system(features, pair, eta):
    """A matrix game's constraint system: the stepwise builder at S=1."""
    return build_stepwise_system(features[None], pair.mu[None], pair.nu[None], eta)


def setup1_exact_system(seed=0):
    model = setup1_model(stream(seed))
    spec = MatrixGameSpec(payoff_from_features(model), 0.5)
    pair = solve_qre(spec, tol=1e-13)
    return model, matrix_system(model.features, pair, 0.5)


class TestBuildLinearSystem:
    def test_matches_reference_formula(self):
        # bit for bit, on floored frequency estimates from few to many samples
        instances = [
            lambda rng: setup1_model(rng),
            lambda rng: setup2_model(rng),
            lambda rng: custom_model(rng, 4, 5, [0.8, -0.6, 0.3]),
        ]
        for make in instances:
            for seed in range(4):
                model = make(stream(33, seed))
                spec = MatrixGameSpec(payoff_from_features(model), 0.5)
                truth = solve_qre(spec, tol=1e-12)
                data = sample_matrix_actions(truth, 10**5, 34, seed)
                for n in (10, 10**3, 10**5):
                    est = frequency_estimate_matrix(data.prefix(n), spec.m, spec.n)
                    mu = floor_distribution(est.mu_hat[0, 0])
                    nu = floor_distribution(est.nu_hat[0, 0])
                    system = matrix_system(model.features, PolicyPair(mu, nu), 0.5)
                    x, y = matrix_linear_system(model.features, mu, nu, 0.5)
                    assert np.array_equal(system.X, x)
                    assert np.array_equal(system.y, y)

    def test_uniform_policies_zero_rhs(self):
        model = setup1_model(stream(1))
        pair = PolicyPair(np.full(4, 0.25), np.full(6, 1 / 6))
        system = matrix_system(model.features, pair, 0.5)
        assert np.allclose(system.y, 0.0)

    def test_setup1_shape(self):
        _, system = setup1_exact_system()
        assert system.X.shape == (8, 2)

    def test_exact_qre_satisfied_by_true_theta(self):
        model, system = setup1_exact_system(seed=2)
        assert np.linalg.norm(system.X @ model.theta - system.y) <= 1e-9

    def test_zero_probability_rejected(self):
        model = setup1_model(stream(3))
        mu = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            matrix_system(
                model.features, PolicyPair(mu, np.full(6, 1 / 6)), 0.5
            )


class TestLogFloor:
    def test_unobserved_action_rows_hold_the_floored_log_ratio(self):
        # the row player's action 2 never appears, so its frequency is 0 and
        # only the 1e-12 floor keeps its log-ratio finite
        data = one_step_dataset([0, 1, 0, 3, 1, 0], [0, 1, 2, 0, 1, 2])
        est = frequency_estimate_matrix(data, 4, 3)
        mu_hat = est.mu_hat[0, 0]
        assert mu_hat[2] == 0.0
        eta = 0.5
        features = stream(31).standard_normal((4, 3, 2))
        system = empirical_system(est, features, eta)
        assert np.isfinite(system.X).all() and np.isfinite(system.y).all()
        mu = floor_distribution(mu_hat)
        # row a - 1 holds action a's A-side constraint
        assert system.y[1] == (np.log(mu[2]) - np.log(mu[0])) / eta
        assert system.y[1] == pytest.approx(np.log(1e-12 / mu_hat[0]) / eta)


class TestRankCondition:
    def test_more_parameters_than_rows(self):
        rng = stream(4)
        x = rng.standard_normal((8, 9))
        ok, rank = rank_condition(x, 9)
        assert not ok and rank <= 8

    def test_duplicate_columns(self):
        rng = stream(5)
        col = rng.standard_normal((6, 1))
        ok, rank = rank_condition(np.hstack([col, col]), 2)
        assert not ok and rank == 1

    def test_setup1_full_rank(self):
        _, system = setup1_exact_system(seed=6)
        ok, rank = rank_condition(system.X, 2)
        assert ok and rank == 2

    def test_constant_feature_produces_zero_column(self):
        # appending a constant feature direction never changes the
        # baseline-difference rows, so the extra column is zero and the
        # augmented system cannot be full rank
        model = setup1_model(stream(7))
        augmented = np.concatenate(
            [model.features, np.full((4, 6, 1), 0.3)], axis=2
        )
        pair = solve_qre(MatrixGameSpec(payoff_from_features(model), 0.5))
        system = matrix_system(augmented, pair, 0.5)
        assert np.allclose(system.X[:, 2], 0.0)
        ok, _ = rank_condition(system.X, 3)
        assert not ok


class TestLeastSquares:
    def test_identity_system(self):
        from invgame.inverse_matrix import LinearSystem

        system = LinearSystem(np.eye(2), np.array([0.8, -0.6]))
        assert np.allclose(least_squares_theta(system), [0.8, -0.6])

    def test_exact_setup1_recovers_theta(self):
        model, system = setup1_exact_system(seed=8)
        assert np.linalg.norm(least_squares_theta(system) - model.theta) <= 1e-8

    def test_singular_system_raises(self):
        from invgame.inverse_matrix import LinearSystem

        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        system = LinearSystem(x, np.ones(3))
        with pytest.raises(PartialIdentifiabilityError):
            least_squares_theta(system)

    def test_empirical_setup1_close_at_large_n(self):
        model = setup1_model(stream(9))
        spec = MatrixGameSpec(payoff_from_features(model), 0.5)
        truth = solve_qre(spec, tol=1e-12)
        hits = 0
        for rep in range(40):
            data = sample_matrix_actions(truth, 10**6, 99, rep)
            est = frequency_estimate_matrix(data, 4, 6)
            pair = PolicyPair(est.mu_hat[0, 0], est.nu_hat[0, 0])
            theta = least_squares_theta(
                matrix_system(model.features, pair, 0.5)
            )
            hits += np.linalg.norm(theta - model.theta) <= 0.05
        assert hits >= 38  # 95% of reps


class TestMinNorm:
    def test_wide_system_minimal_preimage(self):
        from invgame.inverse_matrix import LinearSystem

        system = LinearSystem(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert np.allclose(min_norm_theta(system), [1.0, 0.0])

    def test_full_rank_agrees_with_least_squares(self):
        _, system = setup1_exact_system(seed=10)
        assert np.allclose(
            min_norm_theta(system), least_squares_theta(system), atol=1e-10
        )

    def test_rank_deficient_setup2_min_norm(self):
        model = setup2_model(stream(11))
        spec = MatrixGameSpec(payoff_from_features(model), 0.5)
        pair = solve_qre(spec, tol=1e-13)
        system = matrix_system(model.features, pair, 0.5)
        theta_hat = min_norm_theta(system)
        assert np.linalg.norm(system.X @ theta_hat - system.y) <= 1e-9
        feasible = feasible_set_from_policies(model.features, pair, 0.5, 4.0)
        samples = feasible.sample(1000, stream(12))
        norms = np.linalg.norm(samples, axis=1)
        assert np.all(np.linalg.norm(theta_hat) <= norms + 1e-9)


class TestConfidenceSet:
    def test_kappa_zero_exact_membership_is_feasibility(self):
        model = setup2_model(stream(13))
        spec = MatrixGameSpec(payoff_from_features(model), 0.5)
        pair = solve_qre(spec, tol=1e-13)
        system = matrix_system(model.features, pair, 0.5)
        cset = ConfidenceSet(system.X, system.y, kappa=0.0, norm_sq_cap=4.0)
        assert cset.contains(model.theta, slack=1e-12)
        off = model.theta + np.array([0.1, 0, 0, 0, 0, 0])
        assert not cset.contains(off, slack=1e-12)

    def test_norm_cap_rejects_large_theta(self):
        cset = ConfidenceSet(np.eye(2), np.zeros(2), kappa=100.0, norm_sq_cap=4.0)
        assert not cset.contains(np.array([3.0, 0.0]))

    def test_min_norm_member_pinv_when_feasible(self):
        _, system = setup1_exact_system(seed=14)
        cset = ConfidenceSet(system.X, system.y, kappa=1e-6, norm_sq_cap=4.0)
        member, feasible = cset.min_norm_member()
        assert feasible
        assert np.allclose(member, min_norm_theta(system), atol=1e-12)

    def test_min_norm_member_flags_empty_set(self):
        # inconsistent overdetermined system with kappa too small to absorb it
        x = np.array([[1.0], [1.0]])
        y = np.array([0.0, 1.0])
        cset = ConfidenceSet(x, y, kappa=0.01, norm_sq_cap=1.0)
        _, feasible = cset.min_norm_member()
        assert not feasible

    def test_projection_distance_matches_hand_computation(self):
        # set {theta : theta_0^2 <= 1, ||theta||^2 <= 4}: slab of width 2
        x = np.array([[1.0, 0.0]])
        cset = ConfidenceSet(x, np.zeros(1), kappa=1.0, norm_sq_cap=4.0)
        point = np.array([2.0, 0.0])
        _, dist, feasible = cset.project(point)
        assert feasible
        assert dist == pytest.approx(1.0, abs=1e-12)

    def test_coverage_with_theoretical_threshold(self):
        model = setup2_model(stream(16))
        spec = MatrixGameSpec(payoff_from_features(model), 0.5)
        truth = solve_qre(spec, tol=1e-12)
        n = 10**4
        hits = 0
        for rep in range(20):
            data = sample_matrix_actions(truth, n, 17, rep)
            est = frequency_estimate_matrix(data, 6, 6)
            eps1 = 2 * tv_error_bound(6, n, 0.025)
            eps2 = 2 * tv_error_bound(6, n, 0.025)
            mu = np.maximum(est.mu_hat[0, 0], 1e-12)
            nu = np.maximum(est.nu_hat[0, 0], 1e-12)
            kappa = theoretical_kappa(
                model.features[None], mu[None], nu[None], 4.0, 0.5,
                min(eps1, 0.9 * mu.min()), min(eps2, 0.9 * nu.min()),
            )
            cset = build_confidence_set(est, model.features, 0.5, kappa, 4.0)
            hits += cset.contains(model.theta)
        assert hits == 20


def setup2_confidence_sets():
    """Setup2 instances 1-8 at N = 1e3, 1e4, 1e5 with the surrogate threshold."""
    for instance in range(1, 9):
        model = setup2_model(stream(instance, 0))
        truth = solve_qre(MatrixGameSpec(payoff_from_features(model), 0.5), tol=1e-12)
        data = sample_matrix_actions(truth, 10**5, instance, 0)
        for n in (10**3, 10**4, 10**5):
            est = frequency_estimate_matrix(data.prefix(n), 6, 6)
            yield build_confidence_set(est, model.features, 0.5, kappa_rule(n), 4.0)


class TestExactProjection:
    def test_kkt_conditions_on_setup2(self):
        # p - theta = lam X'(X theta - y) + mu theta with lam, mu >= 0 on the
        # active constraints; query points inside, near and outside the ball
        projected = 0
        for index, cset in enumerate(setup2_confidence_sets()):
            rng = stream(51, index)
            scales = rng.choice([0.3, 1.0, 3.0], size=(16, 1))
            for point in rng.standard_normal((16, 6)) * scales:
                member, dist, feasible = cset.project(point)
                assert feasible and cset.contains(member, slack=1e-12)
                assert dist == np.linalg.norm(point - member)
                if cset.contains(point):
                    assert dist == 0.0
                    continue
                projected += 1
                r = cset.X @ member - cset.y
                columns = []
                if r @ r >= cset.kappa * (1 - 1e-9):
                    columns.append(cset.X.T @ r)
                if member @ member >= cset.norm_sq_cap * (1 - 1e-9):
                    columns.append(member)
                grads = np.array(columns).T
                mult, *_ = np.linalg.lstsq(grads, point - member, rcond=None)
                assert np.all(mult >= 0)
                assert np.linalg.norm(point - member - grads @ mult) <= 1e-8 * dist
        assert projected > 300

    def test_point_inside_is_its_own_projection(self):
        cset = ConfidenceSet(np.array([[1.0, 0.0]]), np.zeros(1), kappa=1.0, norm_sq_cap=4.0)
        point = np.array([0.5, -1.5])
        member, dist, feasible = cset.project(point)
        assert feasible and dist == 0.0
        assert np.array_equal(member, point)

    def test_both_constraints_active_at_a_corner(self):
        # slab 1 <= theta_0 <= 3 meets the radius-2 disc in a lens with
        # corners (1, +-sqrt 3); p - corner = (0, sqrt 3) = (-1, 0) + (1, sqrt 3)
        # lies in the normal cone there, so the corner is the projection
        cset = ConfidenceSet(np.array([[1.0, 0.0]]), np.array([2.0]), kappa=1.0, norm_sq_cap=4.0)
        member, dist, feasible = cset.project(np.array([1.0, 2.0 * np.sqrt(3.0)]))
        assert feasible
        assert member == pytest.approx([1.0, np.sqrt(3.0)], abs=1e-12)
        assert dist == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_empty_set_is_reported(self):
        # slab 4 <= theta_0 <= 6 misses the radius-2 disc; the pseudoinverse
        # point (5, 0) fits exactly, so min_norm_member has to project
        cset = ConfidenceSet(np.array([[1.0, 0.0]]), np.array([5.0]), kappa=1.0, norm_sq_cap=4.0)
        member, _, feasible = cset.project(np.array([0.0, 1.0]))
        assert not feasible
        assert member == pytest.approx([2.0, 0.0], abs=1e-12)  # least residual in the disc
        assert not cset.min_norm_member()[1]
        with pytest.raises(ValueError):
            cset.sample_members(3, stream(52))

    def test_sampled_members_are_members(self):
        for index, cset in enumerate(setup2_confidence_sets()):
            for theta in cset.sample_members(100, stream(53, index)):
                assert cset.contains(theta, slack=1e-12)


class TestTheoreticalKappa:
    def test_two_state_value_by_hand(self):
        # d = 1, so each Phi is a row and its norm is Euclidean: Phi_1 =
        # (3, 3, 0, 0) and Phi_2 = (0, 0, 4, 4), norms^2 18 and 32.  With
        # M = 2, eta = 1/2, eps1 = 0.2 < min mu = 0.4, eps2 = 0.05 < min nu =
        # 0.25 (both gaps 0.2):
        #   M |Phi_1|^2 eps2^2 = 0.09    S m eps1^2 / (eta gap)^2 = 16
        #   M |Phi_2|^2 eps1^2 = 2.56    S n eps2^2 / (eta gap)^2 = 1
        # so kappa = 2 (0.09 + 16 + 2.56 + 1) = 39.3.  Pairing Phi_1 with
        # eps1 and Phi_2 with eps2 instead would give 2 (1.44 + 16 + 0.16 + 1)
        # = 37.2.
        features = np.array([[[0.0, 0.0], [3.0, 3.0]], [[0.0, 4.0], [0.0, 4.0]]])[..., None]
        mu = np.array([[0.5, 0.5], [0.4, 0.6]])
        nu = np.array([[0.25, 0.75], [0.5, 0.5]])
        kappa = theoretical_kappa(features, mu, nu, 2.0, 0.5, 0.2, 0.05)
        assert kappa == pytest.approx(39.3, rel=1e-12)
        swapped = theoretical_kappa(features, mu, nu, 2.0, 0.5, 0.05, 0.2)
        assert swapped != pytest.approx(kappa, rel=1e-6)


class TestFeasibleSet:
    def test_trivial_null_space_repeats_particular(self):
        _, system = setup1_exact_system(seed=18)
        feasible = FeasibleSet(system.X, system.y, norm_sq_cap=4.0)
        pts = feasible.sample(5, stream(19))
        assert np.allclose(pts, pts[0], atol=1e-12)
        assert np.allclose(pts[0], min_norm_theta(system), atol=1e-10)

    def test_one_dim_null_space_is_a_segment(self):
        model = setup2_model(stream(20))
        spec = MatrixGameSpec(payoff_from_features(model), 0.5)
        pair = solve_qre(spec, tol=1e-13)
        feasible = feasible_set_from_policies(model.features, pair, 0.5, 4.0)
        assert feasible.null_basis.shape[1] == 1
        pts = feasible.sample(200, stream(21))
        assert np.all(np.linalg.norm(pts, axis=1) ** 2 <= 4.0 + 1e-9)
        # all points differ from the particular solution along one direction
        spread = pts - feasible.particular
        ranks = np.linalg.matrix_rank(spread, tol=1e-9)
        assert ranks == 1

    def test_samples_satisfy_invariants(self):
        model = setup2_model(stream(22))
        spec = MatrixGameSpec(payoff_from_features(model), 0.5)
        pair = solve_qre(spec, tol=1e-13)
        feasible = feasible_set_from_policies(model.features, pair, 0.5, 4.0)
        for theta in feasible.sample(100, stream(23)):
            assert np.abs(feasible.X @ theta - feasible.y).max() <= 1e-10
            assert theta @ theta <= 4.0 + 1e-12

    def test_empty_set_raises(self):
        x = np.eye(2)
        feasible = FeasibleSet(x, np.array([5.0, 0.0]), norm_sq_cap=1.0)
        assert feasible.is_empty()
        with pytest.raises(ValueError):
            feasible.sample(3, stream(24))

    @pytest.mark.parametrize("null_dim", [0, 1, 2])
    def test_batched_distances_match_per_point_projection(self, null_dim):
        rng = stream(27, null_dim)
        x = rng.standard_normal((4 - null_dim, 4))
        y = rng.standard_normal(4 - null_dim)
        particular = np.linalg.pinv(x) @ y
        feasible = FeasibleSet(x, y, norm_sq_cap=particular @ particular + 1.0)
        assert feasible.null_basis.shape[1] == null_dim
        # null-space offsets inside and outside the unit residual ball, plus
        # offsets across the row space
        offsets = rng.standard_normal((40, null_dim)) * rng.uniform(0, 1.2, (40, 1))
        inside = np.linalg.norm(offsets, axis=1) < 1.0
        assert null_dim == 0 or 0 < inside.sum() < 40
        points = (
            feasible.particular
            + offsets @ feasible.null_basis.T
            + rng.standard_normal((40, len(y))) @ x
        )
        batched = _distances_to(feasible, points)
        per_point = [feasible.project(p)[1] for p in points]
        by_clamp = [np.linalg.norm(p - feasible_projection_by_clamp(feasible, p)) for p in points]
        assert np.allclose(batched, per_point, rtol=0, atol=1e-12)
        assert np.allclose(batched, by_clamp, rtol=0, atol=1e-12)

    def test_projection_is_exact_on_affine_part(self):
        x = np.array([[1.0, 0.0, 0.0]])
        feasible = FeasibleSet(x, np.array([0.5]), norm_sq_cap=100.0)
        proj, dist = feasible.project(np.array([3.0, 1.0, -2.0]))
        assert np.allclose(proj, [0.5, 1.0, -2.0])
        assert dist == pytest.approx(2.5)


class TestHausdorff:
    def test_identical_clouds(self):
        pts = stream(25).standard_normal((50, 3))
        assert hausdorff_estimate(pts, pts.copy(), k=50, seed=1) == 0.0

    def test_concentric_balls(self):
        # analytic Hausdorff distance is exactly 1; finite clouds overshoot
        # by O(n^{-2/3}) angular-gap error (measured ~0.5-3% at 1e4 points),
        # so the band is widened above 1 rather than below
        rng = stream(26)
        def ball_cloud(radius, count):
            raw = rng.standard_normal((count, 3))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            radii = np.concatenate(
                [np.ones(count // 2), rng.random(count - count // 2) ** (1 / 3)]
            )
            return radius * raw * radii[:, None]
        inner = ball_cloud(1.0, 10**4)
        outer = ball_cloud(2.0, 10**4)
        est = hausdorff_estimate(inner, outer, k=10**4, seed=2)
        assert 0.9 <= est <= 1.05

    def test_setup2_confidence_set_shrinks_towards_feasible(self):
        model = setup2_model(stream(27))
        spec = MatrixGameSpec(payoff_from_features(model), 0.5)
        truth = solve_qre(spec, tol=1e-13)
        feasible = feasible_set_from_policies(model.features, truth, 0.5, 4.0)
        medians = []
        for n in (10**3, 10**4, 10**5, 10**6):
            estimates = []
            for rep in range(3):
                data = sample_matrix_actions(truth, n, 28, rep)
                est = frequency_estimate_matrix(data, 6, 6)
                cset = build_confidence_set(
                    est, model.features, 0.5, kappa_rule(n), 4.0
                )
                estimates.append(hausdorff_estimate(feasible, cset, k=32, seed=rep))
            medians.append(np.median(estimates))
        assert all(a >= b - 1e-9 for a, b in zip(medians, medians[1:]))
        assert medians[-1] < medians[0]


class TestReconstructPayoff:
    def test_matches_feature_contraction(self):
        model = setup1_model(stream(29))
        assert np.allclose(
            reconstruct_payoff(model.theta, model.features),
            payoff_from_features(model),
        )

    def test_dimension_mismatch(self):
        model = setup1_model(stream(30))
        with pytest.raises(ValueError):
            reconstruct_payoff(np.zeros(3), model.features)


class TestExactDataIdentity:
    def test_full_rank_models_recover_theta(self):
        for seed in range(5):
            model = setup1_model(stream(40 + seed))
            spec = MatrixGameSpec(payoff_from_features(model), 0.5)
            pair = solve_qre(spec, tol=1e-13)
            system = matrix_system(model.features, pair, 0.5)
            theta = least_squares_theta(system)
            assert np.linalg.norm(theta - model.theta) <= 1e-8

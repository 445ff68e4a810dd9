import tracemalloc
import warnings

import numpy as np
import pytest

from invgame import experiments, inverse_matrix
from invgame.experiments import (
    SETUP2_THETA,
    ExperimentConfig,
    custom_model,
    kappa_rule,
    setup1_model,
    setup2_model,
)
from invgame.inverse_matrix import (
    ConfidenceSet,
    FeasibleSet,
    LinearSystem,
    build_confidence_set,
    build_stepwise_system,
    feasible_set_from_policies,
    floor_distribution,
    hausdorff_estimate,
    min_norm_theta,
    reconstruct_payoff,
    _distances_to,
)
from invgame.matrix_game import MatrixGameSpec, PolicyPair, solve_qre
from invgame.sampling import (
    frequency_estimate_matrix,
    sample_matrix_actions,
    step_counts,
    stream,
)

from .oracles import (
    feasible_projection_by_clamp,
    matrix_linear_system,
    nearest_sq_by_differences,
    payoff_from_features,
    project_by_bisection,
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
    @pytest.mark.bitwise
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
        system = build_confidence_set(est, features, eta, 1.0, 1.0)
        assert np.isfinite(system.X).all() and np.isfinite(system.y).all()
        mu = floor_distribution(mu_hat)
        # row a - 1 holds action a's A-side constraint
        assert system.y[1] == (np.log(mu[2]) - np.log(mu[0])) / eta
        assert system.y[1] == pytest.approx(np.log(1e-12 / mu_hat[0]) / eta)


def rank_of(x):
    return LinearSystem(x, np.zeros(len(x))).rank


class TestRankCondition:
    def test_more_parameters_than_rows(self):
        rng = stream(4)
        x = rng.standard_normal((8, 9))
        assert rank_of(x) <= 8

    def test_duplicate_columns(self):
        rng = stream(5)
        col = rng.standard_normal((6, 1))
        assert rank_of(np.hstack([col, col])) == 1

    def test_setup1_full_rank(self):
        _, system = setup1_exact_system(seed=6)
        assert system.rank == 2

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
        assert system.rank < 3


class TestLeastSquares:
    """At full rank, min_norm_theta is the unique least-squares solution."""

    def test_identity_system(self):
        system = LinearSystem(np.eye(2), np.array([0.8, -0.6]))
        assert np.allclose(min_norm_theta(system), [0.8, -0.6])

    def test_exact_setup1_recovers_theta(self):
        model, system = setup1_exact_system(seed=8)
        assert np.linalg.norm(min_norm_theta(system) - model.theta) <= 1e-8

    def test_empirical_setup1_close_at_large_n(self):
        model = setup1_model(stream(9))
        spec = MatrixGameSpec(payoff_from_features(model), 0.5)
        truth = solve_qre(spec, tol=1e-12)
        hits = 0
        for rep in range(40):
            data = sample_matrix_actions(truth, 10**6, 99, rep)
            est = frequency_estimate_matrix(data, 4, 6)
            pair = PolicyPair(est.mu_hat[0, 0], est.nu_hat[0, 0])
            theta = min_norm_theta(matrix_system(model.features, pair, 0.5))
            hits += np.linalg.norm(theta - model.theta) <= 0.05
        assert hits >= 38  # 95% of reps


class TestMinNorm:
    def test_wide_system_minimal_preimage(self):
        system = LinearSystem(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert np.allclose(min_norm_theta(system), [1.0, 0.0])

    def test_full_rank_agrees_with_least_squares(self):
        _, system = setup1_exact_system(seed=10)
        assert system.rank == 2
        reference, *_ = np.linalg.lstsq(system.X, system.y, rcond=None)
        assert np.allclose(min_norm_theta(system), reference, atol=1e-10)

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


def count_linalg_calls(monkeypatch) -> dict[str, int]:
    """The np.linalg svd, pinv and lstsq calls made after this one."""
    calls = dict(svd=0, pinv=0, lstsq=0)
    for name in calls:
        def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestOneDecomposition:
    """Rank, X^+ y, the feasible set and the runner's route read one SVD at
    one rank cutoff."""

    @staticmethod
    def near_rank_one_system():
        # singular values (1, 1e-13): numerically rank 1, but the second
        # direction still inverts to ~1e10 at a cutoff of a few ulps
        rng = stream(70)
        u, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        x = u @ np.diag([1.0, 1e-13]) @ v.T
        return x, x @ np.array([0.8, -0.6]) + 1e-3 * rng.standard_normal(8)

    @pytest.mark.bitwise
    @pytest.mark.parametrize(
        "estimator, route",
        [("least_squares", "min_norm_theta"), ("confidence_set", "min_norm_member")],
    )
    def test_rank_estimate_and_sets_agree(self, monkeypatch, estimator, route):
        x, y = self.near_rank_one_system()
        system = LinearSystem(x, y)
        theta = min_norm_theta(system)
        assert system.rank == 1
        assert np.linalg.norm(theta) <= 1.0
        assert np.linalg.norm(x @ theta - y) <= 1e-2
        feasible = FeasibleSet(x, y, 4.0)
        assert np.array_equal(feasible.particular, theta)
        assert feasible.null_basis.shape == (2, 1)
        config = ExperimentConfig(kind="setup1", seed=0, samples=(100,), estimator=estimator)
        model = experiments.build_model(config, 0)
        data = experiments.sample_dataset(config, 0, 100)
        monkeypatch.setattr(
            experiments, "build_confidence_set", lambda *args: ConfidenceSet(x, y, 1.0, 4.0)
        )
        table = step_counts(data, 1, *model.features.shape[:2])
        kappa = experiments._thresholds(config, table)
        (theta_hat,), _, _, (cset,), _ = experiments._matrix_estimate(config, model, table, kappa)
        result = experiments.invert_matrix(config, model, table)  # the route and rank it reports
        assert (result["route"], result["rank"]) == (route, 1) and cset.rank == 1
        assert np.array_equal(theta_hat, theta)

    def test_a_confidence_set_decomposes_once(self, monkeypatch):
        calls = count_linalg_calls(monkeypatch)
        cset = next(setup2_confidence_sets())
        assert cset.rank == 5
        cset.min_norm_member()
        cset.project(np.ones(6))
        cset.sample_members(8, stream(71))
        hausdorff_estimate(cset, np.zeros((3, 6)), k=8)
        assert calls == dict(svd=1, pinv=0, lstsq=0)

    def test_a_feasible_set_decomposes_once(self, monkeypatch):
        model = setup2_model(stream(72))
        pair = solve_qre(MatrixGameSpec(payoff_from_features(model), 0.5), tol=1e-13)
        calls = count_linalg_calls(monkeypatch)
        feasible = feasible_set_from_policies(model.features, pair, 0.5, 4.0)
        assert feasible.rank == 5 and not feasible.is_empty()
        feasible.project(np.ones(6))
        feasible.sample(8, stream(73))
        assert calls == dict(svd=1, pinv=0, lstsq=0)

    @pytest.mark.parametrize("estimator", ["least_squares", "confidence_set"])
    @pytest.mark.parametrize("kind", ["setup1", "setup2"])
    def test_a_matrix_estimate_decomposes_once(self, monkeypatch, kind, estimator):
        config = ExperimentConfig(kind=kind, seed=3, samples=(2000,), estimator=estimator)
        model = experiments.build_model(config, 0)
        data = experiments.sample_dataset(config, 0, 2000)
        table = step_counts(data, 1, *model.features.shape[:2])
        calls = count_linalg_calls(monkeypatch)
        kappa = experiments._thresholds(config, table)
        _, _, _, (cset,), _ = experiments._matrix_estimate(config, model, table, kappa)
        assert cset.rank == {"setup1": 2, "setup2": 5}[kind]
        assert calls == dict(svd=1, pinv=0, lstsq=0)
        assert experiments.invert_matrix(config, model, table)["rank"] == cset.rank


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

    @pytest.mark.parametrize("kappa", [-1.0, np.nan], ids=["negative", "nan"])
    def test_a_negative_or_nan_kappa_is_rejected(self, kappa):
        # a NaN threshold would make every set silently empty
        with pytest.raises(ValueError, match="kappa must be nonnegative"):
            ConfidenceSet(np.eye(2), np.ones(2), kappa, 4.0)

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


def least_residual_in_ball(x, y, cap):
    """The least residual over the ball, at the member of the (empty) kappa = 0
    set, which is the ball's least-residual point."""
    cset = ConfidenceSet(x, y, 0.0, cap)
    return cset.residual_sq(cset.project(np.zeros(x.shape[1]))[0])


def projection_cases():
    """(X, y, kappa, points): tall, square and wide X and a numerically
    rank-deficient one, each with its least-squares point inside the radius-2
    ball and outside it; kappa 0, moderate and, least-squares point inside,
    large or the ball's least residual plus 1e-12.  y is X theta plus 1e-3 noise.
    Near-empty sets are ill-conditioned where the least residual is large or
    sits on the ball: rounding phi (~eps kappa) then moves their boundary, and
    both solvers land 1e-11 to 1e-9 from a projection in extended precision.  Query points lie inside, near and outside the ball;
    the lens of test_both_constraints_active_at_a_corner comes last."""
    rng = stream(60)
    shapes = [
        rng.standard_normal((10, 6)),
        rng.standard_normal((6, 6)),
        rng.standard_normal((3, 6)),
        rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6)),
    ]
    for x in shapes:
        for theta_norm in (1.0, 2.05):
            theta = rng.standard_normal(6)
            theta *= theta_norm / np.linalg.norm(theta)
            y = x @ theta + 1e-3 * rng.standard_normal(len(x))
            least = least_residual_in_ball(x, y, 4.0)
            points = rng.standard_normal((32, 6)) * rng.choice([0.3, 1.0, 3.0], size=(32, 1))
            margins = (1e-12, 0.1, 10.0) if theta_norm < 2 else (0.1,)
            for kappa in (0.0, *(least + margin for margin in margins)):
                yield x, y, kappa, points
    corner = np.array([[1.0, 2.0 * np.sqrt(3.0)], [1.5, 2.5], [0.0, 3.0], [3.0, 0.0]])
    yield np.array([[1.0, 0.0]]), np.array([2.0]), 1.0, corner


class TestNewtonProjection:
    """ConfidenceSet._project finds the residual multiplier by bracketed Newton
    steps; project_by_bisection is its earlier 53-step bisection."""

    @staticmethod
    def assert_agrees(x, y, kappa, points):
        """Projections onto the set against the bisection's to 1e-12, the
        bounds with 1e-12 slack.  For a full-rank X, also with X, y scaled by
        1e-3 and 1e3 against the bisection's at scale 1: its grid in t = lam /
        (1 + lam) is too coarse for the 1e6-fold lam of the 1e-3 scale (up to
        1e-9 off), and the tiny singular values of a rank-deficient X change
        with the scale."""
        expected, _ = project_by_bisection(ConfidenceSet(x, y, kappa, 4.0), points)
        full_rank = np.linalg.matrix_rank(x) == min(x.shape)
        for scale in (1e-3, 1.0, 1e3) if full_rank else (1.0,):
            cset = ConfidenceSet(scale * x, scale * y, scale**2 * kappa, 4.0)
            members, nonempty = cset._project(points)
            assert nonempty == project_by_bisection(cset, points)[1]
            assert np.isfinite(members).all()
            assert np.abs(members - expected).max() <= 1e-12
            if nonempty:
                for member in members:  # in the units of the unscaled set
                    assert cset.residual_sq(member) / scale**2 <= kappa + 1e-12
                    assert member @ member <= 4.0 + 1e-12
        return members, nonempty

    def test_agrees_with_bisection(self):
        shapes, counts = set(), dict(empty=0, ball=0, corner=0, inside=0)
        for x, y, kappa, points in projection_cases():
            shapes.add(x.shape)
            members, nonempty = self.assert_agrees(x, y, kappa, points)
            if not nonempty:
                counts["empty"] += 1
                continue
            residuals = ((members @ x.T - y) ** 2).sum(axis=1)
            on_ball = (members**2).sum(axis=1) >= 4.0 * (1 - 1e-9)
            on_kappa = residuals >= kappa * (1 - 1e-9)
            counts["ball"] += int((on_ball & ~on_kappa).sum())
            counts["corner"] += int((on_ball & on_kappa).sum())
            # the members and the midpoints of neighbours lie in the set
            queries = np.vstack([members, 0.5 * (members[1:] + members[:-1])])
            again, _ = self.assert_agrees(x, y, kappa, queries)
            counts["inside"] += int((again == queries).all(axis=1).sum())
        assert shapes == {(10, 6), (6, 6), (3, 6), (1, 2)}
        assert min(counts.values()) >= 5, counts

    def test_rank_deficient_system_carries_residual_on_a_zero_singular_value(self):
        rng = stream(61)
        x = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
        y = rng.standard_normal(6)
        kappa = least_residual_in_ball(x, y, 4.0) + 0.5
        _, sigma, c, _, _ = ConfidenceSet(x, y, kappa, 4.0)._svd
        assert sigma[-1] <= 1e-12 * sigma[0] and np.abs(c[3:]).min() > 1e-3
        self.assert_agrees(x, y, kappa, rng.standard_normal((64, 6)) * 2.0)


class TestProjectionEdgeCases:
    """Sets where the Newton step divides by zero (kappa at the least residual,
    a zero y_perp at kappa = 0) or meets an exactly zero singular value: no
    warning, finite members, and the bisection's emptiness verdict."""

    @staticmethod
    def project_without_warnings(cset, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            members, nonempty = cset._project(points)
        assert np.isfinite(members).all()
        assert nonempty == project_by_bisection(cset, points)[1]
        return members, nonempty

    def test_kappa_at_the_least_squares_residual(self):
        # residual (theta_0 - 2)^2 + (2 theta_1 - 1)^2 + 9, y_perp = (0, 0, 3):
        # kappa = 9 leaves the least-squares point (2, 1/2), inside the ball
        x = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        cset = ConfidenceSet(x, np.array([2.0, 1.0, 3.0]), kappa=9.0, norm_sq_cap=9.0)
        assert cset._svd[3] == 9.0
        points = stream(62).standard_normal((40, 2)) * 3.0
        members, nonempty = self.project_without_warnings(cset, points)
        # phi rounds to kappa within ~sqrt(ulp(9)) = 4e-8 of that point
        assert nonempty and all(cset.contains(m) for m in members)
        assert np.abs(members - [2.0, 0.5]).max() <= 1e-7

    def test_zero_y_perp(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        cset = ConfidenceSet(x, np.array([1.0, 1.0]), kappa=0.25, norm_sq_cap=4.0)
        assert cset._svd[3] == 0.0
        points = stream(63).standard_normal((40, 2)) * 3.0
        members, nonempty = self.project_without_warnings(cset, points)
        assert nonempty and all(cset.contains(m, slack=1e-12) for m in members)
        assert np.abs(members - project_by_bisection(cset, points)[0]).max() <= 1e-12

    def test_zero_singular_value(self):
        # sigma = (1, 0) exactly; the zero one carries c = 1 of residual
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        cset = ConfidenceSet(x, np.array([1.0, 1.0]), kappa=1.5, norm_sq_cap=4.0)
        assert cset._svd[1][-1] == 0.0
        points = stream(64).standard_normal((40, 2)) * 3.0
        members, nonempty = self.project_without_warnings(cset, points)
        assert nonempty and all(cset.contains(m, slack=1e-12) for m in members)
        assert np.abs(members - project_by_bisection(cset, points)[0]).max() <= 1e-12

    def test_zero_kappa_with_zero_y_perp(self):
        # a square invertible X at kappa = 0: the set is the one solution
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        cset = ConfidenceSet(x, np.array([1.0, 1.0]), kappa=0.0, norm_sq_cap=4.0)
        members, nonempty = self.project_without_warnings(cset, stream(65).standard_normal((8, 2)))
        assert nonempty
        assert members == pytest.approx(np.tile([1.0, 0.5], (8, 1)), abs=1e-12)


def count_projection_steps(monkeypatch) -> list[int]:
    """The outer Newton steps of each later ConfidenceSet._project call, appended
    to the returned list: its ball solves after the lam = inf and lam = 0 ones."""
    solves, steps = [0], []
    ball_solve, project = inverse_matrix._ball_solve, ConfidenceSet._project

    def counting_solve(*args):
        solves[0] += 1
        return ball_solve(*args)

    def counting_project(self, points):
        solves[0] = 0
        result = project(self, points)
        steps.append(solves[0] - 2)
        return result

    monkeypatch.setattr(inverse_matrix, "_ball_solve", counting_solve)
    monkeypatch.setattr(ConfidenceSet, "_project", counting_project)
    return steps


def test_projection_steps_on_setup2(monkeypatch):
    """At most 30 outer Newton steps in every projection of setup2
    instances 0-8 as the setup2 geometry benchmark makes them (min-norm
    members, Hausdorff estimates at k = 64, a 1000-member cloud)."""
    steps = count_projection_steps(monkeypatch)
    for instance in range(9):
        model = setup2_model(stream(instance, 0))
        truth = solve_qre(MatrixGameSpec(payoff_from_features(model), 0.5), tol=1e-12)
        data = sample_matrix_actions(truth, 10**5, instance, 0)
        feasible = feasible_set_from_policies(model.features, truth, 0.5, 4.0)
        sets = []
        for n in (10**3, 10**4, 10**5):
            est = frequency_estimate_matrix(data.prefix(n), 6, 6)
            sets.append(build_confidence_set(est, model.features, 0.5, kappa_rule(n), 4.0))
            sets[-1].min_norm_member()
            hausdorff_estimate(feasible, sets[-1], k=64, seed=instance)
        for coarse, fine in zip(sets, sets[1:]):
            hausdorff_estimate(coarse, fine, k=64, seed=instance)
        sets[-1].sample_members(1000, stream(instance, 1))
    assert len(steps) > 100
    assert max(steps) <= 30


def test_projection_steps_on_rank_deficient_sets(monkeypatch):
    """Newton on (phi - least)^(-1/2) stays fast where the least residual in
    the ball carries the residual of near-zero singular values and of an
    active ball: at most 10 steps (7 today), where an offset of ||y_perp||^2
    alone takes 16-24 on the near-empty sets."""
    steps = count_projection_steps(monkeypatch)
    for seed in (61, 62, 63):
        rng = stream(seed)
        x = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
        y = rng.standard_normal(6)
        least = least_residual_in_ball(x, y, 4.0)
        for margin in (0.5, 1e-3, 1e-6):
            ConfidenceSet(x, y, least + margin, 4.0)._project(rng.standard_normal((64, 6)) * 2.0)
            assert steps[-1] <= 10


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


@pytest.mark.bitwise
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


    @pytest.mark.parametrize(
        "set_a, set_b, message",
        [
            (np.zeros((3, 2)), np.zeros((0, 2)), "point cloud is empty"),
            (np.zeros((0, 2)), np.zeros((3, 2)), "point cloud is empty"),
            (np.zeros((3, 3)), np.zeros((3, 2)), "dimensions 3 and 2"),
            (FeasibleSet(np.eye(3)[:1], np.zeros(1), 1.0), np.zeros((3, 2)), "dimensions 3 and 2"),
            (np.array([[0.0, np.nan], [1.0, 2.0]]), np.zeros((3, 2)), "clouds must be finite"),
            (np.zeros((3, 2)), np.array([[1.0, 2.0], [-np.inf, 0.0]]), "clouds must be finite"),
        ],
        ids=["empty_b", "empty_a", "dimensions", "set_and_cloud", "nan_a", "inf_b"],
    )
    def test_bad_clouds_are_rejected(self, set_a, set_b, message):
        with pytest.raises(ValueError, match=message):
            hausdorff_estimate(set_a, set_b)


def cloud_cases():
    """(cloud, points) pairs named for what they probe in the screen."""
    rng = stream(41)
    cases = {}
    for d in (1, 3, 6):
        cloud, points = rng.standard_normal((300, d)), rng.standard_normal((200, d))
        cases[f"normal_d{d}"] = (cloud, points)
        cases[f"offset_1e8_d{d}"] = (cloud + 1e8, points + 1e8)
        cases[f"scaled_1e-150_d{d}"] = (cloud * 1e-150, points * 1e-150)
        cases[f"scaled_1e150_d{d}"] = (cloud * 1e150, points * 1e150)
    lattice = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), axis=-1).reshape(-1, 3)
    # a cube's centre is equidistant from its 8 corners; a lattice point is at 0
    cases["lattice_ties"] = (lattice, np.vstack([lattice[::7] + 0.5, lattice[::11]]))
    cases["duplicates"] = (np.repeat(rng.standard_normal((5, 4)), 100, axis=0), rng.standard_normal((80, 4)))
    basis = rng.standard_normal((2, 6))
    cases["subspace"] = (rng.standard_normal((300, 2)) @ basis, rng.standard_normal((100, 2)) @ basis)
    itself = rng.standard_normal((250, 6))
    cases["itself"] = (itself, itself)
    # two cloud points a few ulps apart in distance from each point, in a
    # cloud 2,000 wide: the screen's rounding exceeds their gap
    centres, offsets = rng.uniform(-1e3, 1e3, (200, 3)), rng.standard_normal((200, 3))
    gaps = 1 + rng.integers(-4, 5, (200, 1)) * np.finfo(float).eps
    cases["near_ties_in_a_wide_cloud"] = (np.vstack([centres + offsets, centres - offsets * gaps]), centres)
    # rows past the screen's overflow bound are rechecked against every point
    far = rng.standard_normal((60, 6))
    far[::3] *= 2e153
    cases["beyond_the_screen"] = (rng.standard_normal((300, 6)), far)
    return cases


CLOUD_CASES = cloud_cases()


@pytest.mark.bitwise
class TestCloudDistances:
    """Point-to-cloud distances screened by one matmul per block and
    rechecked with the plain sum are the plain loop's (tests/oracles), to
    the bit, in blocks of many rows, of one row, and in several blocks."""

    @pytest.mark.parametrize("chunk", [None, 1, 1024], ids=["default", "one_row", "several_blocks"])
    @pytest.mark.parametrize("name", list(CLOUD_CASES))
    def test_bit_identical_to_the_plain_loop(self, monkeypatch, name, chunk):
        if chunk is not None:
            monkeypatch.setattr(inverse_matrix, "_CLOUD_CHUNK", chunk)
        cloud, points = CLOUD_CASES[name]
        got = _distances_to(cloud, points)
        assert np.array_equal(got, np.sqrt(nearest_sq_by_differences(points, cloud)))
        if name == "itself":
            assert not got.any()

    def test_a_screen_that_overflows_is_rechecked_in_full(self):
        # clusters at +-1e154 centre the cloud on 0, so -2 u.v and |v|^2
        # overflow to -inf and inf, and the screen row is nan, while each
        # point's own cluster is near; the other cluster's squares overflow
        # in both bodies
        rng = stream(43)
        cluster = 1e154 * (1 + 1e-3 * rng.standard_normal((50, 2)))
        cloud, points = np.vstack([cluster, -cluster]), cluster[::5] * (1 + 1e-6)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _distances_to(cloud, points)
            want = np.sqrt(nearest_sq_by_differences(points, cloud))
        assert np.isfinite(want).all() and np.array_equal(got, want)

    @pytest.mark.parametrize("n_cloud, n_points", [(2000, 2000), (8000, 2000), (2000, 8000)])
    def test_memory_is_the_block_budget(self, n_cloud, n_points):
        # the screen block, its mask, the recheck's two gathers and its
        # candidate indices hold under 5 blocks of _CLOUD_CHUNK doubles,
        # beside d + 4 doubles per point of either set: no (points x cloud)
        # table, however large the clouds
        d, rng = 6, stream(42)
        cloud, points = rng.standard_normal((n_cloud, d)), rng.standard_normal((n_points, d))
        _distances_to(cloud[:10], points[:10])  # numpy's lazy imports, untraced
        tracemalloc.start()
        try:
            _distances_to(cloud, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * inverse_matrix._CLOUD_CHUNK
        assert peak <= 5 * block + 8 * (d + 4) * (n_cloud + n_points)


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
            theta = min_norm_theta(system)
            assert np.linalg.norm(theta - model.theta) <= 1e-8

"""Every stacked path gives each entry the bytes it gets alone, at any BLAS
thread count: solve_qre_batch, backward_qre_stack, prefix_counts,
fit_every_step, and recover_rewards, recover_rewards_mle and ridge_fit on a
list of tables; so do the point-cloud screen (_nearest_sq) against the plain
sum, and a matrix game recovered as the one-step, one-state Markov game
against the matrix estimate.  Shapes come from a fixed seed list (S 1..8, m
and n 2..8, H 1..6, K 1..4 nested sizes from 10 to 1e4, so some states go
unvisited) and from fixed cases.  A new stacked path adds its case here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from invgame import experiments, inverse_markov, inverse_matrix
from invgame.experiments import ExperimentConfig, saturated_policy_model
from invgame.inverse_markov import InversionConfig, SoftmaxPolicyModel, recover_rewards
from invgame.inverse_matrix import build_stepwise_system, min_norm_theta, reconstruct_payoff
from invgame.markov_game import MarkovGameSpec, backward_qre, backward_qre_stack
from invgame.matrix_game import MatrixGameSpec, PolicyPair, qre_residual, solve_qre, solve_qre_batch
from invgame.sampling import EpisodeDataset, step_counts, stream

from . import oracles
from .oracles import (
    assert_bit_identical,
    assert_fits_alone,
    assert_sets_bit_identical,
    stacked_case,
)
from .test_markov_game import make_rng, random_spec
from .test_matrix_game import strongly_scaled_game

pytestmark = pytest.mark.bitwise
SEEDS = range(8)


def drawn_case(seed):
    rng = stream(seed, 1)
    s_len, m, n, horizon, k_len = (int(rng.integers(lo, hi + 1)) for lo, hi in
                                   ((1, 8), (2, 8), (2, 8), (1, 6), (1, 4)))
    sizes = tuple(np.unique(np.round(10 ** rng.uniform(1, 4, k_len))).astype(int).tolist())
    shape = dict(s_len=s_len, m=m, n=n, horizon=horizon)
    # estimators alternate: the MLE's fits take most of the harness's time
    return ("frequency", "mle")[seed % 2], seed, shape, sizes


# (estimator, seed, markov shape, nested sizes)
CASES = {f"seed{seed}": drawn_case(seed) for seed in SEEDS} | {
    "benchmark_frequency": ("frequency", 31, {}, (10**4, 2 * 10**4, 5 * 10**4, 10**5)),
    "benchmark_mle": ("mle", 31, {}, (10**4, 10**5)),
    "unvisited_frequency": ("frequency", 31, dict(s_len=6, m=8, n=9), (20, 200, 2000)),
    "unvisited_mle": ("mle", 31, dict(s_len=6, m=8, n=9), (20, 2000)),
}


def check_solves(stack, eta):
    """Each game of one batch is its solve alone, and a QRE."""
    mu, nu = solve_qre_batch(stack, eta)
    for q, mu_q, nu_q in zip(stack, mu, nu, strict=True):
        alone = solve_qre(MatrixGameSpec(q, eta))
        assert_bit_identical((mu_q, nu_q), (alone.mu, alone.nu))
        assert qre_residual(MatrixGameSpec(q, eta), PolicyPair(mu_q, nu_q)) <= 1e-10


def check_backward_pass(rewards, transition, eta, gamma):
    """Each reward table of one backward pass is its backward_qre alone."""
    stacked = backward_qre_stack(rewards, transition, eta, gamma)
    assert {len(x) for x in stacked} == {len(rewards)}
    for k, table in enumerate(rewards):
        policies, values = backward_qre(MarkovGameSpec(table, transition, eta=eta, gamma=gamma))
        alone = [policies.mu, policies.nu, values.Q, values.V]
        assert_bit_identical([x[k] for x in stacked], alone)


def check_recovery(tables, inversion, monkeypatch):
    """Each table's sample, sets and ridge fits of one stacked recovery are
    its own alone, and each set is build_stepwise_system's at the recovery's
    estimates, decomposed as one SVD alone (svd_by_pad).  Returns the samples
    and the recovery's fits (None for frequency estimates)."""
    mle = inversion.policy_model is not None
    driver = inverse_markov.recover_rewards_mle if mle else recover_rewards
    made = dict(fit_every_step=None)
    for name in ("_estimates", "fit_every_step"):
        def recording(*args, real=getattr(inverse_markov, name), name=name):
            made[name] = real(*args)
            return made[name]
        monkeypatch.setattr(inverse_markov, name, recording)
    stacked = driver(tables, inversion)
    monkeypatch.undo()
    est, k_len, (h_len, s_len) = made["_estimates"], len(tables), tables[0].shape[:2]
    kappas = np.broadcast_to(inversion.kappa, (k_len, h_len))
    sets = inverse_markov.stepwise_confidence_sets(tables, inversion)
    for k, (table, sample, table_sets) in enumerate(zip(tables, stacked, sets, strict=True)):
        (alone,) = driver(table, replace(inversion, kappa=kappas[k]))
        assert_bit_identical(sample, alone)
        assert_sets_bit_identical(sample.sets, alone.sets)
        assert_sets_bit_identical(table_sets, alone.sets)
        for h, cset in enumerate(table_sets):
            system = build_stepwise_system(
                inversion.features, est.mu[k, h], est.nu[k, h], inversion.eta, est.weights[k, h]
            )
            svd = oracles.svd_by_pad(system)
            assert_bit_identical((cset.X, cset.y, cset._svd), (system.X, system.y, svd))
    v_next = stream(32).standard_normal((k_len, s_len))
    for step in range(h_len):
        fit = inverse_markov.ridge_fit(tables, inversion.features, inversion.ridge_lambda, step)
        for k, weights in enumerate(fit.value_weights(v_next)):
            alone = inverse_markov.ridge_fit(
                tables[k], inversion.features, inversion.ridge_lambda, step
            )
            assert_bit_identical(
                (fit.gram[k], fit.successor_counts[k], weights),
                (alone.gram, alone.successor_counts, alone.value_weights(v_next[k])),
            )
    return stacked, made["fit_every_step"]


@pytest.mark.parametrize("name", CASES)
def test_each_size_of_a_stacked_recovery_is_recovered_as_alone(name, monkeypatch):
    estimator, seed, shape, sizes = CASES[name]
    spec, values, data, tables, inversion = stacked_case(estimator, sizes, seed, **shape)
    for size, table in zip(sizes, tables, strict=True):
        assert_bit_identical(table, step_counts(data.prefix(size), spec.S, spec.m, spec.n))
    if name.startswith("unvisited"):  # small N leaves states unvisited
        assert (tables[0].sum(axis=(2, 3, 4)) == 0).any()
    samples, fits = check_recovery(tables, inversion, monkeypatch)
    if name.startswith("seed") and fits:
        assert_fits_alone(data, sizes, inversion.policy_model, fits)
    # the runner's re-solve of every size's rewards, and the true stage
    # games scaled so that some need continuation steps
    rewards = np.stack([sample.rewards for sample in samples])
    check_backward_pass(rewards, spec.transition, spec.eta, spec.gamma)
    check_solves(10.0 ** (seed % 3) * values.Q.reshape(-1, spec.m, spec.n), spec.eta)


def test_some_drawn_case_leaves_a_state_unvisited():
    tables = [stacked_case("frequency", sizes[:1], seed, **shape)[3][0]
              for _, seed, shape, sizes in (CASES[f"seed{seed}"] for seed in SEEDS)]
    assert any((table.sum(axis=(2, 3, 4)) == 0).any() for table in tables)


def test_a_wide_rank_deficient_system_is_recovered_as_alone(monkeypatch):
    # rows = S (m - 1 + n - 1) = 3 < d = 5: the SVD keeps the full V for
    # the null space, and sigma and c are padded to d
    rng = stream(33)
    features = rng.standard_normal((1, 2, 3, 5))
    tables = [rng.integers(1, 40, (3, 1, 2, 3, 1)) for _ in range(3)]
    inversion = InversionConfig(features=features, eta=0.5, gamma=1.0, kappa=0.5,
                                ridge_lambda=0.01, theta_norm_cap=10.0)
    for sample in check_recovery(tables, inversion, monkeypatch)[0]:
        for cset in sample.sets:
            vt, sigma, *_, rank = cset._svd
            assert vt.shape == (5, 5) and sigma.shape == (5,) and rank == 3


def test_games_of_different_paths_in_a_batch_are_solved_as_alone():
    # the hard game keeps retrying shorter continuation steps long after the
    # easy games have converged and been frozen
    easy = make_rng(125).standard_normal((3, 4, 4))
    hard = strongly_scaled_game()[0].payoff
    check_solves(np.stack([easy[0], hard, easy[1], np.zeros((4, 4)), easy[2]]), 2.0)
    # scaled by 300, each game takes its own number of continuation steps,
    # from 39 to 123 Newton steps
    check_solves(np.random.default_rng(3).standard_normal((8, 5, 5)) * 300, 0.5)
    # reward tables of other scales: strongly scaled stages need more iterations
    spec = random_spec(12, h_len=3, s_len=3, m=3, n=4, eta=0.7, gamma=0.9)
    stack = spec.rewards + make_rng(13).standard_normal((4,) + spec.rewards.shape)
    stack[2] *= 6.0
    check_backward_pass(stack, spec.transition, spec.eta, spec.gamma)


# (seed, episodes, sizes, m, n, features) of uniform draws of three states
# and four steps: from 8 actions numpy sums a row pairwise, as a fit alone
# does; the scaled (K = 2, so L = 4) and row-permuted one-hot features are
# not the identity, so their fits take the two products
FIT_CASES = {
    "m2_n3": (11, 200, (200,), 2, 3, "one_hot"),
    "m8_n9": (11, 200, (200,), 8, 9, "one_hot"),
    "m10_n10": (11, 200, (200,), 10, 10, "one_hot"),
    "two_eye": (11, 200, (200,), 3, 3, "scaled"),
    "permuted_eye": (11, 200, (200,), 3, 4, "permuted"),
    "one_stack": (13, 600, (50, 200, 600), 3, 3, "one_hot"),
    "a_stack_per_player": (13, 600, (50, 200, 600), 2, 3, "one_hot"),
}


@pytest.mark.parametrize("name", FIT_CASES)
def test_fits_of_uniform_draws_are_fitted_as_alone(name):
    seed, n_episodes, sizes, m, n, features = FIT_CASES[name]
    rng = stream(seed)
    data = EpisodeDataset(*(rng.integers(0, size, (n_episodes, 4)) for size in (3, m, n, 3)))
    policy = saturated_policy_model(3, m, n)
    psi = (policy.psi_a, policy.psi_b)
    if features == "scaled":
        policy = SoftmaxPolicyModel(2 * psi[0], 2 * psi[1])
        assert policy.feature_scale**2 == 4
    elif features == "permuted":
        rows = [p.reshape(-1, p.shape[2]) for p in psi]
        rows = [flat[rng.permutation(len(flat))] for flat in rows]
        assert not any(np.array_equal(flat, np.eye(len(flat))) for flat in rows)
        policy = SoftmaxPolicyModel(*(flat.reshape(p.shape) for flat, p in zip(rows, psi)))
    assert_fits_alone(data, sizes, policy)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_point_cloud_screen_is_the_plain_sum(seed, monkeypatch):
    # in blocks of many rows, of one row, and in several blocks
    rng = stream(seed, 3)
    d, n_cloud, n_points = (int(x) for x in rng.integers((1, 1, 1), (7, 2000, 2000)))
    monkeypatch.setattr(inverse_matrix, "_CLOUD_CHUNK", (1 << 15, 1, 1024)[seed % 3])
    cloud = rng.standard_normal((n_cloud, d)) * 10.0 ** rng.integers(-3, 4)
    cloud += rng.uniform(-1e3, 1e3)
    points = rng.standard_normal((n_points, d)) * 10.0 ** rng.integers(-3, 4)
    got = inverse_matrix._nearest_sq(cloud, points)
    assert_bit_identical(got, oracles.nearest_sq_by_differences(points, cloud))


def matrix_case(seed):
    """A matrix kind, estimator and sample size; custom games of m, n 2..8
    and d 1..6 keep the default norm cap 4.0, as setup1 and setup2 do."""
    rng = stream(seed, 4)
    fields = dict(kind=("setup1", "setup2", "custom")[seed % 3],
                  estimator=("least_squares", "confidence_set")[seed % 2])
    if fields["kind"] == "custom":
        fields |= dict(m=int(rng.integers(2, 9)), n=int(rng.integers(2, 9)),
                       theta=tuple(rng.uniform(-1, 1, int(rng.integers(1, 7))).tolist()))
    return fields, seed, 0, int(np.round(10 ** rng.uniform(1, 4)))


# (config fields, seed, rep, sample size)
MATRIX_CASES = {f"seed{seed}": matrix_case(seed) for seed in SEEDS} | {
    f"{fields['kind']}_rep{rep}": (fields, 8, rep, 100)
    for fields in ({"kind": "setup1"}, {"kind": "setup2"},
                   {"kind": "custom", "m": 3, "n": 5, "theta": (0.5, -0.25, 0.3)})
    for rep in range(3)
}


@pytest.mark.parametrize("name", MATRIX_CASES)
def test_a_matrix_game_is_the_one_state_markov_game(name):
    # the runner solves a matrix game as the one-step, one-state Markov game;
    # recovered so at the square root of its cap 4.0, it has the matrix
    # estimate's set and parameter
    fields, seed, rep, n_samples = MATRIX_CASES[name]
    config = ExperimentConfig(**fields, seed=seed, samples=(n_samples,))
    model, spec, (truth, _), data = experiments._instance(config, rep, n_samples)
    assert (spec.H, spec.S) == (1, 1) and model.norm_sq_cap == 4.0
    pair = solve_qre(MatrixGameSpec(reconstruct_payoff(model.theta, model.features), config.eta))
    assert_bit_identical((truth.mu[0, 0], truth.nu[0, 0]), (pair.mu, pair.nu))
    table = step_counts(data, 1, spec.m, spec.n)
    kappa = experiments._thresholds(config, table)
    estimate = experiments._matrix_estimate(config, model, table, kappa)
    (theta, *_), q_hat, _, sets, feasible = estimate
    (sample,) = recover_rewards(table, InversionConfig(
        features=model.features[None], eta=config.eta, gamma=1.0, kappa=kappa,
        ridge_lambda=0.01, theta_norm_cap=math.sqrt(model.norm_sq_cap),
    ))
    assert_sets_bit_identical(sample.sets, sets)
    if config.estimator == "confidence_set":
        got = (sample.thetas[0], sample.q_values, sample.feasible)
        assert_bit_identical(got, (theta, q_hat, feasible))
    else:
        assert_bit_identical(min_norm_theta(sample.sets[0]), theta)

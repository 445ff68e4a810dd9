"""Every stacked path gives each entry the bytes it gets alone, at any BLAS
thread count: solve_qre_batch, backward_qre_stack, sample_counts (against
step_counts of sample_episodes' prefixes, in any number of parts and
chunks), fit_every_step, and recover_rewards, recover_rewards_mle and
ridge_fit on a list of tables; so do the point-cloud screen (_nearest_sq)
against the plain sum, the confidence-set projection's ball solve, which
steps only the rows outside the ball, against the loop over every row, and
a matrix game recovered as the one-step, one-state Markov game against the
matrix estimate.  Shapes come from a
fixed seed list (S 1..8, m and n 2..8, H 1..6, K 1..4 nested sizes from 10
to 1e4, so some states go unvisited) and from fixed cases.  A new stacked
path adds its case here.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from invgame import experiments, inverse_markov, inverse_matrix, sampling
from invgame.experiments import ExperimentConfig, saturated_policy_model
from invgame.inverse_markov import InversionConfig, SoftmaxPolicyModel, recover_rewards
from invgame.inverse_matrix import (
    ConfidenceSet,
    build_confidence_set,
    build_stepwise_system,
    feasible_set_from_policies,
    hausdorff_estimate,
    min_norm_theta,
    reconstruct_payoff,
)
from invgame.markov_game import MarkovGameSpec, backward_qre, backward_qre_stack
from invgame.matrix_game import MatrixGameSpec, PolicyPair, qre_residual, solve_qre, solve_qre_batch
from invgame.sampling import (
    EpisodeDataset,
    frequency_estimate_matrix,
    sample_counts,
    sample_episodes,
    sample_matrix_actions,
    step_counts,
    stream,
)

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
    "one_state": ("frequency", 31, dict(s_len=1, horizon=3), (10, 700, 70000)),
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


@pytest.mark.parametrize("name", CASES)
def test_each_size_is_counted_as_its_prefix_of_the_drawn_dataset(name, monkeypatch):
    # in one, two and three parts, and in chunks of 2^16 episodes and of
    # 1000, so that sizes fall inside chunks: the runner's tables are
    # step_counts of sample_episodes' prefixes, and the dataset is the same
    # at every chunk size
    _, seed, shape, sizes = CASES[name]
    config = ExperimentConfig("markov", seed=seed, samples=sizes, **shape)
    spec = experiments.build_model(config, 0).to_tabular()
    truth, _ = backward_qre(spec, tol=1e-12)
    play = (spec, truth, np.full(spec.S, 1.0 / spec.S))
    monkeypatch.setattr(sampling, "_MIN_PART_EPISODES", 1)
    datasets = []
    for parts, chunk in itertools.product((1, 2, 3), (sampling._CHUNK_EPISODES, 1000)):
        monkeypatch.setattr(sampling, "_available_cpus", lambda: parts)
        monkeypatch.setattr(sampling, "_CHUNK_EPISODES", chunk)
        data = sample_episodes(*play, sizes[-1], seed)
        tables = sample_counts(*play, sizes, seed)
        assert not any(table.flags.writeable for table in tables)
        alone = [step_counts(data.prefix(size), spec.S, spec.m, spec.n) for size in sizes]
        assert_bit_identical(tables, alone)
        datasets.append(data)
    for data in datasets[1:]:
        assert_bit_identical(data.arrays, datasets[0].arrays)


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


def one_stack_case():
    """FIT_CASES' one_stack: 24 fits in one stack, converging after 85 to
    221 iterations, four of them on the ball."""
    seed, n_episodes, sizes, m, n, _ = FIT_CASES["one_stack"]
    rng = stream(seed)
    data = EpisodeDataset(*(rng.integers(0, size, (n_episodes, 4)) for size in (3, m, n, 3)))
    return data, sizes, saturated_policy_model(3, m, n)


def every_fit(fits):
    return [fit for by_player in fits for player in "ab" for fit in by_player[player]]


@pytest.mark.parametrize("block", [1, 2, 7])
def test_fits_converging_on_a_block_s_first_and_last_slot_are_fitted_as_alone(block, monkeypatch):
    # convergence is read once per block, from its kept gradients
    monkeypatch.setattr(inverse_markov, "_TRACE_BLOCK", block)
    data, sizes, policy = one_stack_case()
    slots = {(fit.iterations - 1) % block for fit in every_fit(assert_fits_alone(data, sizes, policy))}
    assert {0, block - 1} <= slots


def test_a_last_block_shorter_than_the_others_is_fitted_as_alone(monkeypatch):
    monkeypatch.setattr(inverse_markov, "MLE_MAX_ITER", 33)  # a block of 32, then one of 1
    data, sizes, policy = one_stack_case()
    fits = every_fit(assert_fits_alone(data, sizes, policy))
    assert {(fit.iterations, fit.converged) for fit in fits} == {(33, False)}


def test_a_fit_projected_onto_the_ball_converging_mid_block_is_fitted_as_alone():
    data, sizes, policy = one_stack_case()
    fits = every_fit(assert_fits_alone(data, sizes, policy))
    on_ball = [fit for fit in fits if np.linalg.norm(fit.params) == pytest.approx(1.0, abs=1e-12)]
    assert 0 < len(on_ball) < len(fits)
    assert any(fit.iterations % inverse_markov._TRACE_BLOCK for fit in on_ball)


def test_an_identity_stack_stepping_by_a_quarter_is_fitted_as_alone(monkeypatch):
    # one-hot psi_a and 2 * eye psi_b of another action count: psi_a's stack
    # holds no copy of its features, but L = 4, so it divides by L all the same
    rng = stream(11)
    data = EpisodeDataset(*(rng.integers(0, size, (200, 4)) for size in (3, 2, 3, 3)))
    one_hot = saturated_policy_model(3, 2, 3)
    policy = SoftmaxPolicyModel(one_hot.psi_a, 2 * one_hot.psi_b)
    stacks, real = [], inverse_markov._fit_stack

    def recording(counts, flats, lipschitz):
        stacks.append((flats is None, lipschitz))
        return real(counts, flats, lipschitz)

    monkeypatch.setattr(inverse_markov, "_fit_stack", recording)
    assert_fits_alone(data, (50, 200), policy)
    # fit_every_step's two stacks, then each mle_fit's
    assert stacks[:2] == [(True, 4.0), (False, 4.0)] and set(stacks) == {(True, 4.0), (False, 4.0)}


def test_the_action_major_sum_is_numpy_s_row_sum():
    # from 8 actions numpy sums a row pairwise: 8 accumulators per block of
    # up to 128 terms, halved above that; the action-major sum replays it
    rng = stream(41)
    for n_actions in range(2, 301):
        rows = rng.standard_normal((3, 5, n_actions)) * 10.0 ** rng.uniform(-3, 3, (3, 5, n_actions))
        out = np.empty((3, 5))
        got = inverse_markov._action_sum(np.ascontiguousarray(rows.transpose(2, 0, 1)), out=out)
        assert got is out
        assert_bit_identical(out, rows.sum(axis=-1))


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


def ball_stack(seed):
    """A ball solve's rows a, den and its cap: row 0 inside the ball, row 1
    exactly on it (||a / den||^2 == cap, in powers of two), row 2 outside,
    then rows of each kind at random; den is 0 at random entries (in 7 of
    the 8 stacks), where a is too."""
    rng = stream(seed, 5)
    k, d = int(rng.integers(3, 40)), int(rng.integers(1, 7))
    scale = 2.0 ** int(rng.integers(-2, 3))
    den = rng.uniform(0.1, 10.0, (k, d))
    zero = rng.random((k, d)) < 0.2
    den[zero] = 0.0
    a = rng.standard_normal((k, d)) * den * scale
    a *= rng.choice([0.3, 1.0, 3.0], (k, 1))
    a[0] *= 0.1 / max(1.0, np.abs(a[0] / np.where(zero[0], 1.0, den[0])).max())
    a[2] += 100 * scale * den[2]
    on = np.flatnonzero(rng.random(k) < 0.25)
    on = np.union1d(on[on > 2], [1])
    for row in on:  # z = 2 scale in one coordinate, 0 elsewhere; den powers of two
        den[row] = 2.0 ** rng.integers(-3, 4, d)
        a[row] = 0.0
        col = int(rng.integers(d))
        a[row, col] = 2 * scale * den[row, col]
    return a, den, 4 * scale**2


@pytest.mark.parametrize("seed", SEEDS)
def test_the_ball_solve_of_outside_rows_is_the_loop_over_every_row(seed):
    a, den, cap = ball_stack(seed)
    sq = ((a / np.where(den > 0, den, 1.0)) ** 2).sum(axis=1)
    assert sq[0] < cap and sq[1] == cap and sq[2] > cap
    got = inverse_matrix._ball_solve(a, den, cap)
    assert_bit_identical(got, oracles.ball_solve_all_rows(a, den, cap))
    assert_bit_identical(got[2], sq > cap)
    # each row alone, and the stacks of inside and of outside rows alone
    for rows in [*(slice(i, i + 1) for i in range(len(a))), sq <= cap, sq > cap]:
        assert_bit_identical(
            inverse_matrix._ball_solve(a[rows], den[rows], cap),
            oracles.ball_solve_all_rows(a[rows], den[rows], cap),
        )


@pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
def test_the_ball_solve_at_lam_inf_is_the_loop_over_every_row(scale):
    # the least-residual point's solve: one row a = sigma c over den =
    # sigma^2, 0 at the singular values a wide X pads; the least-squares
    # point lies inside the ball at scale 0.1 and outside at 30
    rng = stream(34)
    for rows, d in ((3, 6), (6, 6), (2, 3)):
        x, y = rng.standard_normal((rows, d)), scale * rng.standard_normal(rows)
        cset = ConfidenceSet(x, y, 1.0, 4.0)
        _, sigma, c, _, _ = cset._svd
        assert (sigma == 0).sum() == d - rows
        a, den = (sigma * c)[None], (sigma**2)[None]
        got = inverse_matrix._ball_solve(a, den, 4.0)
        assert_bit_identical(got, oracles.ball_solve_all_rows(a, den, 4.0))
        assert got[2][0] == (scale > 1)


def setup2_geometry(instance):
    """The setup2 geometry benchmark's outputs for one instance: min-norm
    members, Hausdorff estimates at k = 64 against the feasible set and
    between consecutive sets, a 1000-member cloud and its distance to a
    feasible cloud."""
    eta, cap = experiments.ETA, experiments.SETUP2_NORM_SQ_CAP
    model = experiments.setup2_model(stream(instance, 0))
    spec = MatrixGameSpec(reconstruct_payoff(model.theta, model.features), eta)
    truth = solve_qre(spec, tol=1e-12)
    data = sample_matrix_actions(truth, 10**5, instance, 0)
    feasible = feasible_set_from_policies(model.features, truth, eta, cap)
    sets, outputs = [], []
    for n_samples in (10**3, 10**4, 10**5):
        est = frequency_estimate_matrix(data.prefix(n_samples), spec.m, spec.n)
        kappa = experiments.kappa_rule(n_samples)
        sets.append(build_confidence_set(est, model.features, eta, kappa, cap))
        outputs.append(sets[-1].min_norm_member())
        outputs.append(hausdorff_estimate(feasible, sets[-1], k=64, seed=instance))
    for coarse, fine in zip(sets, sets[1:]):
        outputs.append(hausdorff_estimate(coarse, fine, k=64, seed=instance))
    cloud = sets[-1].sample_members(1000, stream(instance, 1))
    feasible_cloud = feasible.sample(1000, stream(instance, 2))
    return [*outputs, cloud, hausdorff_estimate(cloud, feasible_cloud, k=1000, seed=instance)]


@pytest.mark.parametrize("instance", range(9))
def test_setup2_geometry_is_the_one_of_the_loop_over_every_row(instance, monkeypatch):
    got = setup2_geometry(instance)
    monkeypatch.setattr(inverse_matrix, "_ball_solve", oracles.ball_solve_all_rows)
    assert_bit_identical(got, setup2_geometry(instance))


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
    model, spec, (truth, _), data = experiments._instance(
        config, rep, sample_episodes, n_samples
    )
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

import tracemalloc

import numpy as np
import pytest

from invgame import sampling
from invgame.experiments import (
    MARKOV_THETA_CAP,
    ExperimentConfig,
    build_model,
    custom_model,
    saturated_policy_model,
    setup1_model,
    setup2_model,
)
from invgame.inverse_markov import InversionConfig, mle_fit, recover_rewards
from invgame.markov_game import (
    MarkovGameSpec,
    StagePolicies,
    backward_qre,
    visit_distributions,
)
from invgame.matrix_game import MatrixGameSpec, PolicyPair, solve_qre
from invgame.sampling import (
    _WRITE_BLOCK_ROWS,
    EpisodeDataset,
    _format_rows,
    empirical_state_distribution,
    frequency_estimate_markov,
    frequency_estimate_matrix,
    read_dataset,
    sample_episodes,
    sample_matrix_actions,
    step_counts,
    stream,
    write_dataset,
)

from .oracles import (
    dataset_file_by_join,
    marginals_by_bincount,
    payoff_from_features,
    rows_by_join,
    sample_episodes_by_gather,
    step_counts_by_add_at,
)
from .test_markov_game import simplex_feature_model


def one_step_dataset(actions_a, actions_b) -> EpisodeDataset:
    """Matrix-game samples as one-step episodes at state 0."""
    state = np.zeros((len(actions_a), 1), dtype=np.int64)
    return EpisodeDataset(
        state, np.array(actions_a)[:, None], np.array(actions_b)[:, None], state
    )


def markov_instance(seed):
    """Experiment instance `seed` of the markov kind (its model at rep 0), with
    its QRE policies and the uniform start."""
    spec = build_model(ExperimentConfig("markov", seed=seed), 0).to_tabular()
    policies, _ = backward_qre(spec, tol=1e-12)
    return spec, policies, np.full(spec.S, 1.0 / spec.S)


def dirichlet_instance(seed, s_len, m, n, h_len=3):
    """Random kernel, policies and start of the given sizes, all Dirichlet(1)."""
    rng = stream(seed)
    transition = rng.dirichlet(np.ones(s_len), size=(h_len, s_len, m, n))
    spec = MarkovGameSpec(np.zeros((h_len, s_len, m, n)), transition, eta=1.0)
    policies = StagePolicies(
        rng.dirichlet(np.ones(m), size=(h_len, s_len)),
        rng.dirichlet(np.ones(n), size=(h_len, s_len)),
    )
    return spec, policies, rng.dirichlet(np.ones(s_len))


def deterministic_chain(h_len=3):
    """Two states that swap at every step whatever is played; both players
    always play action 0, and every episode starts at state 0."""
    transition = np.zeros((h_len, 2, 2, 2, 2))
    transition[:, 0, :, :, 1] = 1.0
    transition[:, 1, :, :, 0] = 1.0
    spec = MarkovGameSpec(np.zeros((h_len, 2, 2, 2)), transition, eta=1.0)
    mu = np.zeros((h_len, 2, 2))
    mu[:, :, 0] = 1.0
    return spec, StagePolicies(mu, mu.copy()), np.array([1.0, 0.0])


class TestSampleMatrixActions:
    def test_point_masses(self):
        pair = PolicyPair(np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        data = sample_matrix_actions(pair, 5, seed=0)
        assert np.all(data.actions_a == 0)
        assert np.all(data.actions_b == 2)

    def test_uniform_pair_frequencies_concentrate(self):
        pair = PolicyPair(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        data = sample_matrix_actions(pair, 10**6, seed=42)
        joint = np.zeros((2, 2))
        np.add.at(joint, (data.actions_a, data.actions_b), 1.0)
        assert np.abs(joint / 10**6 - 0.25).max() < 3e-3

    def test_same_seed_identical(self):
        pair = PolicyPair(np.array([0.3, 0.7]), np.array([0.2, 0.8]))
        d1 = sample_matrix_actions(pair, 1000, seed=7, rep=3)
        d2 = sample_matrix_actions(pair, 1000, seed=7, rep=3)
        assert np.array_equal(d1.actions_a, d2.actions_a)
        assert np.array_equal(d1.actions_b, d2.actions_b)

    def test_reps_give_distinct_streams(self):
        pair = PolicyPair(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        d1 = sample_matrix_actions(pair, 1000, seed=7, rep=0)
        d2 = sample_matrix_actions(pair, 1000, seed=7, rep=1)
        assert not np.array_equal(d1.actions_a, d2.actions_a)


class TestFrequencyEstimateMatrix:
    def test_direct_count(self):
        data = one_step_dataset([0, 0], [0, 1])
        est = frequency_estimate_matrix(data, 2, 2)
        assert np.allclose(est.mu_hat, [1.0, 0.0])
        assert np.allclose(est.nu_hat, [0.5, 0.5])

    def test_single_pair_point_mass(self):
        data = one_step_dataset([1], [0])
        est = frequency_estimate_matrix(data, 3, 2)
        assert np.allclose(est.mu_hat, [0, 1, 0])
        assert np.allclose(est.nu_hat, [1, 0])

    @pytest.mark.parametrize(
        "make",
        [setup1_model, setup2_model, lambda rng: custom_model(rng, 4, 5, [0.8, -0.6, 0.3])],
        ids=["setup1", "setup2", "custom"],
    )
    def test_single_state_marginals_are_the_bincount_frequencies(self, make):
        model = make(stream(40))
        spec = MatrixGameSpec(payoff_from_features(model), 0.5)
        data = sample_matrix_actions(solve_qre(spec, tol=1e-12), 10**5, seed=41)
        for n in (10, 10**3, 10**5):
            est = frequency_estimate_matrix(data.prefix(n), spec.m, spec.n)
            assert est.mu_hat.shape == (1, 1, spec.m)
            oracle_mu = marginals_by_bincount(data.actions_a[:n, 0], spec.m)
            oracle_nu = marginals_by_bincount(data.actions_b[:n, 0], spec.n)
            assert np.array_equal(est.mu_hat[0, 0], oracle_mu)
            assert np.array_equal(est.nu_hat[0, 0], oracle_nu)

    def test_mcdiarmid_style_concentration(self):
        # TV <= sqrt(m/N)/2 + 3*sqrt(log(2)/(2N)) should hold in almost every
        # repetition (violation probability ~ 2^-9 per player)
        mu = np.array([0.5, 0.2, 0.2, 0.1])
        nu = np.array([0.4, 0.3, 0.3])
        pair = PolicyPair(mu, nu)
        n = 10**5
        hits = 0
        for rep in range(100):
            data = sample_matrix_actions(pair, n, seed=314, rep=rep)
            est = frequency_estimate_matrix(data, 4, 3)
            tv_mu = 0.5 * np.abs(est.mu_hat - mu).sum()
            tv_nu = 0.5 * np.abs(est.nu_hat - nu).sum()
            bound = lambda k: 0.5 * np.sqrt(k / n) + 3 * np.sqrt(np.log(2) / (2 * n))
            hits += tv_mu <= bound(4) and tv_nu <= bound(3)
        assert hits >= 95

    def test_consistency_as_n_grows(self):
        mu = np.array([0.6, 0.4])
        nu = np.array([0.25, 0.25, 0.5])
        pair = PolicyPair(mu, nu)
        medians = []
        for n in (10**3, 10**4, 10**5, 10**6):
            errs = []
            for rep in range(20):
                est = frequency_estimate_matrix(
                    sample_matrix_actions(pair, n, seed=11, rep=rep), 2, 3
                )
                errs.append(0.5 * np.abs(est.mu_hat - mu).sum())
            medians.append(np.median(errs))
        assert all(a >= b for a, b in zip(medians, medians[1:]))


class TestSampleEpisodes:
    def test_deterministic_chain(self):
        data = sample_episodes(*deterministic_chain(), 10, seed=5)
        assert np.all(data.states == [0, 1, 0])
        assert np.all(data.next_states == [1, 0, 1])
        assert np.all(data.actions_a == 0)

    def test_single_step_records(self):
        model = simplex_feature_model(1, h_len=1)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        data = sample_episodes(spec, policies, np.full(spec.S, 0.25), 50, seed=9)
        assert data.horizon == 1 and data.n_episodes == 50

    def test_state_frequencies_match_visit_distributions(self):
        model = simplex_feature_model(12, s_len=4, m=3, n=3, h_len=4)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        initial = np.full(spec.S, 0.25)
        data = sample_episodes(spec, policies, initial, 10**5, seed=13)
        rho = empirical_state_distribution(data, spec.S, spec.m, spec.n)
        state, _ = visit_distributions(spec, policies, initial)
        tv = 0.5 * np.abs(rho - state).sum(axis=1)
        assert tv.max() < 1e-2

    def test_determinism(self):
        model = simplex_feature_model(2, h_len=2)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        initial = np.full(spec.S, 0.25)
        d1 = sample_episodes(spec, policies, initial, 100, seed=3, rep=4)
        d2 = sample_episodes(spec, policies, initial, 100, seed=3, rep=4)
        assert np.array_equal(d1.states, d2.states)
        assert np.array_equal(d1.next_states, d2.next_states)


class _TopUniforms:
    """A generator stub whose every uniform is 1 - 2**-53, the largest double
    below 1."""

    def random(self, size):
        return np.full(size, 1 - 2.0**-53)


# a 7-action policy whose cumulative sum rounds to 1 - 2**-52, below the
# stub's uniform
SHORT_CDF_POLICY = np.array([
    0.1242902460447487, 0.23080964338334756, 0.03500757465089961,
    0.23036907294402506, 0.07572483463857646, 0.10280016701299959,
    0.20099846132540283,
])


class TestDrawAboveTheLastCdfEntry:
    """A uniform above a cumulative sum that rounds below 1 is the last
    category: an inverse-CDF draw never returns one the model lacks."""

    def test_the_policy_sums_short(self):
        assert np.cumsum(SHORT_CDF_POLICY)[-1] < 1 - 2.0**-53

    def test_matrix_actions(self, monkeypatch):
        monkeypatch.setattr(sampling, "stream", lambda *args: _TopUniforms())
        pair = PolicyPair(SHORT_CDF_POLICY, SHORT_CDF_POLICY[::-1])
        data = sample_matrix_actions(pair, 5, seed=0)
        assert data.actions_a.ravel().tolist() == [6] * 5
        assert data.actions_b.ravel().tolist() == [6] * 5

    def test_episodes(self, monkeypatch):
        monkeypatch.setattr(sampling, "stream", lambda *args: _TopUniforms())
        h_len, s_len, k = 2, 2, len(SHORT_CDF_POLICY)
        transition = np.zeros((h_len, s_len, k, k, s_len))
        transition[..., 1] = 1.0
        spec = MarkovGameSpec(np.zeros((h_len, s_len, k, k)), transition, eta=1.0)
        mu = np.broadcast_to(SHORT_CDF_POLICY, (h_len, s_len, k)).copy()
        data = sample_episodes(spec, StagePolicies(mu, mu[..., ::-1].copy()), [1.0, 0.0], 3, 0)
        data.check(s_len, k, k)
        assert np.all(data.actions_a == k - 1) and np.all(data.actions_b == k - 1)
        assert np.all(data.next_states == 1)

    @pytest.mark.parametrize("k", [1, 2, 7, 300])
    def test_in_range_draws_count_the_whole_cdf(self, k):
        # below the last CDF entry, leaving it out changes no draw
        rng = stream(31, k)
        p = rng.random((3, k))
        cum = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
        rows = rng.integers(0, 3, 5000)
        u = stream(32, k).random(5000)
        out = np.empty(5000, dtype=np.int64)
        sampling._draw_rows(stream(32, k), cum, rows, out)
        in_range = u < cum[rows, -1]
        assert np.array_equal(out[in_range], (u[:, None] > cum[rows]).sum(axis=1)[in_range])
        draws = sampling._draw_categorical(stream(32, k), cum[0], 5000)
        in_range = u < cum[0, -1]
        assert np.array_equal(draws[in_range], np.searchsorted(cum[0], u[in_range], "right"))
        assert max(out.max(), draws.max()) <= k - 1


class TestSampleEpisodesAgainstGather:
    """sample_episodes against its earlier gather-and-sum body in the oracles:
    the same Philox draws must give the same int64 datasets.  Tables of more
    than 255 actions or (state, action, action) rows catch a count or a row
    index formed in too narrow a dtype."""

    def assert_same_draws(self, instance, n_episodes, seed):
        data = sample_episodes(*instance, n_episodes, seed, rep=2)
        oracle = sample_episodes_by_gather(*instance, n_episodes, seed, rep=2)
        for got, want in zip(data.arrays, oracle.arrays):
            assert got.dtype == np.int64 and got.shape == (n_episodes, instance[0].H)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_episodes", [1, 7, 20000])
    @pytest.mark.parametrize("seed", range(9))
    def test_markov_instances(self, seed, n_episodes):
        self.assert_same_draws(markov_instance(seed), n_episodes, seed)

    @pytest.mark.parametrize("n_episodes", [1, 7, 1000])
    def test_deterministic_chain(self, n_episodes):
        self.assert_same_draws(deterministic_chain(), n_episodes, 5)

    @pytest.mark.parametrize("n_episodes", [1, 7, 1000])
    @pytest.mark.parametrize(
        "sizes", [(3, 2, 300), (2, 300, 3), (5, 17, 19), (1, 2, 2)], ids=str
    )
    def test_dirichlet_instances(self, sizes, n_episodes):
        self.assert_same_draws(dirichlet_instance(27, *sizes), n_episodes, 28)

    def test_memory_is_the_dataset_and_one_step(self):
        # 1e5 episodes of H=6: the dataset's own int64 arrays take
        # 4 * T * H * 8 = 19.2 MB; a transposed copy of them would show here
        # (and in the benchmark's peak_rss_mb) as a peak near twice that
        spec, policies, initial = markov_instance(1)
        t = 10**5
        tracemalloc.start()
        try:
            sample_episodes(spec, policies, initial, t, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 4 * t * spec.H * 8

    def test_states_and_successors_are_one_chain(self):
        # next_states[:, h] is states[:, h + 1], stored once: the four arrays
        # are views of one block of (3H + 1) * T int64 values
        spec, policies, initial = markov_instance(1)
        t = 1000
        data = sample_episodes(spec, policies, initial, t, seed=1)
        assert np.shares_memory(data.states, data.next_states)
        block = data.states.base
        assert all(a.base is block for a in data.arrays)
        assert block.nbytes == (3 * spec.H + 1) * t * 8
        assert np.array_equal(data.next_states[:, :-1], data.states[:, 1:])


class TestLayoutIndependence:
    """EpisodeDataset arrays are (T, H) views of any strides: a sampled
    dataset's step-major views and C-contiguous copies of them must give the
    same results."""

    @pytest.fixture(scope="class")
    def case(self):
        spec, policies, initial = markov_instance(3)
        model = build_model(ExperimentConfig("markov", seed=3), 0)
        data = sample_episodes(spec, policies, initial, 5000, seed=3)
        assert not data.states.flags.c_contiguous
        copy = EpisodeDataset(*(np.ascontiguousarray(a) for a in data.arrays))
        return spec, model, data, copy

    def test_frequency_estimate_markov(self, case):
        spec, _, data, copy = case
        est, est_copy = (frequency_estimate_markov(d, spec.S, spec.m, spec.n) for d in (data, copy))
        for field in ("mu_hat", "nu_hat", "counts", "visited"):
            assert np.array_equal(getattr(est, field), getattr(est_copy, field))

    def test_recover_rewards(self, case):
        spec, model, data, copy = case
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=0.2,
            ridge_lambda=0.01, theta_norm_cap=MARKOV_THETA_CAP,
        )
        sample, sample_copy = (recover_rewards(d, config)[0] for d in (data, copy))
        for field in ("thetas", "q_values", "v_values", "rewards", "feasible"):
            assert np.array_equal(getattr(sample, field), getattr(sample_copy, field))

    def test_mle_fit(self, case):
        spec, _, data, copy = case
        policy_model = saturated_policy_model(spec.S, spec.m, spec.n)
        for player in ("a", "b"):
            fit, fit_copy = (mle_fit(d.prefix(200), policy_model, 2, player) for d in (data, copy))
            assert fit.iterations == fit_copy.iterations
            assert np.array_equal(fit.params, fit_copy.params)
            assert np.array_equal(fit.objective_trace, fit_copy.objective_trace)

    def test_write_dataset(self, case, tmp_path):
        _, _, data, copy = case
        write_dataset(data, tmp_path / "views.csv")
        write_dataset(copy, tmp_path / "copies.csv")
        assert (tmp_path / "views.csv").read_bytes() == (tmp_path / "copies.csv").read_bytes()


class TestStepCounts:
    """step_counts against a scatter-add oracle, on every array layout the
    library makes, with its cache and its range check."""

    def assert_counts(self, data, s_len, m, n):
        table = step_counts(data, s_len, m, n)
        assert table.dtype == np.int64 and table.shape == (data.horizon, s_len, m, n, s_len)
        assert np.array_equal(table, step_counts_by_add_at(data, s_len, m, n))
        assert table.sum() == data.states.size

    @pytest.mark.parametrize("seed", [1, 4])
    def test_sampled_step_major_views(self, seed):
        spec, policies, initial = markov_instance(seed)
        data = sample_episodes(spec, policies, initial, 20000, seed)
        assert not data.states.flags.c_contiguous
        self.assert_counts(data, spec.S, spec.m, spec.n)

    @pytest.mark.parametrize(
        "sizes", [(3, 2, 300), (2, 300, 3), (5, 17, 19), (1, 2, 2)], ids=str
    )
    def test_dirichlet_instances(self, sizes):
        spec, policies, initial = dirichlet_instance(29, *sizes)
        self.assert_counts(sample_episodes(spec, policies, initial, 1000, 30), *sizes)

    def test_read_dataset_row_major_arrays(self, tmp_path):
        spec, policies, initial = markov_instance(2)
        write_dataset(sample_episodes(spec, policies, initial, 3000, 2), tmp_path / "d.csv")
        data = read_dataset(tmp_path / "d.csv", (spec.S, spec.m, spec.n))
        assert data.states.base is not None and not data.states.flags.c_contiguous
        self.assert_counts(data, spec.S, spec.m, spec.n)

    def test_matrix_zero_stride_state_columns(self):
        pair = PolicyPair(np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.1, 0.2, 0.1]))
        data = sample_matrix_actions(pair, 5000, seed=31)
        assert data.states.strides == (0, 0)
        self.assert_counts(data, 1, 3, 4)
        table = step_counts(data, 1, 3, 4)[0, 0, :, :, 0]
        assert np.array_equal(table.sum(axis=1), np.bincount(data.actions_a[:, 0], minlength=3))
        assert np.array_equal(table.sum(axis=0), np.bincount(data.actions_b[:, 0], minlength=4))

    @pytest.mark.parametrize("t", [0, 1, 999, 4000])
    def test_prefix_views(self, t):
        spec, policies, initial = markov_instance(5)
        full = sample_episodes(spec, policies, initial, 4000, 5)
        step_counts(full, spec.S, spec.m, spec.n)  # a cached full table must not leak
        self.assert_counts(full.prefix(t), spec.S, spec.m, spec.n)

    def test_narrow_index_dtypes_do_not_wrap(self):
        # flat cell indices reach S*m*n*S - 1 = 399 here, past uint8's 255
        spec, policies, initial = markov_instance(7)
        data = sample_episodes(spec, policies, initial, 2000, 7)
        narrow = EpisodeDataset(*(a.astype(np.uint8) for a in data.arrays))
        self.assert_counts(narrow, spec.S, spec.m, spec.n)

    def test_counted_once_per_dataset_and_shape(self, monkeypatch):
        spec, policies, initial = markov_instance(6)
        data = sample_episodes(spec, policies, initial, 500, 6)
        passes = []

        def counting(data, *shape):
            passes.append(shape)
            return count_steps(data, *shape)

        count_steps = sampling._count_steps
        monkeypatch.setattr(sampling, "_count_steps", counting)
        table = step_counts(data, spec.S, spec.m, spec.n)
        assert step_counts(data, spec.S, spec.m, spec.n) is table
        assert len(passes) == 1
        wider = step_counts(data, spec.S + 1, spec.m, spec.n)  # another shape: recounted
        assert len(passes) == 2 and wider is not table
        assert np.array_equal(wider[:, : spec.S, :, :, : spec.S], table)
        assert wider[:, spec.S].sum() == 0 and wider[..., spec.S].sum() == 0
        assert step_counts(data.prefix(500), spec.S, spec.m, spec.n) is not table
        assert len(passes) == 3
        with pytest.raises(ValueError):
            table[0, 0, 0, 0, 0] = 1  # read-only: a caller cannot change the cache

    @pytest.mark.parametrize(
        "column, bad, message",
        [
            ("states", 3, "state must lie in 0..2"),
            ("states", -1, "state must lie in 0..2"),
            ("actions_a", 4, "action_a must lie in 0..3"),
            ("actions_b", -2, "action_b must lie in 0..1"),
            ("next_states", 3, "next_state must lie in 0..2"),
        ],
    )
    def test_out_of_range_index_named_before_counting(self, monkeypatch, column, bad, message):
        # a key built from an out-of-range index would land in a neighbouring
        # cell (or wrap), so nothing may be counted before the check
        arrays = {name: np.zeros((4, 2), dtype=np.int64) for name in
                  ("states", "actions_a", "actions_b", "next_states")}
        arrays[column][2, 1] = bad
        data = EpisodeDataset(**arrays)

        def no_counting(*args):
            raise AssertionError("counted before the check")

        monkeypatch.setattr(sampling, "_count_steps", no_counting)
        for count in (step_counts, frequency_estimate_markov, empirical_state_distribution):
            with pytest.raises(ValueError, match=message):
                count(data, 3, 4, 2)
        assert data._step_counts == {}


class TestFrequencyEstimateMarkov:
    def test_unvisited_state_gets_uniform_default(self):
        states = np.zeros((4, 1), dtype=np.int64)
        acts = np.zeros((4, 1), dtype=np.int64)
        data = EpisodeDataset(states, acts, acts, states)
        est = frequency_estimate_markov(data, s_len=2, m=3, n=3)
        assert est.counts[0, 1] == 0
        assert not est.visited[0, 1]
        assert np.allclose(est.mu_hat[0, 1], 1 / 3)

    def test_single_episode_point_mass(self):
        data = EpisodeDataset(
            np.array([[0]]), np.array([[1]]), np.array([[0]]), np.array([[0]])
        )
        est = frequency_estimate_markov(data, s_len=2, m=2, n=2)
        assert est.mu_hat[0, 0, 1] == 1.0
        assert est.nu_hat[0, 0, 0] == 1.0

    def test_estimates_approach_true_policies(self):
        model = simplex_feature_model(14)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        data = sample_episodes(spec, policies, np.full(spec.S, 0.25), 10**5, seed=15)
        est = frequency_estimate_markov(data, spec.S, spec.m, spec.n)
        tv_mu = 0.5 * np.abs(est.mu_hat - policies.mu).sum(axis=2)
        tv_nu = 0.5 * np.abs(est.nu_hat - policies.nu).sum(axis=2)
        assert tv_mu[est.visited].max() < 0.05
        assert tv_nu[est.visited].max() < 0.05
        assert np.allclose(est.mu_hat.sum(axis=2), 1.0, atol=1e-12)


    def test_counts_match_scatter_add_reference(self):
        model = simplex_feature_model(16)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        data = sample_episodes(spec, policies, np.full(spec.S, 0.25), 3000, seed=17)
        est = frequency_estimate_markov(data, spec.S, spec.m, spec.n)
        for h in range(spec.H):
            joint = np.zeros((spec.S, spec.m), dtype=np.int64)
            np.add.at(joint, (data.states[:, h], data.actions_a[:, h]), 1)
            denom = np.maximum(est.counts[h], 1)[:, None]
            assert np.array_equal(est.mu_hat[h], joint / denom)

    def test_out_of_range_indices_rejected(self):
        def estimate(states, actions_a):
            zeros = np.zeros_like(states)
            data = EpisodeDataset(states[:, None], actions_a[:, None], zeros[:, None],
                                  zeros[:, None])
            return frequency_estimate_markov(data, s_len=2, m=3, n=3)

        states = np.array([0, 1, 1])
        with pytest.raises(ValueError, match="action_a must lie in 0..2"):
            estimate(states, np.array([0, 3, 1]))
        with pytest.raises(ValueError, match="action_a must lie in 0..2"):
            estimate(states, np.array([0, -1, 1]))
        with pytest.raises(ValueError, match="state must lie in 0..1"):
            estimate(np.array([0, 2, 1]), np.array([0, 1, 1]))
        est = estimate(states, np.array([0, 2, 2]))
        assert (est.mu_hat[0] * est.counts[0][:, None]).tolist() == [
            [1, 0, 0],
            [0, 0, 2],
        ]


class TestEmpiricalStateDistribution:
    def test_all_start_at_state_zero(self):
        states = np.zeros((5, 2), dtype=np.int64)
        data = EpisodeDataset(states, states, states, states)
        rho = empirical_state_distribution(data, 3, 1, 1)
        assert np.allclose(rho[0], [1, 0, 0])

    def test_two_episode_example(self):
        states = np.array([[0, 0], [0, 2]], dtype=np.int64)
        zeros = np.zeros_like(states)
        data = EpisodeDataset(states, zeros, zeros, zeros)
        rho = empirical_state_distribution(data, 4, 1, 1)
        assert np.allclose(rho[1], [0.5, 0, 0.5, 0])

    @pytest.mark.parametrize("state", [4, -4])
    def test_state_outside_the_model_rejected(self, state):
        states = np.array([[0, 1], [2, state]], dtype=np.int64)
        zeros = np.zeros_like(states)
        data = EpisodeDataset(states, zeros, zeros, zeros)
        with pytest.raises(ValueError, match="state must lie in 0..3"):
            empirical_state_distribution(data, 4, 1, 1)

    def test_halving_t_reduces_error(self):
        model = simplex_feature_model(16, h_len=3)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        initial = np.full(spec.S, 0.25)
        state, _ = visit_distributions(spec, policies, initial)
        full = sample_episodes(spec, policies, initial, 4 * 10**4, seed=17)
        errs = []
        for t in (10**4, 4 * 10**4):
            rho = empirical_state_distribution(full.prefix(t), spec.S, spec.m, spec.n)
            errs.append(np.abs(rho - state).max())
        assert errs[1] <= errs[0]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = simplex_feature_model(18, h_len=2)
        spec = model.to_tabular()
        policies, _ = backward_qre(spec)
        data = sample_episodes(spec, policies, np.full(spec.S, 0.25), 30, seed=19)
        path = tmp_path / "episodes.csv"
        write_dataset(data, path)
        loaded = read_dataset(path)
        assert np.array_equal(loaded.states, data.states)
        assert np.array_equal(loaded.actions_a, data.actions_a)
        assert np.array_equal(loaded.actions_b, data.actions_b)
        assert np.array_equal(loaded.next_states, data.next_states)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0,0,0,0\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    @pytest.mark.parametrize(
        "keys, grid",
        [
            ([(0, 0), (0, 0), (2, 0)], "0..2 x 0..0"),
            ([(-1, 0), (1, 0)], "0..1 x 0..0"),
            ([(0, 0), (0, 1), (1, 1)], "0..1 x 0..1"),
            # -2**62 * 4 wraps to key 0 in int64: only the sign shows it
            ([(-2**62, 0)] + [(e, h) for e in (0, 1) for h in range(4)][1:], "0..1 x 0..3"),
            # H = 2**63 is past int64: no key may be formed from it
            ([(0, 2**63 - 1)], f"0..0 x 0..{2**63 - 1}"),
        ],
        ids=["duplicated_and_missing_episode", "negative_episode", "missing_step",
             "negative_episode_wrapping_into_the_grid", "largest_step"],
    )
    def test_keys_must_be_the_episode_step_grid(self, tmp_path, keys, grid):
        path = tmp_path / "bad.csv"
        rows = "".join(f"{e},{h},0,1,1,0\n" for e, h in keys)
        path.write_text("episode,step,state,action_a,action_b,next_state\n" + rows)
        with pytest.raises(ValueError, match=rf"\(episode, step\) must be each of {grid} once"):
            read_dataset(path)

    def test_records_need_six_fields(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("episode,step,state,action_a,action_b,next_state\n0,0,0,1,1\n")
        with pytest.raises(ValueError, match="a record needs 6 fields, not 5"):
            read_dataset(path)

    def test_state_chain_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "episode,step,state,action_a,action_b,next_state\n0,0,0,1,1,1\n0,1,2,1,1,0\n"
        )
        with pytest.raises(ValueError, match="next_state at step h must equal state at step h"):
            read_dataset(path)
        # against a model the out-of-range state is what gets named
        with pytest.raises(ValueError, match="state must lie in 0..1"):
            read_dataset(path, (2, 2, 2))

    def test_matrix_dataset_as_episodes(self):
        pair = PolicyPair(np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0]))
        episodes = sample_matrix_actions(pair, 2, seed=0)
        assert episodes.n_episodes == 2 and episodes.horizon == 1
        assert np.array_equal(episodes.actions_a, [[1], [1]])
        assert np.array_equal(episodes.actions_b, [[3], [3]])
        for column in (episodes.states, episodes.next_states):
            # state 0 throughout, as a view that allocates no column
            assert np.array_equal(column, [[0], [0]]) and column.strides == (0, 0)


class TestWriteDataset:
    """write_dataset's bytes against the row-by-row formatter in the oracles."""

    def written(self, data, tmp_path):
        path = tmp_path / "episodes.csv"
        write_dataset(data, path)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "n_episodes",
        [1, _WRITE_BLOCK_ROWS // 2, 10001],
        ids=["one_episode", "whole_blocks", "partial_block"],
    )
    def test_sampled_markov_dataset(self, tmp_path, n_episodes):
        # with H=2: two rows, exactly one block, and 10,001 episodes, whose
        # indices cross 9->10, 99->100 and 9999->10000 and whose 20,002 rows
        # end in a partial block
        spec = simplex_feature_model(18, h_len=2).to_tabular()
        policies, _ = backward_qre(spec)
        initial = np.full(spec.S, 0.25)
        data = sample_episodes(spec, policies, initial, n_episodes, seed=23)
        assert self.written(data, tmp_path) == dataset_file_by_join(data)

    def test_matrix_dataset_as_single_step_episodes(self, tmp_path):
        pair = PolicyPair(np.full(4, 0.25), np.full(6, 1.0 / 6.0))
        data = sample_matrix_actions(pair, 3000, seed=24)
        assert self.written(data, tmp_path) == dataset_file_by_join(data)

    def test_zeros_negatives_and_fifteen_digit_values(self):
        extremes = np.iinfo(np.int64)
        edges = [0, -1, 9, -10, 10**14, 10**15 - 1, -(10**15 - 1), extremes.min,
                 extremes.max, 0, 0, 0]
        table = np.vstack(
            [
                np.array(edges, dtype=np.int64).reshape(2, 6),
                stream(25).integers(-(10**15), 10**15, size=(500, 6)),
                np.zeros((3, 6), dtype=np.int64),
            ]
        )
        assert _format_rows(table).tobytes() == rows_by_join(table)
        column = table.reshape(-1, 1)
        assert _format_rows(column).tobytes() == rows_by_join(column)

    def test_writer_memory_does_not_grow_with_the_dataset(self, tmp_path):
        # 20,000 episodes of H=6: the dataset's own int64 arrays take
        # 4 * T * H * 8 = 3.84 MB, and the writer must stay below that
        t, h_len = 20000, 6
        rng = stream(26)
        data = EpisodeDataset(*(rng.integers(0, 5, size=(t, h_len)) for _ in range(4)))
        tracemalloc.start()
        try:
            write_dataset(data, tmp_path / "episodes.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * t * h_len * 8


class TestStream:
    def test_spawn_key_independence(self):
        a = stream(5, 0).random(4)
        b = stream(5, 1).random(4)
        c = stream(5, 0).random(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)

import itertools
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from invgame import cli, experiments, sampling
from invgame.experiments import (
    MARKOV_THETA_CAP,
    ExperimentConfig,
    build_model,
    custom_model,
    saturated_policy_model,
    setup1_model,
    setup2_model,
)
from invgame.inverse_markov import (
    InversionConfig,
    mle_fit,
    recover_rewards,
    recover_rewards_mle,
)
from invgame.inverse_matrix import reconstruct_payoff
from invgame.markov_game import (
    MarkovGameSpec,
    StagePolicies,
    backward_qre,
    visit_distributions,
)
from invgame.matrix_game import MatrixGameSpec, PolicyPair, solve_qre
from invgame.sampling import (
    _WRITE_BLOCK_ROWS,
    DATASET_HEADER,
    EpisodeDataset,
    _format_rows,
    empirical_state_distribution,
    frequency_estimate_markov,
    frequency_estimate_matrix,
    read_counts,
    read_dataset,
    sample_counts,
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
    read_dataset_by_loadtxt,
    rows_by_join,
    sample_episodes_by_gather,
    sample_matrix_actions_by_searchsorted,
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


def narrowest_signed(k):
    """The smallest signed integer dtype that holds k - 1: the dtype of a
    sampled dataset whose largest of S, m and n is k."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= k - 1)


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

    @pytest.mark.parametrize("rep", range(3))
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "fields",
        [{"kind": "setup1"}, {"kind": "setup2"}, {"kind": "custom", "theta": (0.5, -0.25, 0.1)}],
        ids=["setup1", "setup2", "custom"],
    )
    def test_the_searchsorted_body_draws_the_same(self, fields, seed, rep):
        # the sampler, and the runner's and simulate's dataset, against the
        # earlier searchsorted body, bit for bit, at the instance's QRE
        config = ExperimentConfig(**fields, seed=seed)
        model = build_model(config, rep)
        payoff = reconstruct_payoff(model.theta, model.features)
        pair = solve_qre(MatrixGameSpec(payoff, config.eta), tol=1e-12)
        oracle = sample_matrix_actions_by_searchsorted(pair, 5000, seed, rep)
        dtype = narrowest_signed(max(pair.mu.size, pair.nu.size))
        for data in (
            sample_matrix_actions(pair, 5000, seed, rep),
            experiments.sample_dataset(config, rep, 5000),
        ):
            for got, want in zip(data.arrays, oracle.arrays):
                assert got.dtype == dtype and got.shape == (5000, 1)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_state_one_step_markov_config_samples_its_matrix_game(self, seed):
        # S=1, H=1 markov is the matrix game of its one payoff: the same
        # draws as sample_matrix_actions at that payoff's QRE
        config = ExperimentConfig("markov", seed=seed, s_len=1, horizon=1)
        spec = build_model(config, 1).to_tabular()
        pair = solve_qre(MatrixGameSpec(spec.rewards[0, 0], config.eta), tol=1e-12)
        want = sample_matrix_actions(pair, 5000, seed, 1)
        got = experiments.sample_dataset(config, 1, 5000)
        for column, expected in zip(got.arrays, want.arrays):
            assert np.array_equal(column, expected)

    def test_memory_is_the_two_action_columns(self):
        # 1e5 pairs take 2 * T int8 bytes, one buffer of T float64 uniforms
        # and one of T bools: the state columns are zero-stride views
        pair = PolicyPair(np.full(6, 1.0 / 6.0), np.array([0.1, 0.2, 0.3, 0.4]))
        t = 10**5
        sample_matrix_actions(pair, 1, seed=1)  # numpy.random's lazy imports, untraced
        tracemalloc.start()
        try:
            sample_matrix_actions(pair, t, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * (2 * t + t * 8 + t)


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


def force_parts(monkeypatch, parts):
    """Make a sample_episodes call of at least `parts` episodes draw in
    `parts` parts (fewer episodes: one part per episode)."""
    monkeypatch.setattr(sampling, "_available_cpus", lambda: parts)
    monkeypatch.setattr(sampling, "_MIN_PART_EPISODES", 1)


def given_uniforms(monkeypatch, values):
    """Make every draw of a sample_episodes call take the given uniforms (one
    value, or T of them), in whichever parts it is drawn."""

    def uniforms(seed, rep, n_episodes, lo, hi):
        return itertools.repeat(np.broadcast_to(values, (n_episodes,))[lo:hi])

    monkeypatch.setattr(sampling, "_uniforms", uniforms)


TOP_UNIFORM = 1 - 2.0**-53  # the largest double below 1


# a 7-action policy whose cumulative sum rounds to 1 - 2**-52, below
# TOP_UNIFORM
SHORT_CDF_POLICY = np.array([
    0.1242902460447487, 0.23080964338334756, 0.03500757465089961,
    0.23036907294402506, 0.07572483463857646, 0.10280016701299959,
    0.20099846132540283,
])


class TestDrawAboveTheLastCdfEntry:
    """A uniform above a cumulative sum that rounds below 1 is the last
    category: an inverse-CDF draw never returns one the model lacks, drawn
    in one part or in two."""

    def test_the_policy_sums_short(self):
        assert np.cumsum(SHORT_CDF_POLICY)[-1] < TOP_UNIFORM

    @pytest.mark.parametrize("parts", [1, 2])
    def test_matrix_actions(self, monkeypatch, parts):
        force_parts(monkeypatch, parts)
        given_uniforms(monkeypatch, TOP_UNIFORM)
        pair = PolicyPair(SHORT_CDF_POLICY, SHORT_CDF_POLICY[::-1])
        data = sample_matrix_actions(pair, 5, seed=0)
        assert data.actions_a.ravel().tolist() == [6] * 5
        assert data.actions_b.ravel().tolist() == [6] * 5

    @pytest.mark.parametrize("parts", [1, 2])
    def test_episodes(self, monkeypatch, parts):
        force_parts(monkeypatch, parts)
        given_uniforms(monkeypatch, TOP_UNIFORM)
        h_len, s_len, k = 2, 2, len(SHORT_CDF_POLICY)
        transition = np.zeros((h_len, s_len, k, k, s_len))
        transition[..., 1] = 1.0
        spec = MarkovGameSpec(np.zeros((h_len, s_len, k, k)), transition, eta=1.0)
        mu = np.broadcast_to(SHORT_CDF_POLICY, (h_len, s_len, k)).copy()
        data = sample_episodes(spec, StagePolicies(mu, mu[..., ::-1].copy()), [1.0, 0.0], 3, 0)
        data.check(s_len, k, k)
        assert np.all(data.actions_a == k - 1) and np.all(data.actions_b == k - 1)
        assert np.all(data.next_states == 1)

    @pytest.mark.parametrize("n_rows", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 7, 300])
    def test_in_range_draws_count_the_whole_cdf(self, k, n_rows):
        # each draw is searchsorted(side="right") on its row without the last
        # entry, for every u, ties and 0.0 included; below the last entry,
        # leaving it out changes no draw
        rng = stream(31, k)
        p = rng.random((n_rows, k))
        cum = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
        rows = rng.integers(0, n_rows, 5000)
        u = stream(32, k).random(5000)
        u[:k] = cum[rows[:k], np.arange(k)]  # exactly at each cumulative sum
        u[k] = 0.0
        out = np.empty(5000, dtype=narrowest_signed(k))
        sampling._draw_rows(u, cum, rows, out)
        want = [np.searchsorted(cum[r, :-1], x, side="right") for r, x in zip(rows, u)]
        assert np.array_equal(out, want)
        in_range = u < cum[rows, -1]
        whole = np.array([np.searchsorted(cum[r], x, side="right") for r, x in zip(rows, u)])
        assert np.array_equal(out[in_range], whole[in_range])
        assert out.max() <= k - 1


class TestTiesGoToTheUpperCategory:
    """Category j takes the half-open [cum[j - 1], cum[j]): a uniform of 0.0,
    or one exactly at a cumulative sum, never draws an action, initial state
    or next state of probability zero, and a tie goes to the upper category,
    drawn in one part or in two."""

    # cumulative sums 0, .5, .5, 1; 0, 0, .5, 1; and 0, .5, 1 for the start
    # and every transition row: categories of probability zero at each end
    # and inside
    MU = np.array([0.0, 0.5, 0.0, 0.5])
    NU = np.array([0.0, 0.0, 0.5, 0.5])
    STATES = np.array([0.0, 0.5, 0.5])

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("u, a, b, s", [(0.0, 1, 2, 1), (0.5, 3, 3, 2)], ids=["zero", "tie"])
    def test_episodes(self, monkeypatch, u, a, b, s, parts):
        force_parts(monkeypatch, parts)
        given_uniforms(monkeypatch, u)
        h_len, s_len = 2, 3
        transition = np.broadcast_to(self.STATES, (h_len, s_len, 4, 4, s_len))
        spec = MarkovGameSpec(np.zeros((h_len, s_len, 4, 4)), transition, eta=1.0)
        policies = StagePolicies(
            *(np.broadcast_to(p, (h_len, s_len, 4)) for p in (self.MU, self.NU))
        )
        data = sample_episodes(spec, policies, self.STATES, 5, seed=0)
        assert (self.MU[data.actions_a] > 0).all() and (self.NU[data.actions_b] > 0).all()
        assert (self.STATES[data.states] > 0).all() and (self.STATES[data.next_states] > 0).all()
        assert np.all(data.actions_a == a) and np.all(data.actions_b == b)
        assert np.all(data.states == s) and np.all(data.next_states == s)

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("u, a, b", [(0.0, 1, 2), (0.5, 3, 3)], ids=["zero", "tie"])
    def test_matrix_actions(self, monkeypatch, u, a, b, parts):
        force_parts(monkeypatch, parts)
        given_uniforms(monkeypatch, u)
        data = sample_matrix_actions(PolicyPair(self.MU, self.NU), 5, seed=0)
        assert (self.MU[data.actions_a] > 0).all() and (self.NU[data.actions_b] > 0).all()
        assert np.all(data.actions_a == a) and np.all(data.actions_b == b)


class TestSampleEpisodesInput:
    """A start or policies that do not fit the game are a ValueError naming
    the argument, in the sampler and in visit_distributions alike."""

    @pytest.mark.parametrize(
        "initial, sizes, named",
        [
            ([0.5, 0.5], None, "initial"),  # would never start in state 2
            ([0.2, 0.2, 0.2], None, "initial"),  # would start 60% in state 2
            ([0.6, 0.6, -0.2], None, "initial"),
            ([np.nan, 0.5, 0.5], None, "initial"),
            (None, (2, 2, 4, 2), "policies.mu"),  # (S, m, n, H): one state short
            (None, (3, 3, 4, 2), "policies.mu"),
            (None, (3, 2, 5, 2), "policies.nu"),
            (None, (3, 2, 4, 3), "policies.mu"),
        ],
        ids=["short", "sum", "negative", "nan", "states", "m", "n", "steps"],
    )
    def test_named_value_errors(self, initial, sizes, named):
        spec, policies, start = dirichlet_instance(29, 3, 2, 4, h_len=2)
        if sizes is not None:
            policies = dirichlet_instance(29, *sizes[:3], h_len=sizes[3])[1]
        initial = start if initial is None else initial
        with pytest.raises(ValueError, match=f"^{re.escape(named)} must"):
            sample_episodes(spec, policies, initial, 10, seed=0)
        with pytest.raises(ValueError, match=f"^{re.escape(named)} must"):
            visit_distributions(spec, policies, initial)


class TestSampleEpisodesAgainstGather:
    """sample_episodes against its earlier gather-and-sum body in the oracles:
    the same Philox draws must give the same datasets, in the smallest signed
    dtype that holds every index.  Tables of more than 255 actions or
    (state, action, action) rows catch a count or a row index formed in too
    narrow a dtype."""

    def assert_same_draws(self, instance, n_episodes, seed):
        data = sample_episodes(*instance, n_episodes, seed, rep=2)
        oracle = sample_episodes_by_gather(*instance, n_episodes, seed, rep=2)
        spec = instance[0]
        dtype = narrowest_signed(max(spec.S, spec.m, spec.n))
        for got, want in zip(data.arrays, oracle.arrays):
            assert got.dtype == dtype and got.shape == (n_episodes, spec.H)
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

    @pytest.mark.parametrize(
        "sizes", [(128, 2, 2), (2, 128, 3), (2, 3, 129), (129, 2, 2)], ids=str
    )
    def test_the_dtype_widens_past_128_categories(self, sizes):
        # indices up to 127 are int8; one more state or action is int16
        instance = dirichlet_instance(33, *sizes, h_len=2)
        data = sample_episodes(*instance, 500, 34)
        assert data.states.dtype == (np.int8 if max(sizes) <= 128 else np.int16)
        self.assert_same_draws(instance, 500, 34)

    def test_memory_is_the_dataset_and_one_step(self):
        # 1e5 episodes of H=6: the int8 block of (3H + 1) * T = 1.9 MB, and
        # one step's T uniforms, intp rows, gathered CDF column and bools
        # (measured: 4.4 MB); an int64 block, or a copy of the int8 one,
        # would break the bound
        spec, policies, initial = markov_instance(1)
        t = 10**5
        tracemalloc.start()
        try:
            sample_episodes(spec, policies, initial, t, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * ((3 * spec.H + 1) * t + 4 * t * 8)

    def test_states_and_successors_are_one_chain(self):
        # next_states[:, h] is states[:, h + 1], stored once: the four arrays
        # are views of one block of (3H + 1) * T int8 values
        spec, policies, initial = markov_instance(1)
        t = 1000
        data = sample_episodes(spec, policies, initial, t, seed=1)
        assert np.shares_memory(data.states, data.next_states)
        block = data.states.base
        assert all(a.base is block for a in data.arrays)
        assert block.dtype == np.int8
        assert block.nbytes == (3 * spec.H + 1) * t * block.itemsize
        assert np.array_equal(data.next_states[:, :-1], data.states[:, 1:])


PART_INSTANCES = {
    "markov0": lambda: markov_instance(0),
    "markov5": lambda: markov_instance(5),
    "chain": deterministic_chain,
    "one_state": lambda: dirichlet_instance(27, 1, 2, 2),
    "5x17x19": lambda: dirichlet_instance(27, 5, 17, 19),
    "300_actions": lambda: dirichlet_instance(27, 3, 2, 300),
    "129_states": lambda: dirichlet_instance(33, 129, 2, 2, h_len=2),
}
WIDE_INSTANCES = ("300_actions", "129_states")  # the oracle's (T, k) gather is big at 2^16 + 3


class TestPartCountInvariance:
    """A dataset drawn in 1, 2, 3 or 4 parts is the one drawn in order: the
    earlier gather body's (tests/oracles), dtype included.  At these T, part
    bounds fall off the Philox's 4-word blocks."""

    @pytest.mark.parametrize(
        "name, n_episodes",
        [
            (name, t)
            for name in PART_INSTANCES
            for t in (1, 2, 3, 5, 7, 1001, 2**16 + 3)
            if not (name in WIDE_INSTANCES and t > 1001)
        ],
    )
    def test_every_split_draws_the_same(self, monkeypatch, name, n_episodes):
        instance = PART_INSTANCES[name]()
        spec = instance[0]
        oracle = sample_episodes_by_gather(*instance, n_episodes, 11, rep=2)
        dtype = narrowest_signed(max(spec.S, spec.m, spec.n))
        for parts in range(1, 5):
            force_parts(monkeypatch, parts)
            data = sample_episodes(*instance, n_episodes, 11, rep=2)
            for got, want in zip(data.arrays, oracle.arrays):
                assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("word", [*range(10), 2**20 + 3])
    def test_seek_from_the_start(self, word):
        sequential = stream(6, 1).bit_generator.random_raw(word + 9)
        bit_generator = stream(6, 1).bit_generator
        sampling._seek(bit_generator, 0, word)
        assert np.array_equal(bit_generator.random_raw(9), sequential[word:])

    @pytest.mark.parametrize("at", range(9))
    def test_seek_from_any_word(self, at):
        sequential = stream(6, 1).bit_generator.random_raw(at + 20)
        for word in range(at, at + 11):
            bit_generator = stream(6, 1).bit_generator
            bit_generator.random_raw(at)
            sampling._seek(bit_generator, at, word)
            assert np.array_equal(bit_generator.random_raw(9), sequential[word : word + 9])

    @pytest.mark.parametrize("lo, hi", [(0, 13), (0, 5), (3, 9), (7, 13), (12, 13)])
    def test_a_part_reads_its_own_words(self, lo, hi):
        # draw j of episode i is word j * T + i of the stream, as a double
        words = stream(6, 1).random(4 * 13).reshape(4, 13)
        draws = sampling._uniforms(6, 1, 13, lo, hi)
        for j in range(4):
            assert np.array_equal(next(draws), words[j, lo:hi])


def within(seconds, fn):
    """fn() on a thread of its own, joined with a timeout: its result, or its
    exception raised here; a call still running after `seconds` fails."""
    outcome = {}

    def run():
        try:
            outcome["result"] = fn()
        except Exception as err:  # handed to the test's thread
            outcome["error"] = err

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class TestNoThreadOutlivesACall:
    """Every part's thread is joined before sample_episodes returns or
    raises, and a part's exception reaches the caller, not a hang."""

    def test_after_a_call_in_parts(self, monkeypatch):
        force_parts(monkeypatch, 2)
        before = threading.active_count()
        within(60, lambda: sample_episodes(*markov_instance(1), 1000, seed=1))
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_a_part_that_raises(self, monkeypatch, where):
        force_parts(monkeypatch, 2)
        instance, callers, draw_rows = markov_instance(1), [], sampling._draw_rows

        def draw_or_raise(u, cum, rows, out):
            if (threading.current_thread() is callers[0]) == (where == "caller"):
                raise RuntimeError(f"the {where}'s part failed")
            draw_rows(u, cum, rows, out)

        def call():
            callers.append(threading.current_thread())
            return sample_episodes(*instance, 1000, seed=1)

        monkeypatch.setattr(sampling, "_draw_rows", draw_or_raise)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"the {where}'s part failed"):
            within(60, call)
        assert threading.active_count() == before

    def test_the_first_part_that_raises_is_raised(self, monkeypatch):
        # parts [500, 750) and [750, 1000) both fail, in either order in time
        force_parts(monkeypatch, 4)
        instance, uniforms = markov_instance(1), sampling._uniforms

        def uniforms_or_raise(seed, rep, n_episodes, lo, hi):
            if lo >= 500:
                raise RuntimeError(f"part at {lo}")
            return uniforms(seed, rep, n_episodes, lo, hi)

        monkeypatch.setattr(sampling, "_uniforms", uniforms_or_raise)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^part at 500$"):
            within(60, lambda: sample_episodes(*instance, 1000, seed=1))
        assert threading.active_count() == before

    def test_more_parts_than_cores_under_frequent_switches(self, monkeypatch):
        # 8 threads writing one block, switched every 10 us, draw the
        # dataset drawn in order
        force_parts(monkeypatch, 8)
        instance = markov_instance(2)
        oracle = sample_episodes_by_gather(*instance, 20003, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            data = within(60, lambda: sample_episodes(*instance, 20003, 3))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(data.arrays, oracle.arrays):
            assert np.array_equal(got, want)


class TestADrawTakesTheAvailableCpus:
    """A draw of 2^16 episodes on 2 available CPUs draws in two parts: the
    calling thread's and one pool thread's."""

    def test_a_draw_alone_takes_both_cpus(self, monkeypatch):
        pools, pool = [], sampling.ThreadPoolExecutor

        def counted(*args, **kwargs):
            pools.append(args)
            return pool(*args, **kwargs)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", counted)
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 2)
        sample_episodes(*markov_instance(4), 2 * sampling._MIN_PART_EPISODES, seed=5)
        assert pools == [(1,)]


@pytest.mark.bitwise
class TestLayoutIndependence:
    """EpisodeDataset arrays are (T, H) views of any strides and any integer
    dtype: a sampled dataset's int8 step-major views, C-contiguous copies of
    them and int64 copies of them must give the same results."""

    @pytest.fixture(scope="class")
    def case(self):
        spec, policies, initial = markov_instance(3)
        model = build_model(ExperimentConfig("markov", seed=3), 0)
        data = sample_episodes(spec, policies, initial, 5000, seed=3)
        assert not data.states.flags.c_contiguous and data.states.dtype == np.int8
        copies = [
            EpisodeDataset(*(np.ascontiguousarray(a) for a in data.arrays)),
            EpisodeDataset(*(a.astype(np.int64) for a in data.arrays)),
        ]
        return spec, model, data, copies

    def test_step_counts(self, case):
        spec, _, data, copies = case
        table = step_counts(data, spec.S, spec.m, spec.n)
        for copy in copies:
            assert np.array_equal(step_counts(copy, spec.S, spec.m, spec.n), table)

    def test_frequency_estimate_markov(self, case):
        spec, _, data, copies = case
        est = frequency_estimate_markov(data, spec.S, spec.m, spec.n)
        for copy in copies:
            est_copy = frequency_estimate_markov(copy, spec.S, spec.m, spec.n)
            for field in ("mu_hat", "nu_hat", "counts", "visited"):
                assert np.array_equal(getattr(est, field), getattr(est_copy, field))

    @staticmethod
    def assert_same_recovery(case, recover, policy_model=None):
        spec, model, data, copies = case
        config = InversionConfig(
            features=model.features, eta=spec.eta, gamma=spec.gamma, kappa=0.2,
            ridge_lambda=0.01, theta_norm_cap=MARKOV_THETA_CAP, policy_model=policy_model,
        )
        sample = recover(data, config)[0]
        for copy in copies:
            sample_copy = recover(copy, config)[0]
            for field in ("thetas", "q_values", "v_values", "rewards", "feasible"):
                assert np.array_equal(getattr(sample, field), getattr(sample_copy, field))

    def test_recover_rewards(self, case):
        self.assert_same_recovery(case, recover_rewards)

    def test_recover_rewards_mle(self, case):
        spec = case[0]
        policy_model = saturated_policy_model(spec.S, spec.m, spec.n)
        self.assert_same_recovery(case, recover_rewards_mle, policy_model)

    def test_mle_fit(self, case):
        spec, _, data, copies = case
        policy_model = saturated_policy_model(spec.S, spec.m, spec.n)
        for copy in copies:
            for player in ("a", "b"):
                fit, fit_copy = (
                    mle_fit(d.prefix(200), policy_model, 2, player) for d in (data, copy)
                )
                assert fit.iterations == fit_copy.iterations
                assert np.array_equal(fit.params, fit_copy.params)
                assert np.array_equal(fit.objective_trace, fit_copy.objective_trace)

    def test_write_dataset(self, case, tmp_path):
        _, _, data, copies = case
        write_dataset(data, tmp_path / "views.csv")
        for k, copy in enumerate(copies):
            write_dataset(copy, tmp_path / f"copy{k}.csv")
            assert (tmp_path / f"copy{k}.csv").read_bytes() == (tmp_path / "views.csv").read_bytes()


class TestEpisodeDatasetInput:
    """A dataset's arrays are integer arrays of one (T, H) shape; anything
    else is a ValueError when the dataset is built, not a wrong file or a
    numpy error later."""

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError, match="one shape"):
            EpisodeDataset(*(np.zeros((2, 2), dtype=np.int64),) * 3, np.zeros((2, 3), dtype=int))

    @pytest.mark.parametrize(
        "bad", [np.full((2, 2), 1.7), np.ones((2, 2), dtype=bool)], ids=["float", "bool"]
    )
    def test_a_non_integer_dtype_is_rejected(self, bad):
        zeros = np.zeros((2, 2), dtype=np.int64)
        message = f"episode arrays must be of an integer dtype, got {bad.dtype}"
        for column in range(4):
            arrays = [zeros] * 4
            arrays[column] = bad
            with pytest.raises(ValueError, match=re.escape(message)):
                EpisodeDataset(*arrays)


class TestStepCounts:
    """step_counts against a scatter-add oracle, on every array layout the
    library makes, with its range check and its pass-through of a table."""

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

    @pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.int32, np.uint32, np.uint64])
    def test_any_integer_dtype(self, dtype):
        spec, policies, initial = markov_instance(7)
        data = sample_episodes(spec, policies, initial, 2000, 7)
        self.assert_counts(
            EpisodeDataset(*(a.astype(dtype) for a in data.arrays)), spec.S, spec.m, spec.n
        )

    def test_a_table_is_passed_through_and_a_dataset_counted(self, monkeypatch):
        spec, policies, initial = markov_instance(6)
        data = sample_episodes(spec, policies, initial, 500, 6)
        passes = []

        def counting(data, *shape):
            passes.append(shape)
            return count_steps(data, *shape)

        count_steps = sampling._count_steps
        monkeypatch.setattr(sampling, "_count_steps", counting)
        table = step_counts(data, spec.S, spec.m, spec.n)
        assert step_counts(table, spec.S, spec.m, spec.n) is table
        assert len(passes) == 1
        again = step_counts(data, spec.S, spec.m, spec.n)  # nothing is kept: counted again
        assert len(passes) == 2 and again is not table and np.array_equal(again, table)
        wider = step_counts(data, spec.S + 1, spec.m, spec.n)
        assert np.array_equal(wider[:, : spec.S, :, :, : spec.S], table)
        assert wider[:, spec.S].sum() == 0 and wider[..., spec.S].sum() == 0
        with pytest.raises(ValueError):
            table[0, 0, 0, 0, 0] = 1  # read-only, like every table a dataset gives

    @pytest.mark.parametrize(
        "shape", [(6, 3, 4, 2, 2), (6, 3, 2, 4, 3), (3, 4, 2, 3), (6, 3, 4, 2, 3, 1)], ids=str
    )
    def test_a_table_of_another_shape_is_rejected(self, shape):
        # the model has 3 states and 4 x 2 actions
        message = f"a table must be shaped (H, 3, 4, 2, 3), not {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            step_counts(np.zeros(shape, dtype=np.int64), 3, 4, 2)

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

    def test_a_file_index_out_of_range_is_named_by_read_and_by_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(DATASET_HEADER + "\n0,0,0,1,1,0\n0,1,0,4,1,0\n")
        for read in (lambda: read_dataset(path, (3, 4, 2)), lambda: read_counts(path, 3, 4, 2)):
            with pytest.raises(ValueError, match="action_a must lie in 0..3"):
                read()
        data = read_dataset(path)  # no model shape: no check yet
        with pytest.raises(ValueError, match="action_a must lie in 0..3"):
            step_counts(data, 3, 4, 2)


class TestSampleCounts:
    """sample_counts: each size's table is the one its episodes of the
    dataset sample_episodes draws give alone, counted as they are drawn:
    no dataset is built, no index range-checked (a drawn index is in range)
    and no dataset counted."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"datasets": 0, "check": 0, "slices": []}
        check, count_steps = EpisodeDataset.check, sampling._count_steps
        post_init = EpisodeDataset.__post_init__

        def building(data):
            calls["datasets"] += 1
            return post_init(data)

        def checking(data, *shape):
            calls["check"] += 1
            return check(data, *shape)

        def counting(data, *shape):
            calls["slices"].append(data.n_episodes)
            return count_steps(data, *shape)

        monkeypatch.setattr(EpisodeDataset, "__post_init__", building)
        monkeypatch.setattr(EpisodeDataset, "check", checking)
        monkeypatch.setattr(sampling, "_count_steps", counting)
        return calls

    @pytest.mark.parametrize(
        "kind, sizes",
        [
            ("markov", (1, 700, 20000, 40000)),
            ("markov", (3000,)),
            ("matrix", (1, 999, 40000)),
        ],
        ids=["markov", "one", "matrix"],
    )
    def test_each_size_counts_as_its_episodes_alone(self, monkeypatch, calls, kind, sizes):
        # in chunks of 2^14 episodes, so that sizes fall inside chunks
        monkeypatch.setattr(sampling, "_CHUNK_EPISODES", 1 << 14)
        if kind == "markov":
            play, seed = markov_instance(5), 5
        else:  # sample_matrix_actions' one-step, one-state game
            mu, nu = np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.1, 0.2, 0.1])
            spec = MarkovGameSpec.one_step(np.zeros((3, 4)), 1.0)
            play, seed = (spec, StagePolicies(mu[None, None], nu[None, None]), [1.0]), 31
        shape = (play[0].S, play[0].m, play[0].n)
        tables = sample_counts(*play, sizes, seed)
        assert calls == {"datasets": 0, "check": 0, "slices": []}
        data = sample_episodes(*play, sizes[-1], seed)
        for size, table in zip(sizes, tables, strict=True):
            assert not table.flags.writeable
            alone = data.prefix(size)
            assert np.array_equal(table, sampling._count_steps(alone, *shape))
            assert np.array_equal(table, step_counts_by_add_at(alone, *shape))

    @pytest.mark.parametrize("sizes", [(), (100, 100), (200, 100), (0, 100), (-1, 100)], ids=str)
    def test_sizes_must_rise_strictly_from_one(self, sizes):
        message = f"sample sizes must rise strictly from 1, got {list(sizes)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_counts(*markov_instance(5), sizes, 5)

    def test_the_runner_holds_no_more_memory_at_more_episodes(self, monkeypatch):
        # tables drawn in chunks into three scratch rows hold no episode
        # block: the runner's peak (3.8 MB at 1e6 episodes on two parts;
        # 5.9 MB with a whole (3H + 1)-row scratch block, 44 MB when it drew
        # the dataset) does not grow with N
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 2)
        experiments.run_markov_rep(ExperimentConfig("markov", samples=(100,)), 0)  # lazy imports
        for n_samples in (10**4, 10**5, 10**6):
            config = ExperimentConfig("markov", samples=(n_samples,))
            tracemalloc.start()
            try:
                experiments.run_markov_rep(config, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8e6, n_samples


class TestPrefix:
    @pytest.mark.parametrize("t", [0, 1, 500])
    def test_the_first_t_episodes(self, t):
        data = EpisodeDataset(*(np.arange(1000).reshape(500, 2),) * 4)
        prefix = data.prefix(t)
        assert (prefix.n_episodes, prefix.horizon) == (t, 2)
        assert [a.tolist() for a in prefix.arrays] == [a[:t].tolist() for a in data.arrays]

    @pytest.mark.parametrize("t", [-1, 501, 10**6])
    def test_a_size_outside_the_dataset_is_rejected(self, t):
        data = EpisodeDataset(*(np.zeros((500, 2), dtype=np.int64),) * 4)
        with pytest.raises(ValueError, match=re.escape(f"a prefix holds 0..500 episodes, not {t}")):
            data.prefix(t)


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


HEAD = DATASET_HEADER + "\n"


def lines(records) -> str:
    """A dataset file of the records, as write_dataset lays them out."""
    return HEAD + "".join(r + "\n" for r in records)


def chain_records(t, h_len, top, seed=44):
    """The file records of t random episodes of H steps, every index below
    top, whose states form a chain."""
    rng = stream(seed)
    chain = rng.integers(0, top, size=(t, h_len + 1))
    actions = (rng.integers(0, top, size=(t, h_len)) for _ in range(2))
    data = EpisodeDataset(chain[:, :-1], *actions, chain[:, 1:])
    return dataset_file_by_join(data).decode("ascii").splitlines()[1:]


def matrix_file() -> str:
    """The file of 300 sampled one-step episodes of a 3 x 5 matrix game."""
    pair = PolicyPair(np.full(3, 1 / 3), np.full(5, 0.2))
    return dataset_file_by_join(sample_matrix_actions(pair, 300, 45)).decode("ascii")


def with_field(records, i, column, text):
    """The records with field `column` of record i spelt `text`."""
    fields = records[i].split(",")
    fields[DATASET_HEADER.split(",").index(column)] = text
    return records[:i] + [",".join(fields)] + records[i + 1 :]


SHARED = "11,1,2,3,4,5\n" * 3  # a block of three 13-byte lines of one layout


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

    @staticmethod
    def sampled_records():
        """A sampled markov dataset (40 episodes of H=6) and its file's records."""
        spec, policies, initial = markov_instance(3)
        data = sample_episodes(spec, policies, initial, 40, seed=3)
        return data, dataset_file_by_join(data).decode("ascii").splitlines()[1:]

    @pytest.mark.parametrize(
        "layout",
        [
            lambda records: "".join(r + "\n" for r in records),
            lambda records: "".join(r + "\n" for r in stream(41).permutation(records)),
            lambda records: "".join(r + "\r\n" for r in records),
            lambda records: (
                "\n# sampled at seed 3\n"
                + "".join(r + "\n\n" for r in records[:-1])
                + records[-1] + "  # the last record\n# end\n"
            ),
            lambda records: "".join(" +" + r.replace(",", " , ") + " \n" for r in records),
            lambda records: "\n".join(records),
        ],
        ids=["in_order", "shuffled", "crlf", "blank_and_comment_lines", "spaces_and_plus",
             "no_final_newline"],
    )
    def test_any_record_order_and_the_loadtxt_grammar(self, tmp_path, layout):
        # a shuffled file is sorted by its keys; the other layouts are the
        # loadtxt grammar that the reader accepts
        data, records = self.sampled_records()
        path = tmp_path / "episodes.csv"
        path.write_bytes((DATASET_HEADER + "\n" + layout(records)).encode("ascii"))
        loaded = read_dataset(path)
        for got, want in zip(loaded.arrays, data.arrays):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "layout, block_bytes, canonical",
        [
            (lambda rs: lines(rs), 40, True),
            (lambda rs: HEAD + "\n".join(rs), 40, False),
            (lambda rs: lines(chain_records(3, 40, 5)), 64, True),
            (lambda rs: lines(chain_records(1, 30, 5)), 64, True),
            (lambda rs: matrix_file(), 64, True),
            (lambda rs: matrix_file()[:-1], 64, False),
            (lambda rs: lines(",".join(f.zfill((6 * i + j) % 18 + 1)
                                       for j, f in enumerate(r.split(",")))
                              for i, r in enumerate(rs)), 1 << 16, True),
            (lambda rs: lines(chain_records(50, 3, 10**18)), 256, True),
            (lambda rs: lines(with_field(rs, 200, "action_a", "128")), 40, True),
            (lambda rs: lines(with_field(rs, 200, "action_a", "1".zfill(19))), 40, False),
            (lambda rs: lines(with_field(rs, 200, "action_a", str(2**63 - 1))), 40, False),
            (lambda rs: lines(rs) + "# end\n", 40, False),
            (lambda rs: lines([*rs[0].rsplit(",", 1)[:1], rs[0].rsplit(",", 1)[1] + "," + rs[1],
                               *rs[2:]]), 40, False),
            (lambda rs: lines(with_field(rs, 200, "action_b", "")), 40, False),
            (lambda rs: HEAD.replace("\n", " \r\n") + lines(rs)[len(HEAD) :], 40, False),
            (lambda rs: lines(rs[:200] + rs[206:212] + rs[200:206] + rs[212:]), 40, False),
            (lambda rs: lines(rs[:-1]), 40, False),
            (lambda rs: lines(rs[6:]), 40, False),
            (lambda rs: lines(with_field(rs, 200, "state", "9")), 40, True),
        ],
        ids=["a_few_records_a_block", "no_final_newline", "an_episode_longer_than_a_block",
             "one_episode", "one_step_episodes", "one_step_episodes_no_final_newline",
             "1_to_18_digits_with_leading_zeros", "18_digit_values",
             "an_index_past_int8_in_a_late_block", "a_19_digit_field", "int64_max",
             "a_comment_in_a_late_block", "a_field_moved_to_the_next_line",
             "an_empty_field", "a_header_only_strip_accepts",
             "episodes_out_of_order_in_a_late_block", "the_last_episode_cut_short",
             "no_episode_0", "a_chain_broken_in_a_late_block"],
    )
    def test_the_block_reader_reads_what_loadtxt_reads(
        self, tmp_path, monkeypatch, layout, block_bytes, canonical
    ):
        # a file as write_dataset could write it is parsed a block at a
        # time; any other goes to loadtxt: either way the values, or the
        # error, of the earlier whole-file loadtxt reader
        monkeypatch.setattr(sampling, "_READ_BLOCK_BYTES", block_bytes)
        path = tmp_path / "episodes.csv"
        path.write_bytes(layout(self.sampled_records()[1]).encode("ascii"))
        assert (sampling._read_in_order(path) is not None) is canonical

        def outcome(read):
            try:
                return read(path).arrays
            except ValueError as err:
                return repr(err)

        got, want = outcome(read_dataset), outcome(read_dataset_by_loadtxt)
        if isinstance(want, str):
            assert got == want
        else:
            for got_array, want_array in zip(got, want, strict=True):
                assert got_array.shape == want_array.shape
                assert np.array_equal(got_array, want_array)

    @staticmethod
    def parse(text, monkeypatch):
        """_parse_block's and _parse_fields' fields of the block of text, and
        whether _parse_block read it field by field."""
        per_field, calls = sampling._parse_fields, []
        monkeypatch.setattr(sampling, "_parse_fields", lambda b: calls.append(b) or per_field(b))
        block = np.frombuffer(text.encode("ascii"), np.uint8)
        return sampling._parse_block(block), per_field(block), bool(calls)

    @pytest.mark.parametrize(
        "text, by_fields",
        [
            ("4021,3,0,1,2,3\n", False),
            ("10,1,2,3,4,5\n1,10,2,3,4,5\n", True),
            # line 1 has digits in line 0's first two separator columns
            ("1,1,1,1,1,1\n111,1,1,1,1\n", True),
            # the last digit of line 0's or line 1's first field replaced
            *((SHARED[: 13 * line + 1] + c + SHARED[13 * line + 2 :], True)
              for c in "+ \r#" for line in (0, 1)),
            ("".join(",".join(str(v) for v in row) + "\n"
                     for row in stream(46).integers(10**17, 10**18, size=(4, 6))), False),
            ("1000000000000000000,0,0,0,0,0\n" * 2, True),
            ("9998,5,1,2,3,0\n9999,0,0,1,1,2\n10000,0,2,4,4,3\n10000,1,3,0,0,1\n", True),
        ],
        ids=["one_line", "one_length_two_layouts", "five_fields_in_six_fields_length",
             *(f"{name}_in_line_{line}" for name in ("plus", "space", "cr", "hash")
               for line in (0, 1)),
             "18_digit_fields", "a_19_digit_field", "episode_9999_to_10000"],
    )
    def test_the_matrix_path_reads_what_the_field_path_reads(self, monkeypatch, text, by_fields):
        # a block whose lines share one layout is read as a byte matrix; any
        # other, valid or not, field by field, so the two paths agree
        got, want, fell_back = self.parse(text, monkeypatch)
        assert fell_back is by_fields
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
            assert got.tolist() == [[int(f) for f in line.split(",")] for line in text.splitlines()]

    def test_only_blocks_where_the_episode_gains_a_digit_are_read_by_field(
        self, tmp_path, monkeypatch
    ):
        # a simulate file of 20,000 markov episodes (S=4, m=n=5, H=6): its
        # steps, states and actions take one digit each, so a block's lines
        # differ in length only where the episode index gains a digit: from
        # 9 and 99 in the first block, from 999 and from 9999 in one each
        args = ["simulate", "--kind", "markov", "--seed", "3", "--samples", "20000"]
        assert cli.main([*args, "--out", str(tmp_path)]) == 0
        parse, per_field = sampling._parse_block, sampling._parse_fields
        blocks, by_fields = [], []
        monkeypatch.setattr(sampling, "_parse_block", lambda b: blocks.append(b) or parse(b))
        monkeypatch.setattr(sampling, "_parse_fields",
                            lambda b: by_fields.append(b) or per_field(b))
        read_dataset(tmp_path / "dataset.csv")

        def episode_widths(block):
            lines = block.tobytes().splitlines()
            return {len(line.split(b",")[0]) for line in (lines[0], lines[-1])}

        crossing = [b for b in blocks if len(episode_widths(b)) > 1]
        assert len(crossing) == 3 and len(blocks) > 20
        assert [b.tobytes() for b in by_fields] == [b.tobytes() for b in crossing]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_has_no_size_to_go_by(self, monkeypatch):
        # a shell's <(...) is a pipe, whose size reads 0: the block reader's
        # body grows as the blocks come
        monkeypatch.setattr(sampling, "_READ_BLOCK_BYTES", 40)
        data, records = self.sampled_records()
        read, write = os.pipe()
        os.write(write, lines(records).encode("ascii"))
        os.close(write)
        try:
            loaded = read_dataset(f"/dev/fd/{read}")
        finally:
            os.close(read)
        for got, want in zip(loaded.arrays, data.arrays):
            assert got.dtype == np.int8 and np.array_equal(got, want)

    def test_a_shuffled_file_with_a_repeated_key(self, tmp_path):
        data, records = self.sampled_records()
        records = [records[i] for i in stream(42).permutation(len(records))]
        key = ",".join(records[1].split(",")[:2])
        records[0] = key + "," + records[0].split(",", 2)[2]
        path = tmp_path / "episodes.csv"
        path.write_text(DATASET_HEADER + "\n" + "".join(r + "\n" for r in records))
        t, h_len = data.states.shape
        grid = rf"0..{t - 1} x 0..{h_len - 1}"
        with pytest.raises(ValueError, match=rf"\(episode, step\) must be each of {grid} once"):
            read_dataset(path)

    def test_reader_memory_is_near_the_parsed_rows(self, tmp_path):
        # a file as write_dataset writes it is parsed a block at a time into
        # one int8 body of 4 bytes per 12 file bytes (a record takes 12 or
        # more), plus one block's parse: 13.4 B per record with numpy 2.4
        # (14.1 when the blocks' bodies were joined; 66.8 when loadtxt
        # parsed the whole file into int64)
        t, h_len = 20000, 6
        rng = stream(43)
        chain = rng.integers(0, 5, size=(t, h_len + 1))
        actions = (rng.integers(0, 5, size=(t, h_len)) for _ in range(2))
        write_dataset(EpisodeDataset(chain[:, :-1], *actions, chain[:, 1:]), tmp_path / "d.csv")
        tracemalloc.start()
        try:
            read_dataset(tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * t * h_len

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0,0,0,0\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    @pytest.mark.parametrize("body", ["", "\n\n", "# no episodes\n"])
    def test_a_header_alone_has_no_records(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text(DATASET_HEADER + "\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="dataset file has no records"):
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
        for read in (lambda: read_dataset(path, (2, 2, 2)), lambda: read_counts(path, 2, 2, 2)):
            with pytest.raises(ValueError, match="state must lie in 0..1"):
                read()

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

    @pytest.mark.parametrize(
        "columns, compressed",
        [
            ([np.arange(1000, 1500), stream(30).integers(0, 10, 500),
              -stream(31).integers(10, 100, 500), stream(32).integers(10**14, 10**15, 500)],
             False),
            ([np.arange(500) // 50, np.arange(500) // 10 + 5, stream(33).integers(0, 9, 500)],
             True),
            ([np.zeros(500, dtype=np.int64), stream(34).integers(0, 5, 500)], False),
            ([stream(35).integers(1, 10, 500) * np.tile([1, -1], 250)], True),
        ],
        ids=["one_width_per_column", "a_column_crossing_9_to_10", "a_column_of_zeros",
             "one_width_of_either_sign"],
    )
    def test_a_block_whose_rows_fill_every_slot_is_not_compressed(self, columns, compressed):
        # with every value of a column as wide as its widest, and negative
        # under a sign slot, the lines are the byte matrix raveled, a view;
        # a boolean index (a new array) drops the slots of shorter values
        table = np.column_stack(columns)
        lines = _format_rows(table)
        assert lines.tobytes() == rows_by_join(table)
        assert (lines.base is None) is compressed

    def test_an_episode_longer_than_a_block(self, tmp_path):
        # each block is then one episode
        h_len = _WRITE_BLOCK_ROWS + 5
        rng = stream(27)
        data = EpisodeDataset(*(rng.integers(0, 12, size=(3, h_len)) for _ in range(4)))
        assert self.written(data, tmp_path) == dataset_file_by_join(data)

    @pytest.mark.parametrize("shape", [(0, 3), (5, 0)], ids=["no_episodes", "no_steps"])
    def test_no_rows_is_the_header_alone(self, tmp_path, shape):
        data = EpisodeDataset(*(np.zeros(shape, dtype=np.int64) for _ in range(4)))
        header = (DATASET_HEADER + "\n").encode("ascii")
        assert self.written(data, tmp_path) == dataset_file_by_join(data) == header

    @pytest.mark.parametrize(
        "block_rows, at_edge",
        [(_WRITE_BLOCK_ROWS, False), (2000, True)],
        ids=["inside_a_block", "at_a_block_edge"],
    )
    def test_episode_index_gains_a_digit(self, tmp_path, monkeypatch, block_rows, at_edge):
        # with H=2 a block holds block_rows // 2 episodes, so episode 10000
        # begins a block exactly when that count divides it
        h_len, t = 2, 10050
        monkeypatch.setattr(sampling, "_WRITE_BLOCK_ROWS", block_rows)
        assert (10000 % (block_rows // h_len) == 0) is at_edge
        rng = stream(28)
        data = EpisodeDataset(*(rng.integers(0, 3, size=(t, h_len)) for _ in range(4)))
        assert self.written(data, tmp_path) == dataset_file_by_join(data)

    def test_a_sign_only_one_block_needs_and_an_all_zero_column(self, tmp_path):
        # states are negative in the second of three blocks only, and hold
        # int64's extremes there; action_a is zero throughout
        h_len = 2
        per_block = _WRITE_BLOCK_ROWS // h_len
        t = 3 * per_block
        rng = stream(29)
        states = rng.integers(0, 9, size=(t, h_len))
        states[per_block : 2 * per_block] *= -1
        extremes = np.iinfo(np.int64)
        states[per_block + 1] = extremes.min, extremes.max
        zeros = np.zeros((t, h_len), dtype=np.int64)
        data = EpisodeDataset(states, zeros, rng.integers(0, 100, size=(t, h_len)), states)
        assert self.written(data, tmp_path) == dataset_file_by_join(data)

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

"""Experiment kinds: their config, instances, runner, and the invert commands' inversions.

Four kinds share one config (`ExperimentConfig`), one builder
(`build_model`) and one runner (`run_rep`): a strongly identified matrix game
(setup1), a partially identified matrix game (setup2), a user-dimensioned
matrix game (custom), and the tabular Markov game inversion (markov).  A
matrix game is the one-step, one-state Markov game of its payoff, so every
kind has one truth solve (`backward_qre`), one stacked re-solve of all its
sample sizes and one scorer (`run_markov_rep`).

Repetition rep of seed s generates its instance from stream(s, rep).  Its
data are then drawn from a second, fresh stream(s, rep), not from where the
first one stopped, so the first data draws reuse the raw Philox words that
generated the features.  Datasets across sample sizes are nested prefixes
and the whole record set is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from invgame.inverse_markov import (
    InversionConfig,
    SoftmaxPolicyModel,
    block_weights,
    recover_rewards,
    recover_rewards_mle,
)
from invgame.inverse_matrix import (
    ConfidenceSet,
    build_confidence_set,
    min_norm_theta,
    reconstruct_payoff,
)
from invgame.markov_game import LinearMDPModel, MarkovGameSpec, backward_qre, visit_distributions
from invgame.matrix_game import FeatureModel, PolicyPair, QreConvergenceError
from invgame.metrics import qre_discrepancy_markov, reward_metric_D, reward_metric_D1
from invgame.sampling import (
    EpisodeDataset,
    frequency_estimate_matrix,
    sample_episodes,
    sample_matrix_actions,
    step_counts,
    stream,
)

SETUP1_THETA = np.array([0.8, -0.6])
SETUP2_THETA = np.array([0.8, -0.6, 0.75, 0.2, 0.5, -0.5])
MARKOV_OMEGA = np.array([0.8, -0.6])
ETA = 0.5
SETUP2_NORM_SQ_CAP = 4.0  # M
MARKOV_THETA_CAP = 10.0  # R
MARKOV_RIDGE_LAMBDA = 0.01
SETUP2_CONSTANT_COORD = 0.5  # shared last coordinate of every setup2 feature
KAPPA_SCALE = 1e3

KINDS = ("setup1", "setup2", "markov", "custom")
# The config fields whose default depends on the kind, filled in where a
# config leaves them at zero.  setup1 (4x6, d=2) and setup2 (6x6, d=6) are
# fixed instances with norm cap SETUP2_NORM_SQ_CAP, and markov fixes its
# cap to MARKOV_THETA_CAP, so those kinds read no m, n or norm_cap of theirs.
KIND_DEFAULTS = {
    "setup1": {"estimator": "least_squares"},
    "setup2": {"estimator": "confidence_set"},
    "markov": {"m": 5, "n": 5},
    "custom": {"m": 4, "n": 4, "norm_cap": 4.0, "estimator": "least_squares"},
}
# The config fields only some kinds read, and those kinds; every other field
# is read by every kind.
FIELD_KINDS = {
    "estimator": ("setup1", "setup2", "custom"),
    "m": ("custom", "markov"),
    "n": ("custom", "markov"),
    "theta": ("custom",),
    "norm_cap": ("custom",),
    "gamma": ("markov",),
    "s_len": ("markov",),
    "horizon": ("markov",),
    "policy_estimator": ("markov",),
    "ridge_lambda": ("markov",),
}


class UsageError(Exception):
    """A configuration or command line the harness cannot run."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, read alike by every command.  A field of
    KIND_DEFAULTS left at zero takes its kind's default."""

    kind: str
    seed: int = 0
    samples: tuple[int, ...] = (10**3, 10**4)
    reps: int = 20
    threads: int = 1
    out: str = "results"
    eta: float = ETA
    gamma: float = 1.0
    m: int = 0
    n: int = 0
    s_len: int = 4
    horizon: int = 6
    theta: tuple[float, ...] = ()
    norm_cap: float = 0.0
    kappa_scale: float = KAPPA_SCALE
    ridge_lambda: float = MARKOV_RIDGE_LAMBDA
    estimator: str = ""
    policy_estimator: str = "frequency"
    emit_timings: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown experiment kind {self.kind!r}")
        for name, default in KIND_DEFAULTS[self.kind].items():
            if not getattr(self, name):
                object.__setattr__(self, name, default)
        for name, ok, rule in (  # a comparison with NaN is False
            ("reps", self.reps >= 1, "at least 1"),
            ("threads", self.threads >= 1, "at least 1"),
            ("eta", 0 < self.eta < math.inf, "positive and finite"),
            ("gamma", 0 <= self.gamma <= 1, "in [0, 1]"),
            ("ridge_lambda", 0 < self.ridge_lambda < math.inf, "positive and finite"),
            ("kappa_scale", 0 <= self.kappa_scale < math.inf, "nonnegative and finite"),
        ):
            if not ok:
                raise UsageError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        samples = list(self.samples)
        if not samples or samples[0] < 1 or samples != sorted(set(samples)):
            raise UsageError("samples must be positive and strictly increasing")
        if self.kind != "markov" and self.estimator not in ("least_squares", "confidence_set"):
            raise UsageError(f"unknown estimator {self.estimator!r}")
        if self.policy_estimator not in ("frequency", "mle"):
            raise UsageError(f"unknown policy_estimator {self.policy_estimator!r}")
        if self.kind == "custom":
            if not self.theta:
                raise UsageError("custom experiments need an explicit theta")
            norm_sq = float(np.dot(self.theta, self.theta))
            # the relative slack FeatureModel allows
            if not norm_sq <= self.norm_cap * (1 + 1e-12):
                raise UsageError(
                    f"theta has squared norm {norm_sq:g}, above norm_cap {self.norm_cap:g}"
                )


@dataclass(frozen=True)
class RepRecord:
    """One (sample size, repetition) result of an experiment.

    The five metric fields are runs.csv's columns of the same names.  Each
    is None where it does not apply, and all are None when the repetition
    failed; error then says why.  The per-step fields hold H entries for
    markov and one for a matrix game, the one-step, one-state case; matrix
    records leave the reward metrics and per-step errors empty, since their
    one step is the game, and `feasible` too under least_squares.
    duration_ms is the repetition's wall time divided evenly over its
    sample sizes.
    """

    experiment: str
    sample_size: int
    rep: int
    seed: int
    theta_err: float | None = None
    payoff_err: float | None = None
    qre_tv_err: float | None = None
    reward_D: float | None = None
    reward_D1: float | None = None
    duration_ms: float = 0.0
    error: str = ""
    coverage: np.ndarray | None = None  # membership of the true parameters
    per_step_qre: np.ndarray | None = None
    per_step_reward_frob: np.ndarray | None = None
    feasible: np.ndarray | None = None  # estimate theta_h certified inside its set
    sets: tuple[ConfidenceSet, ...] = ()  # the sets behind `coverage`
    true_thetas: np.ndarray | None = None  # (H, d)


def kappa_rule(
    counts: int | np.ndarray,
    weights: np.ndarray | None = None,
    scale: float = KAPPA_SCALE,
) -> float | np.ndarray:
    """Threshold surrogate scale * sum_s w(s) / N(s) used by all
    confidence-set protocols, summed over the blocks with positive weight.

    counts holds each constraint block's sample count N(s) along the last
    axis and weights its block weight w(s) (default 1).  A matrix game is one
    block of N samples, so kappa_rule(N) is exactly scale / N.  A stepwise
    Markov system stacks one block per state, each estimated from the N_h(s)
    visits to that state: frequency sets weight visited states by 1, giving
    scale * sum_s 1 / N_h(s), and MLE sets by rho_h(s) = N_h(s) / N, giving
    scale * #visited / N.  Counts of shape (H, S) give one threshold per step.
    """
    counts = np.asarray(counts, dtype=float)
    if weights is None:
        weights = np.ones_like(counts)
    weights = np.asarray(weights, dtype=float)
    active = weights > 0
    if np.any(counts[active] <= 0):
        raise ValueError("a positively weighted block has no samples")
    per_block = np.divide(
        scale * weights, counts, out=np.zeros_like(counts), where=active
    )
    if per_block.ndim == 0:
        return float(per_block)
    return per_block.sum(axis=-1)


def setup1_model(rng: np.random.Generator) -> FeatureModel:
    """Strong identifiability: the 4x6 custom game at theta = SETUP1_THETA (d=2)."""
    return custom_model(rng, 4, 6, SETUP1_THETA, SETUP2_NORM_SQ_CAP)


def setup2_model(rng: np.random.Generator) -> FeatureModel:
    """Partial identifiability: 6x6 game, d=6, one constant feature direction.

    The last coordinate is the same for every action pair, so baseline
    differences annihilate it: the constraint matrix has a zero column and
    theta's last component is never identified, while the induced payoff
    shifts by a constant that the QRE ignores.
    """
    feats = np.empty((6, 6, 6))
    raw = rng.standard_normal((6, 6, 5))
    raw /= np.linalg.norm(raw, axis=2, keepdims=True)
    scale = np.sqrt(1.0 - SETUP2_CONSTANT_COORD**2)
    feats[:, :, :5] = scale * raw
    feats[:, :, 5] = SETUP2_CONSTANT_COORD
    return FeatureModel(feats, SETUP2_THETA, norm_sq_cap=SETUP2_NORM_SQ_CAP)


def custom_model(
    rng: np.random.Generator, m: int, n: int, theta, norm_sq_cap: float = np.inf
) -> FeatureModel:
    """User-dimensioned m x n game with unit-norm Gaussian features."""
    if min(m, n) < 2:
        raise ValueError(f"each player needs at least two actions, got {m}x{n}")
    theta = np.asarray(theta, dtype=float)
    feats = rng.standard_normal((m, n, theta.shape[0]))
    feats /= np.linalg.norm(feats, axis=2, keepdims=True)
    return FeatureModel(feats, theta, norm_sq_cap=norm_sq_cap)


def markov_model(
    rng: np.random.Generator,
    s_len: int = 4,
    m: int = 5,
    n: int = 5,
    horizon: int = 6,
    gamma: float = 1.0,
    eta: float = ETA,
) -> LinearMDPModel:
    """Exactly linear tabular instance: simplex features and probability-vector
    transition columns, so P_h = Pi_h phi is a kernel by construction; d is
    the length of MARKOV_OMEGA, the reward parameter of every step."""
    if min(m, n) < 2:
        raise ValueError(f"each player needs at least two actions, got {m}x{n}")
    if min(s_len, horizon) < 1:
        raise ValueError(f"need at least one state and one step, got S={s_len}, H={horizon}")
    feats = np.abs(rng.standard_normal((s_len, m, n, MARKOV_OMEGA.size)))
    feats /= feats.sum(axis=3, keepdims=True)
    cols = np.abs(rng.standard_normal((horizon, s_len, MARKOV_OMEGA.size)))
    cols /= cols.sum(axis=1, keepdims=True)
    omegas = np.tile(MARKOV_OMEGA, (horizon, 1))
    return LinearMDPModel(feats, omegas, cols, eta=eta, gamma=gamma)


def saturated_policy_model(s_len: int, m: int, n: int) -> SoftmaxPolicyModel:
    """One-hot softmax features per (state, action) for both players."""
    psi_a = np.eye(s_len * m).reshape(s_len, m, s_len * m)
    psi_b = np.eye(s_len * n).reshape(s_len, n, s_len * n)
    return SoftmaxPolicyModel(psi_a, psi_b)


def build_model(config: ExperimentConfig, rep: int) -> FeatureModel | LinearMDPModel:
    """Repetition rep's instance of the config's kind, from stream(seed, rep)."""
    rng = stream(config.seed, rep)
    if config.kind == "setup1":
        return setup1_model(rng)
    if config.kind == "setup2":
        return setup2_model(rng)
    if config.kind == "custom":
        return custom_model(rng, config.m, config.n, config.theta, config.norm_cap)
    return markov_model(
        rng,
        s_len=config.s_len,
        m=config.m,
        n=config.n,
        horizon=config.horizon,
        gamma=config.gamma,
        eta=config.eta,
    )


def _instance(config: ExperimentConfig, rep: int, n_samples: int):
    """Repetition rep's model, its tabular game (a matrix game is the
    one-step, one-state game of its payoff), the game's true policies and
    values, and n_samples episodes of QRE play from a uniform start; a
    matrix game's samples are single-step episodes at state 0."""
    model = build_model(config, rep)
    if config.kind == "markov":
        spec = model.to_tabular()
    else:
        payoff = reconstruct_payoff(model.theta, model.features)[None, None]
        spec = MarkovGameSpec(payoff, np.ones(payoff.shape + (1,)), config.eta)
    truth, values = backward_qre(spec, tol=1e-12)
    if config.kind == "markov":
        initial = np.full(spec.S, 1.0 / spec.S)
        data = sample_episodes(spec, truth, initial, n_samples, config.seed, rep)
    else:
        pair = PolicyPair(truth.mu[0, 0], truth.nu[0, 0])
        data = sample_matrix_actions(pair, n_samples, config.seed, rep)
    return model, spec, (truth, values), data


def sample_dataset(config: ExperimentConfig, rep: int, n_samples: int) -> EpisodeDataset:
    """n_samples episodes of QRE play on repetition rep's instance."""
    return _instance(config, rep, n_samples)[3]


def run_rep(config: ExperimentConfig, rep: int) -> list[RepRecord]:
    """Repetition rep's records, one per sample size.

    An exception fails the whole repetition: each of its records then holds
    the error and no metrics, and the experiment goes on.
    """
    started = time.perf_counter()
    try:
        records = run_markov_rep(config, rep)
    except Exception as err:
        records = [
            RepRecord(config.kind, n, rep, config.seed, error=repr(err))
            for n in config.samples
        ]
    duration = 1000 * (time.perf_counter() - started) / len(records)
    return [replace(record, duration_ms=duration) for record in records]


def _matrix_estimate(config: ExperimentConfig, model: FeatureModel, data: EpisodeDataset):
    """(theta_hat, route, rank, cset, feasible) of a matrix dataset's S=1
    system at its frequency estimate, cset its set at kappa_rule(N), whose
    one SVD gives the rank: the set's min-norm member under confidence_set
    (feasible: it is certified), else X^+ y (feasible None).  route names
    the estimator and, under least_squares, the rank: X^+ y is the
    least-squares solution at full rank and the min-norm one below it."""
    est = frequency_estimate_matrix(data, *model.features.shape[:2])
    kappa = kappa_rule(data.n_episodes, scale=config.kappa_scale)
    cset = build_confidence_set(est, model.features, config.eta, kappa, model.norm_sq_cap)
    if config.estimator == "confidence_set":
        theta_hat, feasible = cset.min_norm_member()
        return theta_hat, "min_norm_member", cset.rank, cset, feasible
    route = "least_squares" if cset.rank == cset.X.shape[1] else "min_norm_theta"
    return min_norm_theta(cset), route, cset.rank, cset, None


def invert_matrix(config: ExperimentConfig, model: FeatureModel, data: EpisodeDataset) -> dict:
    """invert-matrix's result: the estimate the experiment runner makes from
    the same dataset under the config's estimator (see _matrix_estimate).
    feasible is null under least_squares."""
    theta_hat, route, rank, cset, feasible = _matrix_estimate(config, model, data)
    return {
        "theta_hat": theta_hat.tolist(),
        "route": route,
        "rank": rank,
        "full_rank": rank == theta_hat.size,
        "kappa": cset.kappa,
        "residual_sq": cset.residual_sq(theta_hat),
        "payoff_hat": reconstruct_payoff(theta_hat, model.features).tolist(),
        "feasible": None if feasible is None else bool(feasible),
    }


def _inversion(
    config: ExperimentConfig,
    model: LinearMDPModel,
    kappa: float | np.ndarray,
    policy_model: SoftmaxPolicyModel | None = None,
) -> InversionConfig:
    """The reward recovery's inputs for a markov instance at threshold kappa."""
    return InversionConfig(
        features=model.features,
        eta=config.eta,
        gamma=config.gamma,
        kappa=kappa,
        ridge_lambda=config.ridge_lambda,
        theta_norm_cap=MARKOV_THETA_CAP,
        policy_model=policy_model,
    )


def invert_markov(config: ExperimentConfig, model: LinearMDPModel, data: EpisodeDataset) -> dict:
    """invert-markov's result: the min-norm trajectory of recover_rewards at
    the scalar threshold kappa_rule(N)."""
    inversion = _inversion(config, model, kappa_rule(data.n_episodes, scale=config.kappa_scale))
    sample = recover_rewards(data, inversion)[0]
    return {
        "theta_hat": sample.thetas.tolist(),
        "feasible": sample.feasible.tolist(),
        "kappa": inversion.kappa,
        "rewards": sample.rewards.tolist(),
    }


def run_markov_rep(config: ExperimentConfig, rep: int) -> list[RepRecord]:
    """Repetition rep's records, one per sample size, for every kind: a
    matrix game runs as the one-step, one-state Markov game of its payoff.

    A markov estimate is a reward recovery.  policy_estimator "frequency"
    uses per-state frequency policies; "mle" uses saturated one-hot softmax
    MLE policies with empirical visit-probability weights.  Each step's
    threshold is kappa_rule over that step's state visit counts, with the
    block weights of the set it bounds.  A matrix estimate is
    _matrix_estimate's, its payoff the step's Q and reward.  Coverage is
    measured on the sets the estimates drew their parameters from.  The
    rewards of all sample sizes are re-solved together in one backward pass.
    """
    model, spec, (truth, values), data = _instance(config, rep, max(config.samples))
    state_dists, _ = visit_distributions(spec, truth, np.full(spec.S, 1.0 / spec.S))
    markov = config.kind == "markov"
    if markov:
        true_thetas = model.q_params(values.V)
        mle = config.policy_estimator == "mle"
        policy_model = saturated_policy_model(spec.S, spec.m, spec.n) if mle else None
        recover = recover_rewards_mle if mle else recover_rewards

        def estimate(subset):  # (thetas, Q, rewards, sets, feasible), per step
            counts = step_counts(subset, spec.S, spec.m, spec.n).sum(axis=(2, 3, 4))
            kappa = kappa_rule(counts, block_weights(counts, mle), config.kappa_scale)
            sample = recover(subset, _inversion(config, model, kappa, policy_model))[0]
            return sample.thetas, sample.q_values, sample.rewards, sample.sets, sample.feasible
    else:
        true_thetas = model.theta[None]

        def estimate(subset):
            theta_hat, _, _, cset, feasible = _matrix_estimate(config, model, subset)
            q_hat = reconstruct_payoff(theta_hat, model.features)[None, None]
            feasible = None if feasible is None else np.array([feasible])
            return theta_hat[None], q_hat, q_hat, (cset,), feasible

    estimates = []
    for n_samples in config.samples:
        try:
            estimates.append(estimate(data.prefix(n_samples)))
        except Exception as err:
            raise RuntimeError(f"estimate failed at N={n_samples}: {err!r}") from err
    rewards = np.stack([estimated[2] for estimated in estimates])
    try:
        qre_errs, per_step_qres = qre_discrepancy_markov(spec, rewards, truth, state_dists)
    except QreConvergenceError as err:  # failed entries are (size index, state)
        n_samples = config.samples[err.failed[0][0]]
        raise RuntimeError(f"re-solve failed at N={n_samples}: {err!r}") from err

    def per_step(diff):  # the norm of each step's slice
        return np.linalg.norm(diff.reshape(spec.H, -1), axis=1)

    records = []
    for k, (n_samples, estimated) in enumerate(zip(config.samples, estimates)):
        thetas, q_values, rewards, sets, feasible = estimated
        # a matrix game's one step is the game: no reward or per-step errors
        records.append(
            RepRecord(
                config.kind, n_samples, rep, config.seed,
                theta_err=float(per_step(thetas - true_thetas).mean()),
                payoff_err=float(per_step(q_values - values.Q).mean()),
                qre_tv_err=float(qre_errs[k]),
                reward_D=reward_metric_D(rewards, spec.rewards) if markov else None,
                reward_D1=reward_metric_D1(rewards, spec.rewards, state_dists) if markov else None,
                coverage=np.array([cset.contains(theta) for cset, theta in zip(sets, true_thetas)]),
                per_step_qre=per_step_qres[k] if markov else None,
                per_step_reward_frob=per_step(rewards - spec.rewards) if markov else None,
                feasible=feasible, sets=sets, true_thetas=true_thetas,
            )
        )
    return records

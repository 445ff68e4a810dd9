"""Experiment kinds: their config, instances, runner, and estimates.

Four kinds share one config (`ExperimentConfig`), one builder
(`build_model`) and one runner (`run_rep`): a strongly identified matrix game
(setup1), a partially identified matrix game (setup2), a user-dimensioned
matrix game (custom), and the tabular Markov game inversion (markov).  A
matrix game is the one-step, one-state Markov game of its payoff, so every
kind has one truth solve (`backward_qre`), one draw loop (`sample_counts`
for the runner, `sample_episodes` for simulate), one stacked re-solve of
all its sample sizes and one scorer (`run_markov_rep`).  The runner and
each invert command make one estimate per kind family: `_markov_estimate`,
one stacked reward recovery of all the sizes given, or `_matrix_estimate`.
`ExperimentConfig` alone decides whether a config runs: under KIND_FIELDS,
which kinds read a field and with what default, every config it accepts
builds its model.

Repetition rep of seed s generates its instance from stream(s, rep).  Its
data are then drawn from a second, fresh stream(s, rep), not from where the
first one stopped, so the first data draws reuse the raw Philox words that
generated the features.  Datasets across sample sizes are nested prefixes
of one dataset, whose count tables are counted as it is drawn, the
dataset itself never held (sample_counts), and recovered in one stacked
pass (recover_rewards on the list of tables; under MLE policies, fitted
in one lockstep loop, fit_every_step), each size bit for bit as it would
be alone; the whole record set is reproducible bit-for-bit.
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
from invgame.matrix_game import CAP_SLACK, FeatureModel, QreConvergenceError
from invgame.metrics import qre_discrepancy_markov, reward_metric_D, reward_metric_D1
from invgame.sampling import (
    EpisodeDataset,
    frequency_estimate_matrix,
    sample_counts,
    sample_episodes,
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
# The config fields only some kinds read, each with the default of every kind
# that reads it, filled in where a config leaves the field out (None); every
# other field is read by every kind.  custom's theta has no default: its
# config must give one.  setup1 (4x6, d=2) and setup2 (6x6, d=6) are fixed
# instances with norm cap SETUP2_NORM_SQ_CAP, and markov fixes its cap to
# MARKOV_THETA_CAP, so those kinds read no m, n or norm_cap of theirs.
KIND_FIELDS = {
    "estimator": dict(setup1="least_squares", setup2="confidence_set", custom="least_squares"),
    "m": dict(custom=4, markov=5),
    "n": dict(custom=4, markov=5),
    "theta": dict(custom=None),
    "norm_cap": dict(custom=4.0),
    "gamma": dict(markov=1.0),
    "s_len": dict(markov=4),
    "horizon": dict(markov=6),
    "policy_estimator": dict(markov="frequency"),
    "ridge_lambda": dict(markov=MARKOV_RIDGE_LAMBDA),
}


class UsageError(Exception):
    """A configuration or command line the harness cannot run."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, read alike by every command.  Each value
    given is range-checked; then a field of KIND_FIELDS left out (None) takes
    its kind's default, and one given to a kind that does not read it is a
    usage error, as is a model shape no builder takes."""

    kind: str
    seed: int = 0
    samples: tuple[int, ...] = (10**3, 10**4)
    reps: int = 20
    out: str = "results"
    eta: float = ETA
    gamma: float | None = None
    m: int | None = None
    n: int | None = None
    s_len: int | None = None
    horizon: int | None = None
    theta: tuple[float, ...] | None = None
    norm_cap: float | None = None
    kappa_scale: float = KAPPA_SCALE
    ridge_lambda: float | None = None
    estimator: str | None = None
    policy_estimator: str | None = None
    emit_timings: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown experiment kind {self.kind!r}")
        for name, ok, rule in (  # a comparison with NaN is False
            ("seed", self.seed >= 0, "nonnegative"),
            ("reps", self.reps >= 1, "at least 1"),
            ("eta", 0 < self.eta < math.inf, "positive and finite"),
            ("gamma", self.gamma is None or 0 <= self.gamma <= 1, "in [0, 1]"),
            ("ridge_lambda", self.ridge_lambda is None or 0 < self.ridge_lambda < math.inf,
             "positive and finite"),
            ("kappa_scale", 0 <= self.kappa_scale < math.inf, "nonnegative and finite"),
            ("norm_cap", self.norm_cap is None or self.norm_cap > 0, "positive"),
            ("theta", self.theta is None or np.isfinite(self.theta).all(), "finite"),
        ):
            if not ok:
                raise UsageError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        samples = list(self.samples)
        if not samples or samples[0] < 1 or samples != sorted(set(samples)):
            raise UsageError("samples must be positive and strictly increasing")
        if self.estimator not in (None, "least_squares", "confidence_set"):
            raise UsageError(f"unknown estimator {self.estimator!r}")
        if self.policy_estimator not in (None, "frequency", "mle"):
            raise UsageError(f"unknown policy_estimator {self.policy_estimator!r}")
        for name, defaults in KIND_FIELDS.items():
            if self.kind not in defaults:
                if getattr(self, name) is not None:
                    raise UsageError(f"kind {self.kind!r} does not read config field {name!r}")
            elif getattr(self, name) is None:
                object.__setattr__(self, name, defaults[self.kind])
        if self.m is not None and min(self.m, self.n) < 2:
            raise UsageError(f"a {self.kind} model needs m, n >= 2, got {self.m}x{self.n}")
        if self.kind == "markov" and min(self.s_len, self.horizon) < 1:
            raise UsageError(
                f"a markov model needs S, H >= 1, got S={self.s_len}, H={self.horizon}"
            )
        if self.kind == "custom":
            if not self.theta:
                raise UsageError("custom experiments need an explicit theta")
            norm_sq = float(np.dot(self.theta, self.theta))
            if not norm_sq <= self.norm_cap * (1 + CAP_SLACK):
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


def _instance(config: ExperimentConfig, rep: int, sample, size):
    """Repetition rep's model, its tabular game (a matrix game is the
    one-step, one-state game of its payoff), the game's true policies and
    values, and sample's draw of QRE play from a uniform start at size:
    sample_episodes' dataset, or sample_counts' tables."""
    model = build_model(config, rep)
    if config.kind == "markov":
        spec = model.to_tabular()
    else:
        spec = MarkovGameSpec.one_step(reconstruct_payoff(model.theta, model.features), config.eta)
    truth, values = backward_qre(spec)
    drawn = sample(spec, truth, np.full(spec.S, 1.0 / spec.S), size, config.seed, rep)
    return model, spec, (truth, values), drawn


def sample_dataset(config: ExperimentConfig, rep: int, n_samples: int) -> EpisodeDataset:
    """n_samples episodes of QRE play on repetition rep's instance."""
    return _instance(config, rep, sample_episodes, n_samples)[3]


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


def _thresholds(config: ExperimentConfig, table: np.ndarray) -> np.ndarray:
    """Each step's kappa_rule over the count table's state visit counts
    N_h(s), with the block weights of the set it bounds: for a matrix game's
    one step at one state, exactly kappa_rule(N)."""
    counts = table.sum(axis=(2, 3, 4))
    mle = config.policy_estimator == "mle"
    return kappa_rule(counts, block_weights(counts, mle), config.kappa_scale)


def _matrix_estimate(config: ExperimentConfig, model: FeatureModel, table: np.ndarray, kappa):
    """(thetas, Q, rewards, sets, feasible) of a matrix count table's one step,
    from its S=1 set at the frequency estimate and kappa's one threshold:
    the set's min-norm member under confidence_set (feasible: it is
    certified), else X^+ y from the set's one SVD (feasible None).  Q and
    the reward are the estimate's payoff."""
    est = frequency_estimate_matrix(table, *model.features.shape[:2])
    cset = build_confidence_set(est, model.features, config.eta, kappa.item(), model.norm_sq_cap)
    if config.estimator == "confidence_set":
        theta_hat, certified = cset.min_norm_member()
        feasible = np.array([certified])
    else:
        theta_hat, feasible = min_norm_theta(cset), None
    q_hat = reconstruct_payoff(theta_hat, model.features)[None, None]
    return theta_hat[None], q_hat, q_hat, (cset,), feasible


def invert_matrix(config: ExperimentConfig, model: FeatureModel, table: np.ndarray) -> dict:
    """invert-matrix's result: the runner's estimate of a dataset's count
    table (_matrix_estimate at _thresholds).  route names the estimator and,
    under least_squares, the rank: X^+ y is the least-squares solution at
    full rank and the min-norm one below it.  feasible is null under least_squares."""
    kappa = _thresholds(config, table)
    (theta_hat,), q_hat, _, (cset,), feasible = _matrix_estimate(config, model, table, kappa)
    full_rank = cset.rank == theta_hat.size
    if config.estimator == "confidence_set":
        route = "min_norm_member"
    else:
        route = "least_squares" if full_rank else "min_norm_theta"
    return {
        "theta_hat": theta_hat.tolist(),
        "route": route,
        "rank": cset.rank,
        "full_rank": full_rank,
        "kappa": cset.kappa,
        "residual_sq": cset.residual_sq(theta_hat),
        "payoff_hat": q_hat[0, 0].tolist(),
        "feasible": None if feasible is None else bool(feasible[0]),
    }


def _markov_estimate(config: ExperimentConfig, model: LinearMDPModel, tables: list, kappa):
    """Each count table's (thetas, Q, rewards, sets, feasible), per step, from
    one reward recovery of the list at threshold kappa (a scalar, one per
    step, or one per table and step): recover_rewards, or
    recover_rewards_mle on saturated one-hot softmax MLE policies under
    policy_estimator "mle"."""
    mle = config.policy_estimator == "mle"
    policy_model = saturated_policy_model(*model.features.shape[:3]) if mle else None
    inversion = InversionConfig(
        features=model.features, eta=config.eta, gamma=config.gamma, kappa=kappa,
        ridge_lambda=config.ridge_lambda, theta_norm_cap=MARKOV_THETA_CAP,
        policy_model=policy_model,
    )
    samples = (recover_rewards_mle if mle else recover_rewards)(tables, inversion)
    return [(s.thetas, s.q_values, s.rewards, s.sets, s.feasible) for s in samples]


def invert_markov(config: ExperimentConfig, model: LinearMDPModel, table: np.ndarray) -> dict:
    """invert-markov's result: the runner's reward recovery (_markov_estimate)
    of a dataset's count table at the scalar threshold kappa_rule(N)."""
    kappa = kappa_rule(table[0].sum(), scale=config.kappa_scale)
    thetas, _, rewards, _, feasible = _markov_estimate(config, model, [table], kappa)[0]
    return {
        "theta_hat": thetas.tolist(),
        "feasible": feasible.tolist(),
        "kappa": kappa,
        "rewards": rewards.tolist(),
    }


def run_markov_rep(config: ExperimentConfig, rep: int) -> list[RepRecord]:
    """Repetition rep's records, one per sample size, for every kind: a
    matrix game runs as the one-step, one-state Markov game of its payoff.

    Each size's estimate is its kind family's, the one its invert command
    makes from that size's count table (_markov_estimate, or
    _matrix_estimate with the payoff as the step's Q and reward), at each
    step's threshold from _thresholds; markov recovers every size's rewards
    in one stacked _markov_estimate call.  A failed estimate names its size,
    or every size when the stacked recovery cannot tell which one failed.
    Coverage is measured on the sets the estimates drew their parameters
    from.  The rewards of all sample sizes are re-solved together in one
    backward pass.
    """
    model, spec, (truth, values), tables = _instance(config, rep, sample_counts, config.samples)
    state_dists, _ = visit_distributions(spec, truth, np.full(spec.S, 1.0 / spec.S))
    markov = config.kind == "markov"
    true_thetas = model.q_params(values.V) if markov else model.theta[None]
    kappas = [_thresholds(config, table) for table in tables]
    estimates = []
    try:
        if markov:  # every size's rewards in one stacked recovery
            estimates = _markov_estimate(config, model, tables, np.stack(kappas))
        else:
            for table, kappa in zip(tables, kappas):
                estimates.append(_matrix_estimate(config, model, table, kappa))
    except Exception as err:  # the size of the table that failed, else every size
        k = getattr(err, "table", None if markov else len(estimates))
        sizes = config.samples if k is None else config.samples[k : k + 1]
        raise RuntimeError(f"estimate failed at N={','.join(map(str, sizes))}: {err!r}") from err
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

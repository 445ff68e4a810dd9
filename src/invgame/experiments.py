"""Benchmark instances and per-repetition runners for the three protocols:
a strongly identified matrix game (setup1), a partially identified matrix
game (setup2), and the tabular Markov game inversion.

Per repetition, one Philox stream derived from (seed, rep) drives model
generation first and data sampling second, so datasets across sample sizes
are nested prefixes and the whole record set is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from invgame.inverse_markov import (
    InversionConfig,
    SoftmaxPolicyModel,
    recover_rewards,
    recover_rewards_mle,
)
from invgame.inverse_matrix import (
    ConfidenceSet,
    PartialIdentifiabilityError,
    build_confidence_set,
    empirical_system,
    least_squares_theta,
    min_norm_theta,
    reconstruct_payoff,
)
from invgame.markov_game import LinearMDPModel, backward_qre, visit_distributions
from invgame.matrix_game import FeatureModel, MatrixGameSpec, solve_qre
from invgame.metrics import (
    ErrorReport,
    qre_discrepancy,
    qre_discrepancy_markov,
    reward_metric_D,
    reward_metric_D1,
)
from invgame.sampling import (
    frequency_estimate_matrix,
    sample_episodes,
    sample_matrix_actions,
    state_visit_counts,
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
    """Strong identifiability: 4x6 game, d=2, unit-norm Gaussian features."""
    feats = rng.standard_normal((4, 6, 2))
    feats /= np.linalg.norm(feats, axis=2, keepdims=True)
    return FeatureModel(feats, SETUP1_THETA, norm_sq_cap=SETUP2_NORM_SQ_CAP)


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
    dim: int = 2,
    gamma: float = 1.0,
) -> LinearMDPModel:
    """Exactly linear tabular instance: simplex features and probability-vector
    transition columns, so P_h = Pi_h phi is a kernel by construction."""
    if dim != MARKOV_OMEGA.shape[0]:
        raise ValueError(
            f"markov instances fix the reward parameter to {MARKOV_OMEGA}; "
            f"dim must be {MARKOV_OMEGA.shape[0]}"
        )
    feats = np.abs(rng.standard_normal((s_len, m, n, dim)))
    feats /= feats.sum(axis=3, keepdims=True)
    cols = np.abs(rng.standard_normal((horizon, s_len, dim)))
    cols /= cols.sum(axis=1, keepdims=True)
    omegas = np.tile(MARKOV_OMEGA, (horizon, 1))
    return LinearMDPModel(
        feats, omegas, cols, eta=ETA, gamma=gamma, theta_norm_cap=MARKOV_THETA_CAP
    )


def full_rank_oracle_model(
    seed: int,
    s_len: int = 4,
    m: int = 5,
    n: int = 5,
    horizon: int = 6,
    gamma: float = 1.0,
):
    """Markov instance whose stepwise systems are full rank (d=2).

    Simplex features cannot do this: they sum to one, so the all-ones
    direction is constant and baseline differences annihilate it.  Here the
    features are generic unit-norm Gaussians (differences span R^2) and the
    transition kernels are built backward as two-point mixtures between the
    extreme continuation values, chosen so the expected continuation is
    exactly phi' w_h.  The whole Q hierarchy is then exactly linear with
    theta_h = omega + gamma * w_h.

    Returns (spec, features, theta_table) where theta_table has shape (H, 2).
    The construction needs every stage value vector to straddle zero; streams
    spawned from `seed` are scanned in order until one works, so the output
    is deterministic in `seed`.
    """
    from invgame.markov_game import MarkovGameSpec
    from invgame.matrix_game import solve_qre_batch, stage_values

    d = 2
    for attempt in range(64):
        rng = stream(seed, attempt)
        feats = rng.standard_normal((s_len, m, n, d))
        feats /= np.linalg.norm(feats, axis=3, keepdims=True)
        rewards = feats @ MARKOV_OMEGA
        thetas = np.zeros((horizon, d))
        transition = np.zeros((horizon, s_len, m, n, s_len))
        q_next_value = np.zeros(s_len)
        ok = True
        for h in range(horizon - 1, -1, -1):
            if h == horizon - 1:
                w = np.zeros(d)
            else:
                v = q_next_value
                lo, hi = v.min(), v.max()
                if not (lo < 0 < hi):
                    ok = False
                    break
                # scale w so every target phi' w stays strictly inside [lo, hi]
                w = rng.standard_normal(d)
                w *= 0.9 * min(-lo, hi) / np.abs(feats @ w).max()
                alpha = (hi - feats @ w) / (hi - lo)  # weight on the argmin state
                transition[h, :, :, :, int(np.argmin(v))] += alpha
                transition[h, :, :, :, int(np.argmax(v))] += 1.0 - alpha
            thetas[h] = MARKOV_OMEGA + gamma * w
            stage_q = feats @ thetas[h]
            mu, nu = solve_qre_batch(stage_q, ETA, tol=1e-13)
            q_next_value = stage_values(stage_q, mu, nu, ETA)
        if not ok:
            continue
        # last step has no continuation: give it any valid kernel
        transition[horizon - 1, :, :, :, :] = 1.0 / s_len
        reward_table = np.broadcast_to(
            rewards, (horizon, s_len, m, n)
        ).copy()
        spec = MarkovGameSpec(reward_table, transition, eta=ETA, gamma=gamma)
        return spec, feats, thetas
    raise RuntimeError("no valid full-rank oracle instance found")


def saturated_policy_model(s_len: int, m: int, n: int) -> SoftmaxPolicyModel:
    """One-hot softmax features per (state, action) for both players."""
    psi_a = np.eye(s_len * m).reshape(s_len, m, s_len * m)
    psi_b = np.eye(s_len * n).reshape(s_len, n, s_len * n)
    return SoftmaxPolicyModel(psi_a, psi_b)


@dataclass(frozen=True)
class MatrixRepRecord:
    n_samples: int
    rep: int
    report: ErrorReport
    covered: bool | None = None  # true theta inside the confidence set


@dataclass(frozen=True)
class MarkovRepRecord:
    n_episodes: int
    rep: int
    report: ErrorReport
    coverage: np.ndarray  # (H,) membership of the true Q-parameters
    per_step_qre: np.ndarray  # (H,)
    per_step_reward_frob: np.ndarray  # (H,)
    feasible: np.ndarray  # (H,) recovered theta_h certified inside its set
    sets: tuple[ConfidenceSet, ...]  # (H,) the recovery's sets behind `coverage`
    true_thetas: np.ndarray  # (H, d)


def _run_matrix_rep(
    seed: int,
    rep: int,
    sample_sizes: list[int],
    model: FeatureModel,
    estimator: str,
    eta: float = ETA,
    norm_sq_cap: float = SETUP2_NORM_SQ_CAP,
    kappa_scale: float = KAPPA_SCALE,
) -> list[MatrixRepRecord]:
    """Least-squares or confidence-set estimation on one matrix instance."""
    payoff = reconstruct_payoff(model.theta, model.features)
    truth = solve_qre(MatrixGameSpec(payoff, eta), tol=1e-12)
    data = sample_matrix_actions(truth, max(sample_sizes), seed, rep)
    records = []
    for n_samples in sample_sizes:
        est = frequency_estimate_matrix(data.prefix(n_samples), *payoff.shape)
        covered = None
        if estimator == "least_squares":
            system = empirical_system(est, model.features, eta)
            try:
                theta_hat = least_squares_theta(system)
            except PartialIdentifiabilityError:
                theta_hat = min_norm_theta(system)
        elif estimator == "confidence_set":
            kappa = kappa_rule(n_samples, scale=kappa_scale)
            cset = build_confidence_set(est, model.features, eta, kappa, norm_sq_cap)
            theta_hat, _ = cset.min_norm_member()
            covered = cset.contains(model.theta)
        else:
            raise ValueError(f"unknown estimator {estimator!r}")
        q_hat = reconstruct_payoff(theta_hat, model.features)
        report = ErrorReport(
            theta_error=float(np.linalg.norm(theta_hat - model.theta)),
            payoff_error=float(np.linalg.norm(q_hat - payoff)),
            qre_tv_error=qre_discrepancy(q_hat, truth, eta),
        )
        records.append(MatrixRepRecord(n_samples, rep, report, covered=covered))
    return records


def run_setup1_rep(seed: int, rep: int, sample_sizes: list[int]) -> list[MatrixRepRecord]:
    """Least-squares estimation on the strongly identified instance."""
    model = setup1_model(stream(seed, rep))
    return _run_matrix_rep(seed, rep, sample_sizes, model, "least_squares")


def run_setup2_rep(seed: int, rep: int, sample_sizes: list[int]) -> list[MatrixRepRecord]:
    """Confidence-set estimation on the partially identified instance."""
    model = setup2_model(stream(seed, rep))
    return _run_matrix_rep(seed, rep, sample_sizes, model, "confidence_set")


def run_custom_rep(
    seed: int,
    rep: int,
    sample_sizes: list[int],
    m: int,
    n: int,
    theta: np.ndarray,
    eta: float = ETA,
    norm_sq_cap: float = SETUP2_NORM_SQ_CAP,
    kappa_scale: float = KAPPA_SCALE,
    estimator: str = "least_squares",
) -> list[MatrixRepRecord]:
    """User-dimensioned matrix-game experiment with unit-norm random features."""
    model = custom_model(stream(seed, rep), m, n, theta)
    return _run_matrix_rep(
        seed, rep, sample_sizes, model, estimator, eta, norm_sq_cap, kappa_scale
    )


def run_markov_rep(
    seed: int,
    rep: int,
    episode_counts: list[int],
    gamma: float = 1.0,
    s_len: int = 4,
    m: int = 5,
    n: int = 5,
    horizon: int = 6,
    dim: int = 2,
    estimator: str = "frequency",
    kappa_scale: float = KAPPA_SCALE,
) -> list[MarkovRepRecord]:
    """Reward recovery on the tabular Markov instance.

    estimator "frequency" uses per-state frequency policies; "mle" uses
    saturated one-hot softmax MLE policies with empirical visit-probability
    weights.  Each step's threshold is kappa_rule over that step's state
    visit counts, with the block weights of the set it bounds.  Coverage is
    measured on the sets the recovery drew its parameters from: frequency
    sets, or the rho-weighted MLE sets.  The recovered rewards of all sample
    sizes are re-solved together in one backward pass.
    """
    rng = stream(seed, rep)
    model = markov_model(
        rng, s_len=s_len, m=m, n=n, horizon=horizon, dim=dim, gamma=gamma
    )
    spec = model.to_tabular()
    truth, values = backward_qre(spec, tol=1e-12)
    true_thetas = model.q_params(values.V)
    initial = np.full(spec.S, 1.0 / spec.S)
    state_dists, _ = visit_distributions(spec, truth, initial)
    data = sample_episodes(spec, truth, initial, max(episode_counts), seed, rep)
    policy_model = None
    if estimator == "mle":
        policy_model = saturated_policy_model(spec.S, spec.m, spec.n)
    elif estimator != "frequency":
        raise ValueError(f"estimator must be 'frequency' or 'mle', got {estimator}")
    samples = []
    for n_episodes in episode_counts:
        subset = data.prefix(n_episodes)
        counts = state_visit_counts(subset, spec.S)
        config = InversionConfig(
            features=model.features,
            eta=ETA,
            gamma=gamma,
            kappa=kappa_rule(counts, counts > 0, kappa_scale),
            ridge_lambda=MARKOV_RIDGE_LAMBDA,
            theta_norm_cap=MARKOV_THETA_CAP,
            policy_model=policy_model,
        )
        if estimator == "mle":
            mle_kappa = kappa_rule(counts, counts / n_episodes, kappa_scale)
            sample = recover_rewards_mle(subset, replace(config, kappa=mle_kappa))[0]
        else:
            sample = recover_rewards(subset, config)[0]
        samples.append(sample)
    qre_errs, per_step_qres = qre_discrepancy_markov(
        spec, np.stack([sample.rewards for sample in samples]), truth, state_dists
    )
    records = []
    for k, (n_episodes, sample) in enumerate(zip(episode_counts, samples)):
        coverage = np.array(
            [cset.contains(theta) for cset, theta in zip(sample.sets, true_thetas)]
        )
        per_step_frob = np.linalg.norm(
            (sample.rewards - spec.rewards).reshape(spec.H, -1), axis=1
        )
        report = ErrorReport(
            theta_error=float(
                np.linalg.norm(sample.thetas - true_thetas, axis=1).mean()
            ),
            payoff_error=float(
                np.linalg.norm(
                    (sample.q_values - values.Q).reshape(spec.H, -1), axis=1
                ).mean()
            ),
            qre_tv_error=float(qre_errs[k]),
            reward_D=reward_metric_D(sample.rewards, spec.rewards),
            reward_D1=reward_metric_D1(sample.rewards, spec.rewards, state_dists),
        )
        records.append(
            MarkovRepRecord(
                n_episodes, rep, report, coverage, per_step_qres[k], per_step_frob,
                feasible=sample.feasible, sets=sample.sets, true_thetas=true_thetas,
            )
        )
    return records


def loglog_slope(sample_sizes: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares slope of log(error) against log(N)."""
    x = np.log(np.asarray(sample_sizes, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    x_centered = x - x.mean()
    return float((x_centered @ (y - y.mean())) / (x_centered @ x_centered))

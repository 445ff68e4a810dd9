"""Stepwise inversion for Markov games: per-step confidence sets over
Q-function parameters, ridge-regression transition estimates, Bellman plug-in
reward recovery, and MLE-based softmax policy estimation.  The constraint
builder is `inverse_matrix.build_stepwise_system`, re-exported here.

Two drivers are provided: `recover_rewards` (frequency-estimated policies,
equal state weights) and `recover_rewards_mle` (softmax-MLE policies with
empirical visit-probability weights).  They differ only in their estimates
and run the same backward pass: confidence set -> Q and V estimates -> ridge
transition -> plug-in reward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from invgame.inverse_matrix import (
    ConfidenceSet,
    build_stepwise_system,
    floor_distribution,
)
from invgame.matrix_game import stage_values
from invgame.sampling import EpisodeDataset, frequency_estimate_markov, step_counts

MLE_MAX_ITER = 10_000  # projected-gradient iterations after which a fit stops unconverged
MLE_TOL = 1e-8  # a fit converges once its gradient mapping is at most this
_TRACE_BLOCK = 32  # iterations whose iterates are kept to form their objective at once


@dataclass(frozen=True)
class RidgeTransitionEstimator:
    """Gram matrix and the step's cell counts (of step_counts) behind the ridge predictor."""

    gram: np.ndarray
    cell_features: np.ndarray  # (S*m*n, d) features of the (s, a, b) cells
    successor_counts: np.ndarray  # (S*m*n, S) the step's N(s, a, b, s')

    def value_weights(self, v_next: np.ndarray) -> np.ndarray:
        """Solve Lambda w = sum_t phi_t V(s'_t), summed as Phi' (N V) over the cells."""
        cell_sums = self.successor_counts @ np.asarray(v_next, dtype=float)
        return np.linalg.solve(self.gram, self.cell_features.T @ cell_sums)


def ridge_fit(
    data: EpisodeDataset, features: np.ndarray, ridge_lambda: float, step: int
) -> RidgeTransitionEstimator:
    """The step's Gram matrix Lambda = sum_t phi_t phi_t' + lambda I, summed
    as sum over cells of N(s, a, b) phi phi' from the dataset's step count
    table (counted once per dataset), so its cost does not grow with T."""
    if not ridge_lambda > 0:
        raise ValueError("ridge_lambda must be positive")
    features = np.asarray(features, dtype=float)
    s_len, m, n, d = features.shape
    counts = step_counts(data, s_len, m, n)[step].reshape(-1, s_len)
    cell_features = features.reshape(-1, d)
    gram = (cell_features.T * counts.sum(axis=1)) @ cell_features + ridge_lambda * np.eye(d)
    return RidgeTransitionEstimator(gram, cell_features, counts)


@dataclass(frozen=True)
class SoftmaxPolicyModel:
    """Softmax conditionals exp(psi(s,a)' theta) with unit-ball parameters.

    psi_a: (S, m, d_a); psi_b: (S, n, d_b).  Both players' parameter vectors
    lie in the unit ball; a radius-r ball with features psi is the unit ball
    with features r * psi.
    """

    psi_a: np.ndarray
    psi_b: np.ndarray

    def __post_init__(self):
        if self.psi_a.ndim != 3 or self.psi_b.ndim != 3:
            raise ValueError("psi maps must have shape (S, actions, dim)")
        if self.psi_a.shape[0] != self.psi_b.shape[0]:
            raise ValueError("psi_a and psi_b must have the same number of states")

    @property
    def feature_scale(self) -> float:
        return float(
            max(
                np.linalg.norm(self.psi_a, axis=2).max(),
                np.linalg.norm(self.psi_b, axis=2).max(),
            )
        )

    def conditionals(self, psi: np.ndarray, params: np.ndarray) -> np.ndarray:
        logits = psi @ params
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        return weights / weights.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class MleFit:
    params: np.ndarray
    objective_trace: np.ndarray  # mean negative log-likelihood per iteration
    iterations: int
    converged: bool


def mle_fit(
    data: EpisodeDataset,
    model: SoftmaxPolicyModel,
    step: int,
    player: str,
) -> MleFit:
    """Projected-gradient MLE of one step's policy parameters on the unit ball.

    Minimizes the mean negative log-likelihood of the observed actions under
    the softmax model; fixed step 1/K^2 where K bounds the feature norms,
    converged once the gradient-mapping norm is at most MLE_TOL and stopped
    unconverged after MLE_MAX_ITER iterations.  The objective is convex, so
    the trace is nonincreasing.  Each iteration reads only the step's
    (S, actions) marginal of the dataset's count table (step_counts), so it
    costs O(S * actions * d), independent of the number of episodes.

    The fits are made once per dataset and model (its psi_a and psi_b): the
    first call fits every step of both players in one lockstep loop
    (_fit_stack) and caches them on the dataset, like the count table; later
    calls read them.  The params and trace are read-only.
    """
    if player not in ("a", "b"):
        raise ValueError("player must be 'a' or 'b'")
    table = step_counts(data, *model.psi_a.shape[:2], model.psi_b.shape[1])
    # every episode has one record per step, so all steps or none have samples
    if not table[step].any():
        raise ValueError(f"no samples at step {step}")
    key = tuple((p.dtype.str, p.shape, p.tobytes()) for p in (model.psi_a, model.psi_b))
    fits = data._mle_fits.get(key)
    if fits is None:
        fits = data._mle_fits[key] = _fit_every_step(table, model)
    return fits[player][step]


def _fit_every_step(table: np.ndarray, model: SoftmaxPolicyModel) -> dict[str, list[MleFit]]:
    """Every step's fit of each player, by player: one stack of both
    players' H fits, or one per player when psi_a and psi_b differ in shape."""
    h_len = table.shape[0]
    counts = {"a": table.sum(axis=(3, 4)), "b": table.sum(axis=(2, 4))}  # (H, S, actions)
    flats = {  # (H, S * actions, d): each step's copy of the player's features
        p: np.repeat(psi.reshape(1, -1, psi.shape[2]), h_len, axis=0)
        for p, psi in (("a", model.psi_a), ("b", model.psi_b))
    }
    lipschitz = max(model.feature_scale**2, 1e-12)
    stacks = ("ab",) if model.psi_a.shape == model.psi_b.shape else ("a", "b")
    fits = {}
    for players in stacks:
        stack = _fit_stack(
            np.concatenate([flats[p] for p in players], dtype=float),
            np.concatenate([counts[p] for p in players], dtype=float),
            lipschitz,
        )
        for k, p in enumerate(players):
            fits[p] = stack[k * h_len : (k + 1) * h_len]
    return fits


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[..., i, :] @ y[..., i, :] for every leading index, each the BLAS dot
    the two rows alone make."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _objectives(history: list, weights: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """The mean NLL weights @ (log z + shift) - observed @ theta of each
    (theta, shift, z) in history, as (iterations, fits), by the operations a
    fit alone makes at each iteration."""
    theta, shift, z = (np.array(x) for x in zip(*history))
    return _dots(weights, np.log(z) + shift) - _dots(observed, theta)


def _fit_stack(flats: np.ndarray, counts: np.ndarray, lipschitz: float) -> list[MleFit]:
    """Projected-gradient fits of a stack in one loop: fit i has features
    flats[i] (S * actions, d) and counts[i] (S, actions).  Each fit freezes
    once its own gradient mapping is at most MLE_TOL, and each of its
    products is the same BLAS call (a gemv or a dot on its own rows) a fit
    alone makes, so it follows exactly the iterates it would alone.  The objective trace
    is formed from the recorded iterates every _TRACE_BLOCK iterations and at
    each freeze, not once per iteration."""
    b_len, s_len, n_actions = counts.shape
    totals = counts.sum(axis=(1, 2))[:, None]
    # the mean NLL is weights @ log Z(theta) - observed @ theta
    weights = counts.sum(axis=2) / totals
    observed = (counts.reshape(b_len, 1, -1) @ flats)[:, 0] / totals
    theta = np.zeros((b_len, flats.shape[2]))
    params, iterations = np.empty_like(theta), np.full(b_len, MLE_MAX_ITER)
    converged = np.zeros(b_len, dtype=bool)
    live = np.arange(b_len)  # fits still iterating
    traces = [[] for _ in range(b_len)]  # each fit's objective, one piece per block
    history = []  # (theta, shift, z) of each iteration of the open block
    flats_t = flats.transpose(0, 2, 1)
    for it in range(1, MLE_MAX_ITER + 1):
        logits = (flats @ theta[:, :, None]).reshape(-1, s_len, n_actions)
        shift = logits.max(axis=2)
        e = np.exp(logits - shift[:, :, None])
        z = e.sum(axis=2)
        history.append((theta, shift, z))
        cells = (e * (weights / z)[:, :, None]).reshape(len(live), -1, 1)
        grad = (flats_t @ cells)[:, :, 0] - observed
        new_theta = theta - grad / lipschitz
        # L * ||theta - (theta - grad / L)|| is ||grad|| inside the ball
        gradient_mapping = np.sqrt(_dots(grad, grad))
        norm = np.sqrt(_dots(new_theta, new_theta))
        if np.count_nonzero(out := norm > 1):  # cheaper than .any() on a few fits
            new_theta[out] *= (1 / norm[out])[:, None]  # onto the unit ball
            moved = theta[out] - new_theta[out]
            gradient_mapping[out] = lipschitz * np.sqrt(_dots(moved, moved))
        theta = new_theta
        done = gradient_mapping <= MLE_TOL
        frozen = np.count_nonzero(done)
        if frozen or len(history) == _TRACE_BLOCK or it == MLE_MAX_ITER:
            for i, objective in zip(live, _objectives(history, weights, observed).T):
                traces[i].append(objective)
            history = []
        if frozen:
            finished = live[done]
            params[finished], iterations[finished], converged[finished] = theta[done], it, True
            live, theta, flats, weights, observed = (
                x[~done] for x in (live, theta, flats, weights, observed)
            )
            if not live.size:
                break
            flats_t = flats.transpose(0, 2, 1)
    params[live] = theta  # the fits MLE_MAX_ITER stopped
    params.flags.writeable = False
    fits = []
    for i in range(b_len):
        trace = np.concatenate(traces[i])
        trace.flags.writeable = False
        fits.append(MleFit(params[i], trace, int(iterations[i]), bool(converged[i])))
    return fits


@dataclass(frozen=True)
class InversionConfig:
    """Inputs shared by the reward-recovery drivers.

    kappa may be a scalar or a length-H array of per-step thresholds.
    theta_norm_cap bounds ||theta_h|| (not its square) and must be positive.
    """

    features: np.ndarray
    eta: float
    gamma: float
    kappa: float | np.ndarray
    ridge_lambda: float
    theta_norm_cap: float
    policy_model: SoftmaxPolicyModel | None = None

    def __post_init__(self):
        if not self.theta_norm_cap > 0:
            raise ValueError("theta_norm_cap must be positive")


@dataclass(frozen=True)
class RecoveredRewardSample:
    """One feasible trajectory through the per-step confidence sets."""

    thetas: np.ndarray  # (H, d)
    q_values: np.ndarray  # (H, S, m, n)
    v_values: np.ndarray  # (H+1, S)
    rewards: np.ndarray  # (H, S, m, n)
    feasible: np.ndarray  # (H,) bool: theta_h certified inside its set
    sets: tuple[ConfidenceSet, ...]  # (H,) the per-step sets theta_h came from


@dataclass(frozen=True)
class _Estimates:
    mu: np.ndarray  # (H, S, m), strictly positive
    nu: np.ndarray  # (H, S, n)
    weights: np.ndarray  # (H, S) per-state block weights


def block_weights(counts: np.ndarray, mle: bool) -> np.ndarray:
    """Per-state block weights from the (H, S) visit counts N_h(s): each
    visited state 1 for frequency sets, and its empirical visit probability
    rho_h(s) = N_h(s) / N for MLE sets, so unvisited states weigh nothing."""
    if mle:
        return counts / counts.sum(axis=-1, keepdims=True)
    return (counts > 0).astype(float)


def _estimates(data: EpisodeDataset, config: InversionConfig, mle: bool) -> _Estimates:
    """Each step's floored policies (frequency or softmax-MLE ones, of
    config.policy_model) and per-state block weights (block_weights)."""
    model = config.policy_model
    if not mle:
        est = frequency_estimate_markov(data, *config.features.shape[:3])
        mu, nu = est.mu_hat, est.nu_hat
    elif model is None:
        raise ValueError("recover_rewards_mle needs a policy_model")
    else:
        mu, nu = (
            np.stack([
                model.conditionals(psi, mle_fit(data, model, h, player).params)
                for h in range(data.horizon)
            ])
            for player, psi in (("a", model.psi_a), ("b", model.psi_b))
        )
    counts = step_counts(data, *config.features.shape[:3]).sum(axis=(2, 3, 4))
    return _Estimates(floor_distribution(mu), floor_distribution(nu), block_weights(counts, mle))


def stepwise_confidence_sets(
    data: EpisodeDataset, config: InversionConfig, estimates: _Estimates | None = None
) -> list[ConfidenceSet]:
    """The per-step confidence sets {theta : ||X theta - y||^2 <= kappa_h,
    ||theta|| <= theta_norm_cap} the recovery draws its parameters from: by
    default recover_rewards' frequency sets.  Both drivers pass the estimates
    they recover with, so that this one function builds every set.
    config.kappa must be a scalar or hold one threshold per step."""
    kappa = np.asarray(config.kappa, dtype=float)
    if kappa.shape not in ((), (data.horizon,)):
        raise ValueError(
            f"kappa must be a scalar or of shape (H,) = ({data.horizon},), got {kappa.shape}"
        )
    kappas = np.broadcast_to(kappa, (data.horizon,))
    if estimates is None:
        estimates = _estimates(data, config, mle=False)
    sets = []
    for h in range(data.horizon):
        system = build_stepwise_system(
            config.features, estimates.mu[h], estimates.nu[h], config.eta,
            estimates.weights[h],
        )
        sets.append(
            ConfidenceSet(system.X, system.y, float(kappas[h]), config.theta_norm_cap**2)
        )
    return sets


def _backward_pass(
    config: InversionConfig,
    estimates: _Estimates,
    sets: tuple[ConfidenceSet, ...],
    continuation,
) -> RecoveredRewardSample:
    """Bellman plug-in from the last step back at each set's min-norm member:
    r_h = Q_h - gamma * continuation(h, V_{h+1}), where continuation returns
    the (S, m, n) expected next-step value."""
    s_len, m, n, d = config.features.shape
    h_len = len(sets)
    thetas = np.zeros((h_len, d))
    q_values = np.zeros((h_len, s_len, m, n))
    v_values = np.zeros((h_len + 1, s_len))
    rewards = np.zeros((h_len, s_len, m, n))
    feasible = np.zeros(h_len, dtype=bool)
    flat_features = config.features.reshape(-1, d)
    for h in range(h_len - 1, -1, -1):
        try:
            thetas[h], feasible[h] = sets[h].min_norm_member()
        except Exception as err:
            raise RuntimeError(f"theta selection failed at step {h}") from err
        q_values[h] = (flat_features @ thetas[h]).reshape(s_len, m, n)
        v_values[h] = stage_values(q_values[h], estimates.mu[h], estimates.nu[h], config.eta)
        rewards[h] = q_values[h] - config.gamma * continuation(h, v_values[h + 1])
    return RecoveredRewardSample(thetas, q_values, v_values, rewards, feasible, sets)


def _run_algorithm(
    data: EpisodeDataset, config: InversionConfig, mle: bool
) -> list[RecoveredRewardSample]:
    estimates = _estimates(data, config, mle)
    sets = tuple(stepwise_confidence_sets(data, config, estimates))
    s_len, m, n, d = config.features.shape
    flat_features = config.features.reshape(-1, d)

    def continuation(h, v_next):  # step h's ridge predictor
        fit = ridge_fit(data, config.features, config.ridge_lambda, h)
        return (flat_features @ fit.value_weights(v_next)).reshape(s_len, m, n)

    return [_backward_pass(config, estimates, sets, continuation)]


def recover_rewards(
    data: EpisodeDataset, config: InversionConfig
) -> list[RecoveredRewardSample]:
    """Frequency-estimator reward recovery (backward confidence-set pass).

    Policies come from per-state frequencies; unvisited states carry uniform
    placeholders and zero block weight.  Returns one sample, the trajectory
    of each step's min-norm member.
    """
    return _run_algorithm(data, config, mle=False)


def recover_rewards_mle(
    data: EpisodeDataset, config: InversionConfig
) -> list[RecoveredRewardSample]:
    """MLE-based reward recovery with visit-probability block weights.

    Policies come from softmax MLE fits of config.policy_model and each
    state's constraints are weighted by the empirical visit probability, so
    unvisited states contribute nothing.
    """
    return _run_algorithm(data, config, mle=True)

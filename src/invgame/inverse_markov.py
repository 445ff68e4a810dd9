"""Stepwise inversion for Markov games: per-step confidence sets over
Q-function parameters, ridge-regression transition estimates, Bellman plug-in
reward recovery, and MLE-based softmax policy estimation.  The constraint
builder is `inverse_matrix.build_stepwise_system`, re-exported here.

Two drivers are provided: `recover_rewards` (frequency-estimated policies,
equal state weights) and `recover_rewards_mle` (softmax-MLE policies with
empirical visit-probability weights).  Both run the same backward pass:
confidence set -> Q and V estimates -> ridge transition -> plug-in reward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from invgame.inverse_matrix import (
    ConfidenceSet,
    LinearSystem,
    build_stepwise_system,
    floor_distribution,
)
from invgame.markov_game import StagePolicies
from invgame.matrix_game import stage_values
from invgame.sampling import (
    EpisodeDataset,
    empirical_state_distribution,
    frequency_estimate_markov,
    state_action_counts,
    stream,
)


def stepwise_confidence_set(
    system: LinearSystem, kappa_h: float, theta_norm_cap: float
) -> ConfidenceSet:
    """Confidence set over the step's Q-parameters; the cap bounds ||theta||."""
    if not theta_norm_cap > 0:
        raise ValueError("theta_norm_cap must be positive")
    return ConfidenceSet(system.X, system.y, kappa_h, theta_norm_cap**2)


@dataclass(frozen=True)
class RidgeTransitionEstimator:
    """Gram matrix and step samples backing the ridge value predictor."""

    gram: np.ndarray
    sample_features: np.ndarray  # (T, d) features of the step-h samples
    next_states: np.ndarray  # (T,) observed successors
    ridge_lambda: float

    def value_weights(self, v_next: np.ndarray) -> np.ndarray:
        """Solve Lambda w = sum_t phi_t V(s'_t) for the prediction weights."""
        target = self.sample_features.T @ np.asarray(v_next, dtype=float)[
            self.next_states
        ]
        return np.linalg.solve(self.gram, target)


def ridge_fit(
    data: EpisodeDataset, features: np.ndarray, ridge_lambda: float, step: int
) -> RidgeTransitionEstimator:
    """Accumulate the step's Gram matrix Lambda = sum phi phi' + lambda I."""
    if not ridge_lambda > 0:
        raise ValueError("ridge_lambda must be positive")
    features = np.asarray(features, dtype=float)
    d = features.shape[3]
    if data.n_episodes == 0:
        phi_t = np.zeros((0, d))
        nexts = np.zeros(0, dtype=np.int64)
    else:
        phi_t = features[
            data.states[:, step], data.actions_a[:, step], data.actions_b[:, step]
        ]
        nexts = data.next_states[:, step]
        if nexts.min() < 0 or nexts.max() >= features.shape[0]:
            raise ValueError(f"next_state must lie in 0..{features.shape[0] - 1}")
    gram = phi_t.T @ phi_t + ridge_lambda * np.eye(d)
    return RidgeTransitionEstimator(gram, phi_t, nexts, ridge_lambda)


@dataclass(frozen=True)
class SoftmaxPolicyModel:
    """Softmax conditionals exp(psi(s,a)' theta) with unit-ball parameters.

    psi_a: (S, m, d_a); psi_b: (S, n, d_b).  ball_radius applies to both
    players' parameter vectors.
    """

    psi_a: np.ndarray
    psi_b: np.ndarray
    ball_radius: float = 1.0

    def __post_init__(self):
        if self.psi_a.ndim != 3 or self.psi_b.ndim != 3:
            raise ValueError("psi maps must have shape (S, actions, dim)")

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
    max_iter: int = 10_000,
    tol: float = 1e-8,
) -> MleFit:
    """Projected-gradient MLE of one step's policy parameters on the ball.

    Minimizes the mean negative log-likelihood of the observed actions under
    the softmax model; fixed step 1/K^2 where K bounds the feature norms,
    stopping when the gradient-mapping norm falls below tol.  The objective
    is convex, so the trace is nonincreasing.
    """
    if player not in ("a", "b"):
        raise ValueError("player must be 'a' or 'b'")
    psi = model.psi_a if player == "a" else model.psi_b
    actions = data.actions_a if player == "a" else data.actions_b
    s_len, n_actions, dim = psi.shape
    counts = state_action_counts(
        data.states[:, step], actions[:, step], s_len, n_actions
    ).astype(float)
    total = counts.sum()
    if total == 0:
        raise ValueError(f"no samples at step {step}")
    state_counts = counts.sum(axis=1)
    scale = model.feature_scale
    lipschitz = max(scale**2, 1e-12)
    radius = model.ball_radius

    def clamp(theta):
        norm = np.linalg.norm(theta)
        return theta * (radius / norm) if norm > radius else theta

    def objective_and_grad(theta):
        logits = psi @ theta
        shift = logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(logits - shift).sum(axis=1)) + shift[:, 0]
        probs = np.exp(logits - log_z[:, None])
        nll = -(counts * (logits - log_z[:, None])).sum() / total
        grad = (
            np.einsum("s,sad->d", state_counts, probs[:, :, None] * psi)
            - np.einsum("sa,sad->d", counts, psi)
        ) / total
        return nll, grad

    theta = np.zeros(dim)
    trace = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        nll, grad = objective_and_grad(theta)
        trace.append(nll)
        new_theta = clamp(theta - grad / lipschitz)
        gradient_mapping = lipschitz * np.linalg.norm(theta - new_theta)
        theta = new_theta
        if gradient_mapping <= tol:
            converged = True
            break
    return MleFit(theta, np.array(trace), iterations, converged)


@dataclass(frozen=True)
class InversionConfig:
    """Inputs shared by the reward-recovery drivers.

    kappa may be a scalar or a length-H array of per-step thresholds.
    theta_norm_cap bounds ||theta_h|| (not its square).  The exact_* fields
    replace estimated quantities with ground truth for plug-in identity
    checks: exact_policies stands in for the estimated QRE and
    exact_transition (H, S, m, n, S) replaces the ridge predictor.
    """

    features: np.ndarray
    eta: float
    gamma: float
    kappa: float | np.ndarray
    ridge_lambda: float
    theta_norm_cap: float
    extra_members: int = 0
    member_seed: int = 0
    exact_policies: StagePolicies | None = None
    exact_transition: np.ndarray | None = None
    policy_model: SoftmaxPolicyModel | None = None

    def kappa_at(self, h: int) -> float:
        if np.ndim(self.kappa) == 0:
            return float(self.kappa)
        return float(np.asarray(self.kappa)[h])


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


def _frequency_estimates(data: EpisodeDataset, config: InversionConfig) -> _Estimates:
    """Frequency policies weighting visited states by 1, or the exact ones."""
    if config.exact_policies is not None:
        return _exact_estimates(config.exact_policies, None)
    est = frequency_estimate_markov(data, *config.features.shape[:3])
    return _Estimates(
        floor_distribution(est.mu_hat),
        floor_distribution(est.nu_hat),
        est.visited.astype(float),
    )


def _mle_estimates(
    data: EpisodeDataset, model: SoftmaxPolicyModel, s_len: int
) -> _Estimates:
    h_len = data.horizon
    mu = np.zeros((h_len, s_len, model.psi_a.shape[1]))
    nu = np.zeros((h_len, s_len, model.psi_b.shape[1]))
    for h in range(h_len):
        mu[h] = model.conditionals(model.psi_a, mle_fit(data, model, h, "a").params)
        nu[h] = model.conditionals(model.psi_b, mle_fit(data, model, h, "b").params)
    rho = empirical_state_distribution(data, s_len)
    return _Estimates(floor_distribution(mu), floor_distribution(nu), rho)


def _exact_estimates(
    policies: StagePolicies, weights: np.ndarray | None
) -> _Estimates:
    mu = floor_distribution(policies.mu)
    nu = floor_distribution(policies.nu)
    if weights is None:
        weights = np.ones(mu.shape[:2])
    return _Estimates(mu, nu, weights)


def stepwise_confidence_sets(
    data: EpisodeDataset, config: InversionConfig, estimates: _Estimates | None = None
) -> list[ConfidenceSet]:
    """The per-step confidence sets the backward recovery passes use."""
    if estimates is None:
        estimates = _frequency_estimates(data, config)
    sets = []
    for h in range(data.horizon):
        system = build_stepwise_system(
            config.features, estimates.mu[h], estimates.nu[h], config.eta,
            estimates.weights[h],
        )
        sets.append(
            stepwise_confidence_set(system, config.kappa_at(h), config.theta_norm_cap)
        )
    return sets


def _backward_pass(
    data: EpisodeDataset,
    config: InversionConfig,
    estimates: _Estimates,
    sets: tuple[ConfidenceSet, ...],
    theta_picker,
) -> RecoveredRewardSample:
    s_len, m, n, d = config.features.shape
    h_len = data.horizon
    thetas = np.zeros((h_len, d))
    q_values = np.zeros((h_len, s_len, m, n))
    v_values = np.zeros((h_len + 1, s_len))
    rewards = np.zeros((h_len, s_len, m, n))
    feasible = np.zeros(h_len, dtype=bool)
    flat_features = config.features.reshape(-1, d)
    for h in range(h_len - 1, -1, -1):
        try:
            thetas[h], feasible[h] = theta_picker(h, sets[h])
        except Exception as err:
            raise RuntimeError(f"theta selection failed at step {h}") from err
        q_values[h] = (flat_features @ thetas[h]).reshape(s_len, m, n)
        v_values[h] = stage_values(q_values[h], estimates.mu[h], estimates.nu[h], config.eta)
        if config.exact_transition is not None:
            continuation = config.exact_transition[h] @ v_values[h + 1]
        else:
            est = ridge_fit(data, config.features, config.ridge_lambda, h)
            weights_vec = est.value_weights(v_values[h + 1])
            continuation = (flat_features @ weights_vec).reshape(s_len, m, n)
        rewards[h] = q_values[h] - config.gamma * continuation
    return RecoveredRewardSample(thetas, q_values, v_values, rewards, feasible, sets)


def _run_algorithm(
    data: EpisodeDataset, config: InversionConfig, estimates: _Estimates
) -> list[RecoveredRewardSample]:
    sets = tuple(stepwise_confidence_sets(data, config, estimates))
    samples = [
        _backward_pass(
            data, config, estimates, sets, lambda h, cset: cset.min_norm_member()
        )
    ]
    if config.extra_members > 0:
        rng = stream(config.member_seed)
        for _ in range(config.extra_members):
            def picker(h, cset, rng=rng):
                member = cset.sample_members(1, rng)[0]
                return member, True
            samples.append(_backward_pass(data, config, estimates, sets, picker))
    return samples


def recover_rewards(
    data: EpisodeDataset, config: InversionConfig
) -> list[RecoveredRewardSample]:
    """Frequency-estimator reward recovery (backward confidence-set pass).

    Policies come from per-state frequencies (or config.exact_policies);
    unvisited states carry uniform placeholders and zero block weight.  The
    first returned sample uses the canonical min-norm selection, followed by
    config.extra_members random feasible trajectories.
    """
    return _run_algorithm(data, config, _frequency_estimates(data, config))


def recover_rewards_mle(
    data: EpisodeDataset, config: InversionConfig
) -> list[RecoveredRewardSample]:
    """MLE-based reward recovery with visit-probability block weights.

    Policies come from softmax MLE fits of config.policy_model (or
    config.exact_policies) and each state's constraints are weighted by the
    empirical visit probability, so unvisited states contribute nothing.
    """
    s_len = config.features.shape[0]
    if config.exact_policies is not None:
        rho = empirical_state_distribution(data, s_len)
        estimates = _exact_estimates(config.exact_policies, rho)
    elif config.policy_model is None:
        raise ValueError("recover_rewards_mle needs a policy_model")
    else:
        estimates = _mle_estimates(data, config.policy_model, s_len)
    return _run_algorithm(data, config, estimates)

"""Error metrics: the reward metrics D and D1, and the discrepancy (in
total variation) between re-solved and observed equilibria."""

from __future__ import annotations

import numpy as np

from invgame.markov_game import MarkovGameSpec, StagePolicies, backward_qre_stack
from invgame.matrix_game import PolicyPair


def reward_metric_D(r: np.ndarray, r_prime: np.ndarray) -> float:
    """Sup-norm distance over all (h, s, a, b) entries."""
    r = np.asarray(r, dtype=float)
    r_prime = np.asarray(r_prime, dtype=float)
    if r.shape != r_prime.shape:
        raise ValueError(f"reward shapes differ: {r.shape} vs {r_prime.shape}")
    return float(np.abs(r - r_prime).max())


def reward_metric_D1(
    r: np.ndarray, r_prime: np.ndarray, rho: np.ndarray
) -> float:
    """State-average metric: sup over (h, a, b) of E_{s~rho_h} |r - r'|."""
    r = np.asarray(r, dtype=float)
    r_prime = np.asarray(r_prime, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if r.shape != r_prime.shape:
        raise ValueError(f"reward shapes differ: {r.shape} vs {r_prime.shape}")
    if rho.shape != r.shape[:2]:
        raise ValueError("rho must have shape (H, S)")
    averaged = np.einsum("hs,hsmn->hmn", rho, np.abs(r - r_prime))
    return float(averaged.max())


def qre_discrepancy(
    estimated_payoff: np.ndarray,
    true_policies: PolicyPair,
    eta: float,
    tol: float = 1e-12,
) -> float:
    """Re-solve the matrix game on the estimated payoff and compare equilibria.

    Returns TV(mu_hat, mu*) + TV(nu_hat, nu*): qre_discrepancy_markov of the
    one-step, one-state game.
    """
    rewards = np.asarray(estimated_payoff, dtype=float)[None, None]
    spec = MarkovGameSpec(rewards, np.ones(rewards.shape + (1,)), eta)
    truth = StagePolicies(true_policies.mu[None, None], true_policies.nu[None, None])
    return qre_discrepancy_markov(spec, rewards, truth, np.ones((1, 1)), tol)[0]


def qre_discrepancy_markov(
    true_spec: MarkovGameSpec,
    estimated_rewards: np.ndarray,
    true_policies: StagePolicies,
    true_state_dists: np.ndarray,
    tol: float = 1e-12,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Markov QRE discrepancy of re-solved play on estimated rewards.

    Rebuilds the game with the estimated rewards and the true transition
    kernel, solves it backward, and averages each step's per-state
    TV(mu) + TV(nu) under the true visit distribution.  Returns the mean
    over steps together with the per-step values.  Rewards of shape
    (K, H, S, m, n) are K estimates re-solved in one backward pass; the
    result is then a (K,) array of means and a (K, H) array of steps.
    """
    rewards = np.asarray(estimated_rewards, dtype=float)
    if rewards.shape[-4:] != true_spec.rewards.shape or rewards.ndim > 5:
        raise ValueError(f"estimated rewards {rewards.shape} do not fit the game")
    mu, nu, _, _ = backward_qre_stack(
        rewards, true_spec.transition, true_spec.eta, true_spec.gamma, tol
    )
    tv_sum = 0.5 * (
        np.abs(mu - true_policies.mu).sum(axis=-1)
        + np.abs(nu - true_policies.nu).sum(axis=-1)
    )
    per_step = np.einsum("hs,...hs->...h", true_state_dists, tv_sum)
    if rewards.ndim == 4:
        return float(per_step.mean()), per_step
    return per_step.mean(axis=-1), per_step

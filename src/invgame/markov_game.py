"""Finite-horizon entropy-regularized zero-sum Markov games.

Stage payoffs Q_h(s) are built backward from the rewards and the expected
continuation value; each stage equilibrium is the matrix-game QRE of Q_h(s),
and V_h comes from the regularized stage objective at that equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from invgame.matrix_game import QreConvergenceError, solve_qre_batch, stage_values


@dataclass(frozen=True)
class MarkovGameSpec:
    """Tabular game: rewards (H, S, m, n) and transition (H, S, m, n, S)."""

    rewards: np.ndarray
    transition: np.ndarray
    eta: float
    gamma: float = 1.0

    def __post_init__(self):
        rewards = np.asarray(self.rewards, dtype=float)
        transition = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "transition", transition)
        if rewards.ndim != 4:
            raise ValueError("rewards must have shape (H, S, m, n)")
        if transition.shape != rewards.shape + (rewards.shape[1],):
            raise ValueError(
                f"transition shape {transition.shape} does not match rewards "
                f"{rewards.shape}"
            )
        if self.rewards.shape[0] < 1:
            raise ValueError("horizon must be at least 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if np.any(transition < 0) or np.any(
            np.abs(transition.sum(axis=4) - 1.0) > 1e-12
        ):
            raise ValueError("each transition vector must be a distribution")

    @property
    def H(self) -> int:
        return self.rewards.shape[0]

    @property
    def S(self) -> int:
        return self.rewards.shape[1]

    @property
    def m(self) -> int:
        return self.rewards.shape[2]

    @property
    def n(self) -> int:
        return self.rewards.shape[3]

    @classmethod
    def one_step(cls, payoff, eta: float) -> "MarkovGameSpec":
        """The one-step, one-state game of an m x n payoff: a matrix game."""
        rewards = np.asarray(payoff, dtype=float)[None, None]
        return cls(rewards, np.ones(rewards.shape + (1,)), eta)

    def check_play(self, policies: "StagePolicies", initial) -> np.ndarray:
        """initial as floats, once policies fit the game and initial is a
        distribution over its states; else a ValueError naming the argument."""
        for name, p, k in (("mu", policies.mu, self.m), ("nu", policies.nu, self.n)):
            if p.shape != (self.H, self.S, k):
                raise ValueError(f"policies.{name} must be {(self.H, self.S, k)}, not {p.shape}")
        initial = np.asarray(initial, dtype=float)
        ok = initial.shape == (self.S,) and (initial >= 0).all()  # NaN fails the sum
        if not (ok and abs(initial.sum() - 1.0) <= 1e-12):
            raise ValueError(f"initial must be a distribution over the game's {self.S} states")
        return initial


@dataclass(frozen=True)
class LinearMDPModel:
    """Linear parameterization of a Markov game.

    features: (S, m, n, d) with ||phi(s,a,b)||_2 <= 1.
    reward_params: (H, d); transition_params: (H, S, d) where column j of
    transition_params[h] (over states) is a probability vector, so that
    P_h(.|s,a,b) = transition_params[h] @ phi(s,a,b) is exactly linear.
    """

    features: np.ndarray
    reward_params: np.ndarray
    transition_params: np.ndarray
    eta: float
    gamma: float = 1.0

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        reward_params = np.asarray(self.reward_params, dtype=float)
        transition_params = np.asarray(self.transition_params, dtype=float)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "reward_params", reward_params)
        object.__setattr__(self, "transition_params", transition_params)
        if features.ndim != 4:
            raise ValueError("features must have shape (S, m, n, d)")
        d = features.shape[3]
        if reward_params.ndim != 2 or reward_params.shape[1] != d:
            raise ValueError("reward_params must have shape (H, d)")
        if transition_params.shape != (
            reward_params.shape[0],
            features.shape[0],
            d,
        ):
            raise ValueError("transition_params must have shape (H, S, d)")

    def to_tabular(self) -> MarkovGameSpec:
        """Materialize the reward tensors and transition kernels."""
        rewards = np.einsum("smnd,hd->hsmn", self.features, self.reward_params)
        transition = np.einsum(
            "smnd,htd->hsmnt", self.features, self.transition_params
        )
        return MarkovGameSpec(rewards, transition, eta=self.eta, gamma=self.gamma)

    def q_params(self, values: np.ndarray) -> np.ndarray:
        """Exact Q-function parameters theta_h = omega_h + gamma * Pi_h' V_{h+1}.

        values: (H+1, S) table with values[H] == 0.
        """
        h_len = self.reward_params.shape[0]
        out = np.empty_like(self.reward_params)
        for h in range(h_len):
            out[h] = self.reward_params[h] + self.gamma * (
                self.transition_params[h].T @ values[h + 1]
            )
        return out


@dataclass(frozen=True)
class StagePolicies:
    """Per-step per-state conditionals mu: (H, S, m), nu: (H, S, n)."""

    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        for name, p in (("mu", mu), ("nu", nu)):
            if p.ndim != 3:
                raise ValueError(f"{name} must have shape (H, S, actions)")
            if np.any(p < 0) or np.any(np.abs(p.sum(axis=2) - 1.0) > 1e-12):
                raise ValueError(f"{name} conditionals must be distributions")


@dataclass(frozen=True)
class ValueFunctions:
    """Q: (H, S, m, n) stage payoffs; V: (H+1, S) with the terminal row zero."""

    Q: np.ndarray
    V: np.ndarray


def backward_qre(
    spec: MarkovGameSpec, tol: float = 1e-12
) -> tuple[StagePolicies, ValueFunctions]:
    """Backward induction: per-state matrix QRE at every step, V_{H+1} = 0."""
    mu, nu, q, v = backward_qre_stack(spec.rewards, spec.transition, spec.eta, spec.gamma, tol)
    return StagePolicies(mu, nu), ValueFunctions(q, v)


def backward_qre_stack(
    rewards: np.ndarray, transition: np.ndarray, eta: float, gamma: float = 1.0,
    tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward induction for a stack of reward tables sharing one kernel.

    rewards has shape (..., H, S, m, n) and transition (H, S, m, n, S).  At
    each step the stage games of every state and every stack entry are
    solved in one batch.  Returns mu (..., H, S, m), nu (..., H, S, n),
    Q (..., H, S, m, n) and V (..., H+1, S).  A stage game that does not
    converge raises QreConvergenceError naming the step and state.
    """
    rewards = np.asarray(rewards, dtype=float)
    lead = rewards.shape[:-4]
    h_len, s_len, m, n = rewards.shape[-4:]
    q = np.zeros(rewards.shape)
    v = np.zeros(lead + (h_len + 1, s_len))
    mu, nu = np.zeros(lead + (h_len, s_len, m)), np.zeros(lead + (h_len, s_len, n))
    for h in range(h_len - 1, -1, -1):
        continuation = (gamma * transition[h]) @ v[..., None, None, h + 1, :, None]
        q_h = rewards[..., h, :, :, :] + continuation[..., 0]
        try:
            mu_h, nu_h = solve_qre_batch(q_h.reshape(-1, m, n), eta, tol)
        except QreConvergenceError as err:
            index = np.unravel_index(err.failed, lead + (s_len,))
            failed = [tuple(map(int, entry)) for entry in zip(*index)]
            raise QreConvergenceError(
                err.iterations, err.residual, failed, err.reached, step=h, state=failed[0][-1]
            ) from None
        mu_h, nu_h = mu_h.reshape(lead + (s_len, m)), nu_h.reshape(lead + (s_len, n))
        q[..., h, :, :, :], mu[..., h, :, :], nu[..., h, :, :] = q_h, mu_h, nu_h
        v[..., h, :] = stage_values(q_h, mu_h, nu_h, eta)
    return mu, nu, q, v


def visit_distributions(
    spec: MarkovGameSpec, policies: StagePolicies, initial: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """State and state-action occupancy under the given stage policies.

    Returns (state_dists, joint_dists) with shapes (H, S) and (H, S, m, n);
    joint_dists[h, s, a, b] = d_h(s) mu_h(a|s) nu_h(b|s).
    """
    initial = spec.check_play(policies, initial)
    h_len = spec.H
    state = np.zeros((h_len, spec.S))
    joint = np.zeros((h_len, spec.S, spec.m, spec.n))
    d = initial
    for h in range(h_len):
        state[h] = d
        joint[h] = d[:, None, None] * policies.mu[h][:, :, None] * policies.nu[h][:, None, :]
        d = np.einsum("smn,smnt->t", joint[h], spec.transition[h])
    return state, joint

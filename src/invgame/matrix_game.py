"""Entropy-regularized two-player zero-sum matrix games and their QRE.

The row player maximizes and the column player minimizes the regularized
objective  mu' Q nu + H(mu)/eta - H(nu)/eta.  For eta > 0 the equilibrium
(the quantal response equilibrium, QRE) is the unique pair of mutually
consistent softmax responses; both policies have full support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-300  # representation-level floor only; softmax outputs are positive
DAMPING = 0.5  # a game's initial weight on its new best-response logits


class QreConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach the requested tolerance.

    `failed` lists the unconverged stack entries, `residual` is their largest
    last residual; backward induction sets `step` and the first failed `state`.
    """

    def __init__(self, iterations, residual, failed=(0,), step=None, state=None):
        self.iterations, self.residual, self.failed = iterations, residual, tuple(failed)
        self.step, self.state = step, state
        where = "" if step is None else f" at step {step}, state {state}"
        super().__init__(
            f"QRE iteration did not converge{where} after {iterations} iterations "
            f"(last residual {residual:.3e}; failed entries {list(self.failed)})"
        )


def _check_payoffs(payoff: np.ndarray, ndim: int) -> None:
    if payoff.ndim != ndim or payoff.shape[-2] < 2 or payoff.shape[-1] < 2:
        raise ValueError(f"payoff must be at least 2x2, got shape {payoff.shape}")
    if not np.all(np.isfinite(payoff)):
        raise ValueError("payoff entries must be finite")


@dataclass(frozen=True)
class MatrixGameSpec:
    """A zero-sum matrix game with entropy regularization strength eta."""

    payoff: np.ndarray
    eta: float

    def __post_init__(self):
        payoff = np.asarray(self.payoff, dtype=float)
        object.__setattr__(self, "payoff", payoff)
        _check_payoffs(payoff, 2)
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")

    @property
    def m(self) -> int:
        return self.payoff.shape[0]

    @property
    def n(self) -> int:
        return self.payoff.shape[1]


@dataclass(frozen=True)
class PolicyPair:
    """Mixed strategies (mu over rows, nu over columns)."""

    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        for name, p in (("mu", mu), ("nu", nu)):
            if p.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            if np.any(p < 0):
                raise ValueError(f"{name} has negative entries")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} must sum to 1 (got {p.sum()!r})")


@dataclass(frozen=True)
class FeatureModel:
    """Linear payoff model Q(a,b) = <features[a,b], theta>.

    features has shape (m, n, d); each feature vector is expected to satisfy
    ||phi(a,b)||_2 <= 1 and the parameter ||theta||^2 <= norm_sq_cap.
    """

    features: np.ndarray
    theta: np.ndarray
    norm_sq_cap: float = field(default=np.inf)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "theta", theta)
        if features.ndim != 3:
            raise ValueError("features must have shape (m, n, d)")
        if theta.ndim != 1 or theta.shape[0] != features.shape[2]:
            raise ValueError(
                f"theta dimension {theta.shape} does not match feature "
                f"dimension {features.shape[2]}"
            )
        if float(theta @ theta) > self.norm_sq_cap * (1 + 1e-12):
            raise ValueError("||theta||^2 exceeds the declared cap")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def solve_qre_batch(
    payoffs: np.ndarray,
    eta: float,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """QRE of every game in a (B, m, n) stack; returns mu (B, m), nu (B, n).

    Damped fixed-point iteration in logit space: from the current pair the
    softmax best-response logits are mixed into the old logits with weight
    DAMPING.  A game converges when both the sup-norm policy change and the
    fixed-point residual drop below `tol`, and is then frozen.  Its damping
    factor is halved (down to 1/1024) whenever its residual stalls, which
    extends the convergent range to strongly scaled payoffs.  All of this is
    per game, so each game follows exactly the iterates it would alone.

    Raises QreConvergenceError, naming the unconverged entries, after max_iter.
    """
    if not (tol > 0 and eta > 0):
        raise ValueError(f"tol and eta must be positive, got {tol} and {eta}")
    q = np.ascontiguousarray(payoffs, dtype=float)  # one BLAS path for all
    _check_payoffs(q, 3)
    b_len, m, n = q.shape
    log_mu_out, log_nu_out = np.empty((b_len, m)), np.empty((b_len, n))
    live = np.arange(b_len)  # stack entries still iterating
    log_mu, log_nu = np.full((b_len, m), -np.log(m)), np.full((b_len, n), -np.log(n))
    alpha = np.full((b_len, 1), DAMPING)
    best_residual = np.full(b_len, np.inf)
    last_gain = np.full(b_len, -1)  # iteration of the last gain or halving
    next_stall = 499  # no game can have stalled 500 times before this
    qt, stay = q.transpose(0, 2, 1), 1 - alpha
    for it in range(max_iter):
        mu, nu = np.exp(log_mu), np.exp(log_nu)
        target_mu = _log_softmax(eta * (q @ nu[:, :, None])[:, :, 0])
        target_nu = _log_softmax(-eta * (qt @ mu[:, :, None])[:, :, 0])
        residual = np.maximum(
            np.abs(np.exp(target_mu) - mu).max(axis=1),
            np.abs(np.exp(target_nu) - nu).max(axis=1),
        )
        log_mu = _log_softmax(stay * log_mu + alpha * target_mu)
        log_nu = _log_softmax(stay * log_nu + alpha * target_nu)
        change = np.maximum(
            np.abs(np.exp(log_mu) - mu).max(axis=1),
            np.abs(np.exp(log_nu) - nu).max(axis=1),
        )
        if residual.min() <= tol and (done := (change < tol) & (residual <= tol)).any():
            log_mu_out[live[done]], log_nu_out[live[done]] = log_mu[done], log_nu[done]
            if done.all():
                mu = np.maximum(np.exp(log_mu_out), PROB_FLOOR)
                nu = np.maximum(np.exp(log_nu_out), PROB_FLOOR)
                return mu / mu.sum(axis=1, keepdims=True), nu / nu.sum(axis=1, keepdims=True)
            per_game = (live, q, log_mu, log_nu, alpha, residual, best_residual, last_gain)
            live, q, log_mu, log_nu, alpha, residual, best_residual, last_gain = (
                x[~done] for x in per_game
            )
            qt, stay = q.transpose(0, 2, 1), 1 - alpha
        # residual stalling for 500 iterations signals oscillation; damp harder
        improved = residual < best_residual * (1 - 1e-3)
        np.copyto(best_residual, residual, where=improved)
        np.copyto(last_gain, it, where=improved)
        if it >= next_stall:
            halve = (it - last_gain >= 500) & (alpha[:, 0] > 1 / 1024)
            alpha[halve] /= 2
            stay = 1 - alpha
            last_gain[halve] = it
            next_stall = int(last_gain.min()) + 500
    raise QreConvergenceError(max_iter, float(residual.max()), live.tolist())


def solve_qre(
    spec: MatrixGameSpec,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> PolicyPair:
    """The QRE of one game: solve_qre_batch on a stack of one."""
    mu, nu = solve_qre_batch(spec.payoff[None], spec.eta, tol, max_iter)
    return PolicyPair(mu[0], nu[0])


def qre_residual(spec: MatrixGameSpec, policies: PolicyPair) -> float:
    """Sup-norm gap between the policies and their softmax best responses."""
    q = spec.payoff
    mu, nu = policies.mu, policies.nu
    if mu.shape[0] != spec.m or nu.shape[0] != spec.n:
        raise ValueError("policy dimensions do not match the game")
    rhs_mu = np.exp(_log_softmax(spec.eta * (q @ nu)))
    rhs_nu = np.exp(_log_softmax(-spec.eta * (q.T @ mu)))
    return float(max(np.abs(mu - rhs_mu).max(), np.abs(nu - rhs_nu).max()))


def entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy over the last axis; zero entries contribute zero."""
    p = np.asarray(p, dtype=float)
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)


def stage_values(q: np.ndarray, mu: np.ndarray, nu: np.ndarray, eta: float) -> np.ndarray:
    """V = mu' Q nu + (H(mu) - H(nu)) / eta for q (..., m, n), mu (..., m)
    and nu (..., n), elementwise over the leading axes."""
    bilinear = (mu[..., None, :] @ q @ nu[..., :, None])[..., 0, 0]
    return bilinear + (entropy(mu) - entropy(nu)) / eta


def game_value(spec: MatrixGameSpec, policies: PolicyPair) -> float:
    """Regularized objective mu' Q nu + H(mu)/eta - H(nu)/eta."""
    return float(stage_values(spec.payoff, policies.mu, policies.nu, spec.eta))

"""Entropy-regularized two-player zero-sum matrix games and their QRE.

The row player maximizes and the column player minimizes the regularized
objective  mu' Q nu + H(mu)/eta - H(nu)/eta.  For eta > 0 the equilibrium
(the quantal response equilibrium, QRE) is the unique pair of mutually
consistent softmax responses; both policies have full support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

PROB_FLOOR = 1e-300  # representation-level floor only; softmax outputs are positive
MAX_NEWTON_STEPS = 100_000  # solve_qre_batch's cap on Newton steps over all trials


class QreConvergenceError(RuntimeError):
    """The Newton continuation did not reach the requested tolerance.

    `failed` lists the unconverged stack entries, `reached` the fraction t of
    eta each had solved (0 is uniform play) and `residual` their largest last
    residual, or None when they stalled: a stalled entry's last trial hit at
    its unmoved t, so its residual says nothing of the solve.  Backward
    induction sets `step` and the first failed `state`.
    """

    def __init__(self, iterations, residual, failed=(0,), reached=(), step=None, state=None):
        self.iterations, self.residual, self.failed = iterations, residual, tuple(failed)
        self.reached, self.step, self.state = tuple(reached), step, state
        where = "" if step is None else f" at step {step}, state {state}"
        status = "stalled" if residual is None else f"last residual {residual:.3e}"
        super().__init__(
            f"QRE solve did not converge{where} after {iterations} Newton steps "
            f"({status}; failed entries {list(self.failed)}; "
            f"reached t [{', '.join(f'{t:.3g}' for t in self.reached)}])"
        )


def _check_payoffs(payoff: np.ndarray, ndim: int) -> None:
    if payoff.ndim != ndim or payoff.shape[-2] < 2 or payoff.shape[-1] < 2:
        raise ValueError(f"payoff must be at least 2x2, got shape {payoff.shape}")
    if not np.isfinite(payoff).all():
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
        if not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")

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


def _log_softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    total = np.add.reduce(np.exp(shifted), axis=-1, keepdims=True)
    return np.subtract(shifted, np.log(total, out=total), out=out)


@lru_cache(maxsize=64)
def _newton_constants(m: int, n: int) -> tuple[np.ndarray, ...]:
    """solve_qre_batch's read-only sums, logit, lin, lin', kkt border and uniform
    z and w for m x n games.  With z = (u, v, lam, kap), w = (mu, nu, 1, 1) the
    system is lin z + kkt w = sums and, kkt's last two columns being zero, its
    Jacobian lin + kkt diag(w)."""
    mn = m + n
    sums = np.r_[np.zeros(mn), 1.0, 1.0]
    logit = 1 - sums
    lin = np.diag(logit)
    lin[:m, mn] = lin[m:mn, mn + 1] = 1
    border = np.zeros((mn + 2, mn + 2))
    border[mn, :m] = border[mn + 1, m:mn] = 1
    uniform = np.r_[np.full(m, -np.log(m)), np.full(n, -np.log(n)), np.log(m), np.log(n)]
    constants = sums, logit, lin, lin.T, border, uniform, np.exp(uniform * logit)
    for array in constants:
        array.flags.writeable = False
    return constants


@np.errstate(over="ignore", invalid="ignore")  # a trial that overflows is a miss
def solve_qre_batch(
    payoffs: np.ndarray,
    eta: float,
    tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """QRE of every game in a (B, m, n) stack; returns mu (B, m), nu (B, n).

    Newton's method on the saddle point's KKT system in the logits u, v of
    mu, nu with multipliers lam, kap: u - eta Q nu + lam 1 = 0, v + eta Q' mu
    + kap 1 = 0, 1'mu = 1'nu = 1.  Its Jacobian (diag(1/mu, 1/nu) plus a skew
    eta Q coupling, bordered by the constraints, times diag(mu, nu, 1, 1)) is
    nonsingular at every finite point; u, v are renormalized after each step.
    The QRE is unique at every eta, so a game follows its branch by
    continuation from uniform play at eta = 0: from a solution accepted at
    t * eta it tries a larger t, first t = 1 (plain Newton from uniform).  A
    trial hits when the fixed-point residual is at most `tol` and the step
    moves the policies by less than `tol`: at t = 1 the game is frozen, below
    1 the point is accepted and the next step is 1.5x longer.  A trial that
    has not hit after 8 steps, whose residual rises while above 1e-8 or whose
    point is not finite restarts from the accepted point at half the step.
    All of this is per game, so each game follows exactly the iterates it
    would alone.  Until a first miss every game is in its first trial at t = 1,
    as a Markov stage game is for all of its 4 steps; the continuation's
    bookkeeping (accepted points, t, steps) is built at that miss.

    Raises QreConvergenceError, naming the unconverged entries and the t
    each reached, after MAX_NEWTON_STEPS Newton steps, or naming the stalled
    entries as soon as a halved step no longer moves a game's t.
    """
    if not (tol > 0 and 0 < eta < np.inf):
        raise ValueError(f"tol and eta must be positive and eta finite, got {tol} and {eta}")
    q = np.ascontiguousarray(payoffs, dtype=float)  # one BLAS path for all
    _check_payoffs(q, 3)
    b_len, m, n = q.shape
    if b_len == 0:
        return np.empty((0, m)), np.empty((0, n))
    mn = m + n
    sums, logit, lin, lin_t, border, uniform, w_uniform = _newton_constants(m, n)
    kkt, z, w = (np.empty((b_len, *a.shape)) for a in (border, uniform, w_uniform))
    kkt[:], z[:], w[:] = border, uniform, w_uniform

    def couple(games, scaled):  # the eta Q blocks of these games: scaled is t eta Q
        kkt[games, :m, m:mn], kkt[games, m:mn, :m] = -scaled, scaled.transpose(0, 2, 1)

    def renormalize(x):  # x[:, :m] and x[:, m:] become their _log_softmax; if m == n in
        # one (B, 2, m) pass, a view since the reshape only splits x's unit-stride axis
        for part in (x.reshape(len(x), 2, m),) if m == n else (x[:, :m], x[:, m:]):
            _log_softmax(part, out=part)

    couple(slice(None), eta * q)
    live, last, newton = np.arange(b_len), np.inf, 0  # entries iterating, residual, trial steps
    trials = None  # accepted, t_accepted, t_step: built at the first miss
    out = np.empty((b_len, mn))
    for steps in range(1, MAX_NEWTON_STEPS + 1):
        g = np.matmul(kkt, w[:, :, None])[:, :, 0]
        renormalize(response := -g[:, :mn])
        residual = np.maximum.reduce(np.abs(np.exp(response) - w[:, :mn]), axis=1)
        f = z @ lin_t + g - sums
        z -= np.linalg.solve(kkt * w[:, None, :] + lin, f[:, :, None])[:, :, 0]
        renormalize(z[:, :mn])
        w, w_old = np.exp(z * logit), w
        hit = (residual <= tol) & (np.maximum.reduce(np.abs(w - w_old), axis=1) < tol)
        newton += 1
        rose = residual > np.maximum(last, 1e-8)  # rose while above 1e-8
        miss = ~hit & ((newton == 8) | rose | ~np.logical_and.reduce(np.isfinite(z), axis=1))
        last, done = residual, hit  # until a first miss every trial is at t = 1
        if trials is None and miss.any():
            trials = np.tile(uniform, (len(live), 1)), np.zeros(len(live)), np.ones(len(live))
            newton = np.full(len(live), newton)
        if trials is not None:
            accepted, t_accepted, t_step = trials
            t_try = np.minimum(t_accepted + t_step, 1.0)
            done = hit & (t_try == 1.0)
            if (retry := miss | (hit & ~done)).any():
                accepted[hit], t_accepted[hit] = z[hit], t_try[hit]
                t_step[hit] *= 1.5
                t_step[miss] /= 2
                if (stalled := t_accepted + t_step == t_accepted).any():  # t can no longer move
                    raise QreConvergenceError(
                        steps, None, live[stalled].tolist(), t_accepted[stalled].tolist()
                    )
                z[miss], w[miss] = accepted[miss], np.exp(accepted[miss] * logit)
                newton[retry], last[retry] = 0, np.inf
                t_next = np.minimum(t_accepted + t_step, 1.0)[retry]
                couple(retry, (eta * t_next)[:, None, None] * q[retry])
        if done.any():
            out[live[done]] = z[done, :mn]
            if done.all():
                policies = np.maximum(np.exp(out), PROB_FLOOR)
                mu, nu = policies[:, :m], policies[:, m:]
                return mu / mu.sum(axis=1, keepdims=True), nu / nu.sum(axis=1, keepdims=True)
            live, q, kkt, z, w, last = (x[~done] for x in (live, q, kkt, z, w, last))
            if trials is not None:
                trials, newton = tuple(x[~done] for x in trials), newton[~done]
    reached = np.zeros(len(live)) if trials is None else trials[1]
    raise QreConvergenceError(MAX_NEWTON_STEPS, float(last.max()), live.tolist(), reached.tolist())


def solve_qre(spec: MatrixGameSpec, tol: float = 1e-12) -> PolicyPair:
    """The QRE of one game: solve_qre_batch on a stack of one."""
    mu, nu = solve_qre_batch(spec.payoff[None], spec.eta, tol)
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

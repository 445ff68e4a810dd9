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


class QreConvergenceError(RuntimeError):
    """The Newton continuation did not reach the requested tolerance.

    `failed` lists the unconverged stack entries, `reached` the fraction t of
    eta each had solved (0 is uniform play) and `residual` their largest last
    residual; backward induction sets `step` and the first failed `state`.
    """

    def __init__(self, iterations, residual, failed=(0,), reached=(), step=None, state=None):
        self.iterations, self.residual, self.failed = iterations, residual, tuple(failed)
        self.reached, self.step, self.state = tuple(reached), step, state
        where = "" if step is None else f" at step {step}, state {state}"
        super().__init__(
            f"QRE solve did not converge{where} after {iterations} Newton steps "
            f"(last residual {residual:.3e}; failed entries {list(self.failed)}; "
            f"reached t {[round(t, 6) for t in self.reached]})"
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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@np.errstate(over="ignore", invalid="ignore")  # a trial that overflows is a miss
def solve_qre_batch(
    payoffs: np.ndarray,
    eta: float,
    tol: float = 1e-12,
    max_iter: int = 100_000,
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
    would alone.

    Raises QreConvergenceError, naming the unconverged entries and the t
    each reached, after max_iter Newton steps.
    """
    if not (tol > 0 and 0 < eta < np.inf):
        raise ValueError(f"tol and eta must be positive and eta finite, got {tol} and {eta}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    q = np.ascontiguousarray(payoffs, dtype=float)  # one BLAS path for all
    _check_payoffs(q, 3)
    b_len, m, n = q.shape
    mn = m + n
    # z = (u, v, lam, kap), w = (mu, nu, 1, 1): the system is lin z + kkt w =
    # sums and, kkt's last two columns being zero, its Jacobian lin + kkt diag(w)
    sums = np.r_[np.zeros(mn), 1.0, 1.0]
    logit = 1 - sums
    lin = np.diag(logit)
    lin[:m, mn] = lin[m:mn, mn + 1] = 1
    kkt = np.zeros((b_len, mn + 2, mn + 2))
    kkt[:, mn, :m] = kkt[:, mn + 1, m:mn] = 1

    def couple(games, t):  # the eta Q blocks of these games at t * eta
        scaled = (eta * t)[:, None, None] * q[games]
        kkt[games, :m, m:mn], kkt[games, m:mn, :m] = -scaled, scaled.transpose(0, 2, 1)

    couple(slice(None), np.ones(b_len))
    uniform = np.r_[np.full(m, -np.log(m)), np.full(n, -np.log(n)), np.log(m), np.log(n)]
    z = np.tile(uniform, (b_len, 1))
    w, accepted = np.exp(z * logit), z.copy()
    live = np.arange(b_len)  # stack entries still iterating
    t_accepted, t_step = np.zeros(b_len), np.ones(b_len)
    newton, last = np.zeros(b_len, dtype=int), np.full(b_len, np.inf)  # in this trial
    out = np.empty((b_len, mn))
    for _ in range(max_iter):
        g = (kkt @ w[:, :, None])[:, :, 0]
        response = np.concatenate([_log_softmax(-g[:, :m]), _log_softmax(-g[:, m:mn])], 1)
        residual = np.abs(np.exp(response) - w[:, :mn]).max(axis=1)
        f = z @ lin.T + g - sums
        z = z - np.linalg.solve(kkt * w[:, None, :] + lin, f[:, :, None])[:, :, 0]
        z[:, :m], z[:, m:mn] = _log_softmax(z[:, :m]), _log_softmax(z[:, m:mn])
        w, w_old = np.exp(z * logit), w
        hit = (residual <= tol) & (np.abs(w - w_old).max(axis=1) < tol)
        newton += 1
        rose = (residual > last) & (residual > 1e-8)
        miss = ~hit & ((newton == 8) | rose | ~np.isfinite(z).all(axis=1))
        last, t_try = residual, np.minimum(t_accepted + t_step, 1.0)
        done = hit & (t_try == 1.0)
        if (retry := miss | (hit & ~done)).any():
            accepted[hit], t_accepted[hit] = z[hit], t_try[hit]
            t_step[hit] *= 1.5
            t_step[miss] /= 2
            z[miss], w[miss] = accepted[miss], np.exp(accepted[miss] * logit)
            newton[retry], last[retry] = 0, np.inf
            couple(retry, np.minimum(t_accepted + t_step, 1.0)[retry])
        if done.any():
            out[live[done]] = z[done, :mn]
            if done.all():
                policies = np.maximum(np.exp(out), PROB_FLOOR)
                mu, nu = policies[:, :m], policies[:, m:]
                return mu / mu.sum(axis=1, keepdims=True), nu / nu.sum(axis=1, keepdims=True)
            per_game = (live, q, kkt, z, w, accepted, t_accepted, t_step, newton, last, residual)
            live, q, kkt, z, w, accepted, t_accepted, t_step, newton, last, residual = (
                x[~done] for x in per_game
            )
    raise QreConvergenceError(max_iter, float(residual.max()), live.tolist(), t_accepted.tolist())


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

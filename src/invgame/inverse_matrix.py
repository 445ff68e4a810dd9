"""Identifiability machinery: the QRE-constraint linear system, rank tests,
least-squares / minimum-norm estimators, confidence sets, and
Hausdorff-distance estimation between parameter sets.

One builder serves both game classes: a Markov step stacks one constraint
block per state, and a matrix game is the single-state case (features with a
leading S=1 axis).

Conventions: action 0 is the baseline for both players (log-ratios are taken
against it), and norm caps are on the squared Euclidean norm, so a cap of M
admits exactly the parameters with ||theta||^2 <= M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from invgame.matrix_game import PolicyPair
from invgame.sampling import EmpiricalMarkovQRE, stream

LOG_FLOOR = 1e-12  # probabilities are floored here before log-ratios
RANK_TOL_FACTOR = 1e-12
_BISECTIONS = 53  # resolves t in [0, 1] to 2^-53, the spacing of doubles below 1
_CLOUD_CHUNK = 1 << 14  # point-to-cloud distances held at once


class PartialIdentifiabilityError(np.linalg.LinAlgError):
    """Normal matrix is numerically singular; the system does not pin theta."""


def floor_distribution(p: np.ndarray) -> np.ndarray:
    """Clip probabilities up to LOG_FLOOR so log-ratios exist, then
    renormalise over the last axis."""
    p = np.maximum(np.asarray(p, dtype=float), LOG_FLOOR)
    return p / p.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class LinearSystem:
    """Stacked QRE constraints X theta = y."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ValueError("X must be 2-D with matching right-hand side")

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def build_stepwise_system(
    features: np.ndarray,
    mu_h: np.ndarray,
    nu_h: np.ndarray,
    eta: float,
    weights: np.ndarray | None = None,
) -> LinearSystem:
    """Stack the per-state QRE constraints of one step: all states' A-blocks,
    then all B-blocks.

    features: (S, m, n, d); mu_h: (S, m); nu_h: (S, n).  For each state s,

      rows a = 1..m-1:  <(phi(s,a,.) - phi(s,0,.)) nu(s), theta> = log(mu_a/mu_0)/eta
      rows b = 1..n-1:  <(phi(s,.,b) - phi(s,.,0))' mu(s), theta> = -log(nu_b/nu_0)/eta

    With weights, each state's block (rows and right-hand side) is scaled by
    sqrt(weight(s)); states with zero weight contribute zero rows, so the row
    layout is independent of the weights.  Probabilities must be strictly
    positive wherever the weight is positive; callers holding empirical
    estimates floor them first.  A matrix game is the case S=1.
    """
    features = np.asarray(features, dtype=float)
    s_len, m, n, d = features.shape
    mu_h = np.asarray(mu_h, dtype=float)
    nu_h = np.asarray(nu_h, dtype=float)
    if mu_h.shape != (s_len, m) or nu_h.shape != (s_len, n):
        raise ValueError("policy dimensions do not match features")
    if weights is None:
        weights = np.ones(s_len)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    active = weights > 0
    if np.any(mu_h[active] <= 0) or np.any(nu_h[active] <= 0):
        raise ValueError("zero probability at a positively weighted state")
    root_w = np.sqrt(weights)
    # A-side: rows (s, a) for a >= 1, contracted against nu_h(s)
    diff_a = features[:, 1:] - features[:, :1]  # (S, m-1, n, d)
    a_rows = np.einsum("sand,sn,s->sad", diff_a, nu_h, root_w).reshape(-1, d)
    diff_b = features[:, :, 1:] - features[:, :, :1]  # (S, m, n-1, d)
    b_rows = np.einsum("sabd,sa,s->sbd", diff_b, mu_h, root_w).reshape(-1, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mu = np.where(mu_h > 0, np.log(np.maximum(mu_h, 1e-300)), 0.0)
        log_nu = np.where(nu_h > 0, np.log(np.maximum(nu_h, 1e-300)), 0.0)
    c = ((log_mu[:, 1:] - log_mu[:, :1]) / eta) * root_w[:, None]
    d_vec = (-(log_nu[:, 1:] - log_nu[:, :1]) / eta) * root_w[:, None]
    return LinearSystem(np.vstack([a_rows, b_rows]), np.concatenate([c.ravel(), d_vec.ravel()]))


def empirical_system(
    empirical: EmpiricalMarkovQRE, features: np.ndarray, eta: float
) -> LinearSystem:
    """A matrix game's constraints at its floored empirical marginals: the
    estimate's one step, whose one state is the matrix game."""
    return build_stepwise_system(
        np.asarray(features, dtype=float)[None],
        floor_distribution(empirical.mu_hat[0]),
        floor_distribution(empirical.nu_hat[0]),
        eta,
    )


def numerical_rank(sigma: np.ndarray, shape: tuple[int, ...]) -> int:
    """Rank of a matrix of the given shape from its descending singular
    values: the count above sigma_1 * max(rows, cols) * 1e-12."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int((sigma > sigma[0] * max(shape) * RANK_TOL_FACTOR).sum())


def rank_condition(x: np.ndarray, d: int) -> tuple[bool, int]:
    """Whether the stacked constraint matrix pins all d parameter directions."""
    x = np.asarray(x, dtype=float)
    rank = numerical_rank(np.linalg.svd(x, compute_uv=False), x.shape)
    return rank == d, rank


def least_squares_theta(system: LinearSystem) -> np.ndarray:
    """Unique least-squares solution; requires a numerically full-rank system."""
    ok, rank = rank_condition(system.X, system.dim)
    if not ok:
        raise PartialIdentifiabilityError(
            f"system rank {rank} < {system.dim}: theta is only partially "
            "identified; use min_norm_theta or a confidence set"
        )
    theta, *_ = np.linalg.lstsq(system.X, system.y, rcond=None)
    return theta


def min_norm_theta(system: LinearSystem | ConfidenceSet) -> np.ndarray:
    """Moore-Penrose solution X^+ y, the least-squares solution of least norm."""
    return np.linalg.pinv(system.X) @ system.y


def reconstruct_payoff(theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Payoff matrix induced by theta: Q[a, b] = <phi(a,b), theta>."""
    features = np.asarray(features, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if features.shape[-1] != theta.shape[0]:
        raise ValueError("theta dimension does not match features")
    return features @ theta


def _ball_clamp(theta: np.ndarray, norm_sq_cap: float) -> np.ndarray:
    sq = float(theta @ theta)
    if sq <= norm_sq_cap or sq == 0.0:
        return theta
    return theta * np.sqrt(norm_sq_cap / sq)


def _ball_draws(k: int, dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """K points drawn uniformly from the radius ball of R^dim."""
    raw = rng.standard_normal((k, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    raw *= radius * rng.random((k, 1)) ** (1.0 / dim)
    return raw


@dataclass(frozen=True)
class ConfidenceSet:
    """{theta : ||X theta - y||^2 <= kappa, ||theta||^2 <= norm_sq_cap}.

    An intersection of two convex quadrics, handled exactly in the SVD basis
    X = U diag(sigma) V', taken once: with z = V' theta and c = U' y the
    residual is sum_i (sigma_i z_i - c_i)^2 + ||y_perp||^2.
    """

    X: np.ndarray
    y: np.ndarray
    kappa: float
    norm_sq_cap: float

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if not self.norm_sq_cap > 0:
            raise ValueError("norm cap must be positive")

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(V', sigma, c, ||y_perp||^2), padded to dim; only projections use it."""
        rows, d = self.X.shape
        # a wide X needs the full V for its null space
        u, sigma, vt = np.linalg.svd(self.X, full_matrices=rows < d)
        c = u[:, : sigma.size].T @ self.y
        y_perp = self.y - u[:, : sigma.size] @ c
        pad = (0, d - sigma.size)
        return vt, np.pad(sigma, pad), np.pad(c, pad), float(y_perp @ y_perp)

    def residual_sq(self, theta: np.ndarray) -> float:
        r = self.X @ theta - self.y
        return float(r @ r)

    def contains(self, theta: np.ndarray, slack: float = 0.0) -> bool:
        theta = np.asarray(theta, dtype=float)
        return (
            self.residual_sq(theta) <= self.kappa + slack
            and float(theta @ theta) <= self.norm_sq_cap + slack
        )

    def _project(self, points: np.ndarray) -> tuple[np.ndarray, bool]:
        """Exact projections of the rows of `points`; whether the set is nonempty.

        The projection theta of p solves p - theta = lam X'(X theta - y) + mu theta
        with lam, mu >= 0: for t = lam / (1 + lam) it minimises (1-t) ||theta - p||^2
        + t ||X theta - y||^2 over the ball, whose multiplier is a secular root.  The
        residual does not increase with t, so bisection finds the least t within
        kappa.  At t = 1 theta is the least-residual point of the ball; the set is
        empty exactly when that residual exceeds kappa, and then every row gets it.
        """
        vt, sigma, c, y_perp_sq = self._svd
        q = points @ vt.T
        cap, radius = self.norm_sq_cap, np.sqrt(self.norm_sq_cap)

        def solve(t):
            # z = a / (den + nu) for the least nu >= 0 with ||z||^2 <= cap (den
            # is 0 only where a is).  1/||z(nu)|| is concave and increasing, so
            # Newton's method on 1/||z|| = 1/radius from nu = 0 rises
            # monotonically to the root (More & Sorensen 1983).
            t = t[:, None]
            a, den = (1 - t) * q + t * sigma * c, (1 - t) + t * sigma**2
            nu = np.zeros_like(t)
            for _ in range(100):  # a cap the monotone iteration stays far below
                shifted = np.where(den + nu > 0, den + nu, 1.0)
                z = a / shifted
                sq = (z * z).sum(axis=1, keepdims=True)
                out = sq > cap
                slope = np.where(out, (z * z / shifted).sum(axis=1, keepdims=True), 1.0)
                step = np.where(out, sq * (np.sqrt(sq) - radius) / (radius * slope), 0.0)
                if not (step > 1e-15 * nu).any():
                    break
                nu = nu + step
            return z, ((sigma * z - c) ** 2).sum(axis=1) + y_perp_sq <= self.kappa

        lo, hi = np.zeros(len(q)), np.ones(len(q))
        z_hi, nonempty = solve(hi)
        z_lo, ball_only = solve(lo)
        hi[ball_only], z_hi[ball_only] = 0.0, z_lo[ball_only]
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            z_mid, ok = solve(mid)
            hi[ok], z_hi[ok], lo[~ok] = mid[ok], z_mid[ok], mid[~ok]
        members = z_hi @ vt
        inside = ball_only & ((points * points).sum(axis=1) <= cap)
        members[inside] = points[inside]
        return members, bool(nonempty.all())

    def project(self, point: np.ndarray) -> tuple[np.ndarray, float, bool]:
        """Exact Euclidean projection: (member, distance, feasible).  A point of
        the set is its own projection at distance 0; when the set is empty,
        feasible is False and the member is the ball's least-residual point."""
        point = np.asarray(point, dtype=float)
        members, nonempty = self._project(point[None])
        return members[0], float(np.linalg.norm(point - members[0])), nonempty

    def sample_members(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """K members: the projections of K points drawn uniformly from the
        norm ball (draws inside the set stay where they are)."""
        radius = np.sqrt(self.norm_sq_cap)
        members, nonempty = self._project(_ball_draws(k, self.X.shape[1], radius, rng))
        if not nonempty:
            raise ValueError("confidence set is empty")
        return members

    def min_norm_member(self) -> tuple[np.ndarray, bool]:
        """Canonical point estimate: the pseudoinverse solution when it is a
        member, otherwise the projection of the origin onto the set.

        The second element is False when the set is empty and the returned
        point is only a surrogate.
        """
        pinv_theta = min_norm_theta(self)
        if self.contains(pinv_theta, slack=1e-12):
            return pinv_theta, True
        if self.residual_sq(pinv_theta) > self.kappa + 1e-12:
            # even the least-squares residual exceeds kappa: the set is empty
            # and the clamped pseudoinverse point is the canonical surrogate
            return _ball_clamp(pinv_theta, self.norm_sq_cap), False
        member, _, feasible = self.project(np.zeros(self.X.shape[1]))
        return member, feasible


def build_confidence_set(
    empirical: EmpiricalMarkovQRE,
    features: np.ndarray,
    eta: float,
    kappa: float,
    norm_sq_cap: float,
) -> ConfidenceSet:
    """Confidence set from a matrix game's empirical marginals (floored
    before log-ratios), as empirical_system reads them."""
    system = empirical_system(empirical, features, eta)
    return ConfidenceSet(system.X, system.y, kappa, norm_sq_cap)


@dataclass(frozen=True)
class FeasibleSet:
    """Exact solution set {theta : X theta = y, ||theta||^2 <= norm_sq_cap},
    represented by the pseudoinverse particular solution plus an orthonormal
    null-space basis."""

    X: np.ndarray
    y: np.ndarray
    norm_sq_cap: float
    particular: np.ndarray = field(init=False)
    null_basis: np.ndarray = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        u, sigma, vt = np.linalg.svd(x, full_matrices=True)
        r = numerical_rank(sigma, x.shape)
        particular = vt[:r].T @ ((u[:, :r].T @ self.y) / sigma[:r])
        object.__setattr__(self, "particular", particular)
        object.__setattr__(self, "null_basis", vt[r:].T)

    @property
    def radius(self) -> float:
        slack = self.norm_sq_cap - float(self.particular @ self.particular)
        return np.sqrt(max(slack, 0.0))

    def is_empty(self) -> bool:
        return float(self.particular @ self.particular) > self.norm_sq_cap + 1e-12

    def _project(self, points: np.ndarray) -> np.ndarray:
        """Exact projections of the rows of `points`: affine projection, then
        the null-space coordinates clamped to the residual-norm ball."""
        if self.is_empty():
            raise ValueError("feasible set is empty: particular solution exceeds the norm cap")
        z = (points - self.particular) @ self.null_basis
        sq, cap = (z * z).sum(axis=1, keepdims=True), self.radius**2
        z *= np.sqrt(np.divide(cap, sq, out=np.ones_like(sq), where=sq > cap))
        return self.particular + z @ self.null_basis.T

    def project(self, point: np.ndarray) -> tuple[np.ndarray, float]:
        """Exact projection: (member, distance)."""
        point = np.asarray(point, dtype=float)
        proj = self._project(point[None])[0]
        return proj, float(np.linalg.norm(point - proj))

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """K points particular + N z with z uniform in the residual ball."""
        if self.is_empty():
            raise ValueError("feasible set is empty: particular solution exceeds the norm cap")
        null_dim = self.null_basis.shape[1]
        if null_dim == 0:
            return np.tile(self.particular, (k, 1))
        return self.particular + _ball_draws(k, null_dim, self.radius, rng) @ self.null_basis.T


def feasible_set_from_policies(
    features: np.ndarray, policies: PolicyPair, eta: float, norm_sq_cap: float
) -> FeasibleSet:
    """Exact feasible set of the QRE constraints at the given (exact) policies."""
    system = build_stepwise_system(
        np.asarray(features, dtype=float)[None], policies.mu[None], policies.nu[None], eta
    )
    return FeasibleSet(system.X, system.y, norm_sq_cap)


def _sample_points(obj, k: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(obj, FeasibleSet):
        return obj.sample(k, rng)
    if isinstance(obj, ConfidenceSet):
        return obj.sample_members(k, rng)
    pts = np.asarray(obj, dtype=float)
    if pts.ndim != 2:
        raise TypeError("point clouds must be 2-D arrays")
    if pts.shape[0] > k:
        idx = rng.choice(pts.shape[0], size=k, replace=False)
        pts = pts[idx]
    return pts


def _distances_to(obj, points: np.ndarray) -> np.ndarray:
    if isinstance(obj, FeasibleSet):
        return np.linalg.norm(points - obj._project(points), axis=1)
    if isinstance(obj, ConfidenceSet):
        members, _ = obj._project(points)
        return np.linalg.norm(points - members, axis=1)
    cloud = np.asarray(obj, dtype=float)
    # plain differences, in chunks of rows, so a cloud point is at distance 0
    rows = max(1, _CLOUD_CHUNK // len(cloud))
    nearest = np.empty(len(points))
    for start in range(0, len(points), rows):
        block = points[start : start + rows]
        sq = sum((block[:, j, None] - cloud[:, j]) ** 2 for j in range(cloud.shape[1]))
        nearest[start : start + rows] = sq.min(axis=1)
    return np.sqrt(nearest)


def hausdorff_estimate(set_a, set_b, k: int = 64, seed: int = 0) -> float:
    """Sampled Hausdorff distance between parameter sets.

    Each set may be a FeasibleSet, a ConfidenceSet, or an (n, d) point cloud.
    Directed distances take the max over K sampled points of one set of the
    distance to the other; distances to either kind of set are exact
    projections, so only the sampling depends on the seed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = stream(seed)
    pts_a = _sample_points(set_a, k, rng)
    pts_b = _sample_points(set_b, k, rng)
    return float(max(_distances_to(set_b, pts_a).max(), _distances_to(set_a, pts_b).max()))

"""Identifiability machinery: the QRE-constraint linear system and its one
SVD, which gives the rank, the minimum-norm estimate, and the confidence and
feasible sets; Hausdorff-distance estimation between parameter sets.

One builder serves both game classes: a Markov step stacks one constraint
block per state, and a matrix game is the single-state case (features with a
leading S=1 axis).

Each system decomposes X once, and one rank cutoff decides identifiability:
at full rank theta is the unique least-squares solution X^+ y; below it
theta is known only up to a set, of which X^+ y is the least-norm point.
A stack of systems, such as the steps of several count tables, is built and
decomposed at once (one batched SVD), each system to the bit as alone.

Distances to a point cloud are bit for bit the plain ones, each point's
least sum of squared coordinate differences in coordinate order, whatever
the BLAS kernel or its thread count; they cost one matmul per block of
points and a recheck of few pairs (_nearest_sq).  The matmul screens the
cloud by |c - t|^2 - 2(p - t).(c - t), t the cloud's mean; each cloud point
within a proven rounding margin of a row's screen minimum gets the plain
sum, and the row takes their least.  One 1,000 x 1,000 pass in R^6 takes
about 3 ms, a quarter of the plain loop's time, on one core of a 2-core
Xeon VM; a cloud of ties, where every pair is a candidate, takes up to
about three times the plain loop's.

Conventions: action 0 is the baseline for both players (log-ratios are taken
against it), and norm caps are on the squared Euclidean norm, so a cap of M
admits exactly the parameters with ||theta||^2 <= M.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from invgame.matrix_game import PolicyPair
from invgame.sampling import EmpiricalMarkovQRE, stream

LOG_FLOOR = 1e-12  # probabilities are floored here before log-ratios
RANK_TOL_FACTOR = 1e-12
_ULPS = 4 * np.finfo(float).eps  # a few ulps, as a relative width
_CLOUD_CHUNK = 1 << 15  # point-cloud screen values, or recheck coordinates, held at once
# step caps of the projection's Newton loops, far above the steps they take
# (setup2: at most 30 outer steps per projection)
MAX_BALL_STEPS = 100
MAX_PROJECTION_STEPS = 100


class ProjectionConvergenceError(RuntimeError):
    """A projection's Newton loop reached its step cap: `multiplier` names the
    loop ("ball" or "residual") and `rows` the unconverged rows of the points
    projected (for the ball solve alone, of its stack)."""

    def __init__(self, multiplier: str, rows, steps: int):
        self.multiplier, self.rows = multiplier, tuple(int(row) for row in rows)
        super().__init__(
            f"the {multiplier} multiplier did not converge in {steps} Newton steps"
            f" at rows {list(self.rows)}"
        )


def floor_distribution(p: np.ndarray) -> np.ndarray:
    """Clip probabilities up to LOG_FLOOR so log-ratios exist, then
    renormalise over the last axis."""
    p = np.maximum(np.asarray(p, dtype=float), LOG_FLOOR)
    return p / p.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class LinearSystem:
    """Stacked QRE constraints X theta = y, read through one cached SVD."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ValueError("X must be 2-D with matching right-hand side")

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
        """(V', sigma, c, ||y_perp||^2, rank): _decompositions of the stack of one."""
        return _decompositions(self.X[None], self.y[None])[0]

    @property
    def rank(self) -> int:
        """Numerical rank of X: theta is identified when it equals d."""
        return self._svd[4]


def _decompositions(X: np.ndarray, y: np.ndarray) -> list[tuple]:
    """(V', sigma, c, ||y_perp||^2, rank) of each system X[i] theta = y[i] of a
    stack, from one batched SVD X = U diag(sigma) V', with c = U'y and sigma, c
    padded to d; the rank counts the singular values above sigma_1 * max(rows,
    d) * RANK_TOL_FACTOR.  Each system's LAPACK and BLAS calls are its own."""
    rows, d = X.shape[1:]
    # a wide X needs the full V for its null space
    u, sigma, vt = np.linalg.svd(X, full_matrices=rows < d)
    u = u[:, :, : sigma.shape[1]]
    c = (u.mT @ y[:, :, None])[:, :, 0]
    y_perp = y - (u @ c[:, :, None])[:, :, 0]
    ranks = (sigma > sigma[:, :1] * max(rows, d) * RANK_TOL_FACTOR).sum(axis=1)
    padded = np.zeros((2, len(X), d))  # sigma and c
    padded[:, :, : sigma.shape[1]] = sigma, c
    y_perp_sq = np.vecdot(y_perp, y_perp)
    return [(vt[i], *padded[:, i], float(y_perp_sq[i]), int(ranks[i])) for i in range(len(X))]


def _confidence_sets(X, y, kappas, norm_sq_cap: float) -> list[ConfidenceSet]:
    """The ConfidenceSet of each system X[i] theta = y[i] of a stack at
    kappas[i], each holding its tuple of the stack's _decompositions."""
    sets = [ConfidenceSet(x, b, float(kappa), norm_sq_cap) for x, b, kappa in zip(X, y, kappas)]
    for cset, svd in zip(sets, _decompositions(X, y)):
        cset.__dict__["_svd"] = svd  # where the cached_property keeps it
    return sets


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
    return LinearSystem(*_stepwise_rows(features, mu_h, nu_h, eta, weights))


def _stepwise_rows(features, mu, nu, eta, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """build_stepwise_system's X (..., rows, d) and y (..., rows) for mu
    (..., S, m), nu (..., S, n) and weights (..., S) under any leading axes,
    each step's system the same to the bit as alone."""
    features = np.asarray(features, dtype=float)
    s_len, m, n, d = features.shape
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    lead = mu.shape[:-2]
    if mu.shape[-2:] != (s_len, m) or nu.shape != (*lead, s_len, n):
        raise ValueError("policy dimensions do not match features")
    if weights is None:
        weights = np.ones(s_len)
    weights = np.broadcast_to(np.asarray(weights, dtype=float), (*lead, s_len))
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    active = weights > 0
    if np.any(mu[active] <= 0) or np.any(nu[active] <= 0):
        raise ValueError("zero probability at a positively weighted state")
    root_w = np.sqrt(weights)
    # A-side: rows (s, a) for a >= 1, contracted against nu(s)
    diff_a = features[:, 1:] - features[:, :1]  # (S, m-1, n, d)
    a_rows = np.einsum("sand,...sn,...s->...sad", diff_a, nu, root_w)
    diff_b = features[:, :, 1:] - features[:, :, :1]  # (S, m, n-1, d)
    b_rows = np.einsum("sabd,...sa,...s->...sbd", diff_b, mu, root_w)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mu = np.where(mu > 0, np.log(np.maximum(mu, 1e-300)), 0.0)
        log_nu = np.where(nu > 0, np.log(np.maximum(nu, 1e-300)), 0.0)
    c = ((log_mu[..., 1:] - log_mu[..., :1]) / eta) * root_w[..., None]
    d_vec = (-(log_nu[..., 1:] - log_nu[..., :1]) / eta) * root_w[..., None]
    X = np.concatenate([a_rows.reshape(*lead, -1, d), b_rows.reshape(*lead, -1, d)], axis=-2)
    return X, np.concatenate([c.reshape(*lead, -1), d_vec.reshape(*lead, -1)], axis=-1)


def min_norm_theta(system: LinearSystem) -> np.ndarray:
    """Moore-Penrose solution X^+ y at the system's rank: the least-squares
    solution of least norm, and at full rank the unique one."""
    vt, sigma, c, _, rank = system._svd
    return vt[:rank].T @ (c[:rank] / sigma[:rank])


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


def _secular_step(f: np.ndarray, slope: np.ndarray, target) -> np.ndarray:
    """Newton step toward f(x) = target on f^(-1/2), f decreasing with slope -f'(x):
    monotone from below for a secular f = sum_i w_i^2 / (s_i + x)^2 (More & Sorensen 1983).
    Formed from f - target, as sqrt(f) - sqrt(target) rounds to 0 an ulp from the root."""
    return 2 * f * (f - target) / (np.sqrt(target) * (np.sqrt(f) + np.sqrt(target)) * slope)


def _ball_solve(a: np.ndarray, den: np.ndarray, cap: float):
    """Rows z = a / (den + nu) for the least nu >= 0 with ||z||^2 <= cap (a and
    den of one shape, den 0 only where a is); also den + nu (1 where it is 0)
    and whether nu > 0.

    One pass at nu = 0 settles every row inside the ball; Newton steps from
    nu = 0, monotone from below, run on the rest alone, each row's the same
    to the bit as in a loop over all rows (an inside row's step is 0 and
    never keeps that loop going).  Raises ProjectionConvergenceError, naming
    the rows still stepping, after MAX_BALL_STEPS steps."""
    shifted = np.where(den > 0, den, 1.0)
    z = a / shifted
    out = np.flatnonzero((z * z).sum(axis=1) > cap)
    active = np.zeros(len(a), dtype=bool)
    if not out.size:
        return z, shifted, active
    a_out, den_out, nu = a[out], den[out], np.zeros((out.size, 1))
    for _ in range(MAX_BALL_STEPS):
        shifted_out = np.where(den_out + nu > 0, den_out + nu, 1.0)
        z_out = a_out / shifted_out
        sq = (z_out * z_out).sum(axis=1, keepdims=True)
        outside = sq > cap
        slope = np.where(outside, 2 * (z_out * z_out / shifted_out).sum(axis=1, keepdims=True), 1.0)
        step = np.where(outside, _secular_step(sq, slope, cap), 0.0)
        stepping = step > 1e-15 * nu
        if not stepping.any():
            break
        nu = nu + step
    else:
        raise ProjectionConvergenceError("ball", out[stepping[:, 0]], MAX_BALL_STEPS)
    z[out], shifted[out], active[out] = z_out, shifted_out, nu[:, 0] > 0
    return z, shifted, active


@dataclass(frozen=True)
class ConfidenceSet(LinearSystem):
    """{theta : ||X theta - y||^2 <= kappa, ||theta||^2 <= norm_sq_cap}.

    An intersection of two convex quadrics, handled exactly in the basis of
    the system's one SVD X = U diag(sigma) V': with z = V' theta and c = U' y
    the residual is sum_i (sigma_i z_i - c_i)^2 + ||y_perp||^2.
    """

    kappa: float
    norm_sq_cap: float

    def __post_init__(self):
        super().__post_init__()
        if not self.kappa >= 0:  # NaN fails this too
            raise ValueError("kappa must be nonnegative")
        if not self.norm_sq_cap > 0:
            raise ValueError("norm cap must be positive")

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
        with lam, mu >= 0: z = V' theta = (V'p + lam sigma c) / (1 + lam sigma^2 + mu),
        mu the ball's secular root.  lam = inf gives the ball's least-residual point;
        the set is empty exactly when that residual, least, exceeds kappa, and then
        every row gets it.  Otherwise Newton steps on (phi - least)^(-1/2) seek the
        least lam with residual phi <= kappa, bisecting the bracket [lo, hi] of lams
        seen infeasible and feasible when they leave it.  A row stops at a feasible
        iterate within a few ulps of kappa or of its step, or once [lo, hi] is a few
        ulps wide; its member is z at hi (p itself for a point of the set).  Each
        step solves the ball multiplier once for the rows still iterating (only
        those outside the ball step it), and builds the active ball's slope term
        only for the rows where it is active.  A stack's members agree with
        one-row calls to rounding, not to the bit (points @ V' takes another
        BLAS kernel).  Raises ProjectionConvergenceError, naming the unconverged
        rows, after MAX_PROJECTION_STEPS steps, or when a ball solve reaches
        MAX_BALL_STEPS (every row when it is the least-residual point's).
        """
        vt, sigma, c, y_perp_sq, _ = self._svd
        q, cap, kappa = points @ vt.T, self.norm_sq_cap, self.kappa
        try:
            z_far, _, _ = _ball_solve((sigma * c)[None], (sigma**2)[None], cap)
        except ProjectionConvergenceError:  # every row's member rests on it
            raise ProjectionConvergenceError("ball", range(len(q)), MAX_BALL_STEPS) from None
        least = ((sigma * z_far - c) ** 2).sum() + y_perp_sq
        z_hi = np.repeat(z_far, len(q), axis=0)
        rows = np.arange(len(q) if least <= kappa else 0)  # the rows still iterating
        at, lo, hi = np.zeros(rows.size), np.zeros(len(q)), np.full(len(q), np.inf)
        for _ in range(MAX_PROJECTION_STEPS):
            if not rows.size:
                break
            a, den = q[rows] + at[:, None] * sigma * c, 1 + at[:, None] * sigma**2
            try:
                z, shifted, active = _ball_solve(a, den, cap)
            except ProjectionConvergenceError as error:  # name the rows of points
                failed = rows[list(error.rows)]
                raise ProjectionConvergenceError("ball", failed, MAX_BALL_STEPS) from None
            r = sigma * z - c
            ok = (phi := (r**2).sum(axis=1) + y_perp_sq) <= kappa
            hi[rows[ok]], z_hi[rows[ok]], lo[rows[~ok]] = at[ok], z[ok], at[~ok]
            lo_r, hi_r, sr = lo[rows], hi[rows], sigma * r
            # -phi'(lam), D = 1 + lam sigma^2 + mu: dz = -(sigma r + z mu') / D with
            # mu' = -sum(z sigma r / D) / sum(z^2 / D) while the ball is active, else 0
            slope = (sr * sr / shifted).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):  # a nan or inf step bisects
                if active.any():
                    z_a, sr_a, shifted_a = z[active], sr[active], shifted[active]
                    u, v = (z_a * sr_a / shifted_a).sum(axis=1), (z_a * z_a / shifted_a).sum(axis=1)
                    slope[active] -= u * u / v
                step = _secular_step(phi - least, 2 * slope, kappa - least)
            close = (np.abs(phi - kappa) <= _ULPS * kappa) | (np.abs(step) <= _ULPS * at)
            # past lam = 1 / _ULPS, z is z_far to rounding
            live = ~(ok & close) & (lo_r < np.minimum(hi_r, 1 / _ULPS) * (1 - _ULPS))
            lam_next = at + step + np.where(close & ~ok, _ULPS * at, 0.0)  # step over
            mid = np.where(hi_r < np.inf, 0.5 * (lo_r + hi_r), 2 * lo_r + 1)  # t-midpoint at inf
            lam_next = np.where((lo_r < lam_next) & (lam_next < hi_r), lam_next, mid)
            rows, at = rows[live], lam_next[live]
        if rows.size:
            raise ProjectionConvergenceError("residual", rows, MAX_PROJECTION_STEPS)
        members = z_hi @ vt
        inside = (hi == 0) & ((points * points).sum(axis=1) <= cap)
        members[inside] = points[inside]
        return members, bool(least <= kappa)

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
        """Canonical point estimate: the minimum-norm solution X^+ y when it
        is a member, otherwise the projection of the origin onto the set.

        The second element is False when the set is empty and the returned
        point is only a surrogate.
        """
        theta = min_norm_theta(self)
        if self.contains(theta, slack=1e-12):
            return theta, True
        if self.residual_sq(theta) > self.kappa + 1e-12:
            # even the least-squares residual exceeds kappa: the set is empty
            # and the clamped minimum-norm point is the canonical surrogate
            return _ball_clamp(theta, self.norm_sq_cap), False
        member, _, feasible = self.project(np.zeros(self.X.shape[1]))
        return member, feasible


def build_confidence_set(
    empirical: EmpiricalMarkovQRE,
    features: np.ndarray,
    eta: float,
    kappa: float,
    norm_sq_cap: float,
) -> ConfidenceSet:
    """Confidence set of a matrix game's constraints at its empirical
    marginals, floored before log-ratios: the estimate's one step, whose one
    state is the matrix game."""
    system = build_stepwise_system(
        np.asarray(features, dtype=float)[None],
        floor_distribution(empirical.mu_hat[0]),
        floor_distribution(empirical.nu_hat[0]),
        eta,
    )
    return ConfidenceSet(system.X, system.y, kappa, norm_sq_cap)


@dataclass(frozen=True)
class FeasibleSet(LinearSystem):
    """Exact solution set {theta : X theta = y, ||theta||^2 <= norm_sq_cap},
    represented by the minimum-norm particular solution plus an orthonormal
    null-space basis, both from the system's one SVD."""

    norm_sq_cap: float

    @cached_property
    def particular(self) -> np.ndarray:
        return min_norm_theta(self)

    @cached_property
    def null_basis(self) -> np.ndarray:
        vt, *_, rank = self._svd
        return vt[rank:].T

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


def _sample_points(obj, k: int, rng: np.random.Generator, dim: int | None = None) -> np.ndarray:
    """K points of a set, or at most K rows of a nonempty, finite cloud,
    checked to lie in R^dim when dim is given."""
    if isinstance(obj, FeasibleSet):
        pts = obj.sample(k, rng)
    elif isinstance(obj, ConfidenceSet):
        pts = obj.sample_members(k, rng)
    else:
        pts = np.asarray(obj, dtype=float)
        if pts.ndim != 2:
            raise TypeError("point clouds must be 2-D arrays")
        if not len(pts):
            raise ValueError("point cloud is empty")
        if not np.isfinite(pts).all():
            raise ValueError("point clouds must be finite")
        if pts.shape[0] > k:
            pts = pts[rng.choice(pts.shape[0], size=k, replace=False)]
    if dim is not None and pts.shape[1] != dim:
        raise ValueError(f"sets in dimensions {dim} and {pts.shape[1]} have no distance")
    return pts


def _distances_to(obj, points: np.ndarray) -> np.ndarray:
    if isinstance(obj, FeasibleSet):
        return np.linalg.norm(points - obj._project(points), axis=1)
    if isinstance(obj, ConfidenceSet):
        members, _ = obj._project(points)
        return np.linalg.norm(points - members, axis=1)
    return np.sqrt(_nearest_sq(np.asarray(obj, dtype=float), np.asarray(points, dtype=float)))


def _nearest_sq(cloud: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared distance from each point p to its nearest point c of a finite
    cloud, bit for bit the minimum over the cloud of the plain sum
    D(c) = fl(sum_k fl(fl(p_k - c_k)^2)) in coordinate order, whatever the
    BLAS kernel, its summation order or its thread count.

    Screen.  With t the cloud's mean, u = fl(p - t) and v = fl(c - t), one
    matmul of the rows [-2u, 1] with the columns [v, fl(|v|^2)] gives
    s(c) ~ |v|^2 - 2 u.v, and |u - v|^2 = |u|^2 + s(c) exactly, so s ranks
    the cloud as |p - c|^2 does, up to rounding.  With w = eps/2,
    S = |u|^2 + max_c |v|^2 and E(c) = |p - c|^2 in exact arithmetic, each
    bound to first order in w:
      (a) |D - E| <= (d + 2) w E: three roundings per term, d - 1 additions;
          and E <= (|u| + |v|)^2 <= 2S, so |D - E| <= 2(d + 2) w S.
      (b) u - v differs from p - c by at most w(|u| + |v|) in norm, so
          | |u - v|^2 - E | <= 2w(|u| + |v|)^2 <= 4wS.
      (c) the |v|^2 column is off by at most d w |v|^2, and a dot product
          of d + 1 terms, summed in any order with or without FMA, by at
          most (d + 1) w sum_k |x_k y_k| <= 2(d + 1) w S; together
          <= (3d + 2) w S.
    So D(c) = |u|^2 + s(c) + r(c) with |r| <= R = (5d + 10) w S.  If c* has
    the least D and m the least s, then s(c*) - R <= D(c*) - |u|^2 <=
    D(m) - |u|^2 <= s(m) + R, so s(c*) <= s(m) + (5d + 10) eps S.  The
    margin 8(d + 4) eps S leaves (3d + 22) eps S for rounding the threshold
    s(m) + margin (under 2 eps S), computing S and the margin, and
    second-order terms.  Products below the normal range err by at most half the
    smallest subnormal each, 3d + 1 of them per value, which the margin's
    absolute term 8(d + 4) * smallest_subnormal covers.  Below
    S <= max / 16 no step overflows; a row above it, or whose threshold is
    not finite, is a candidate at every cloud point.

    Recheck.  The candidates, the cloud points whose s is at most the
    row's threshold, include c*; each gets the plain sum D, and the row
    takes their least, which is D(c*).  The screen holds _CLOUD_CHUNK
    values of rows x cloud points at once.  Candidates are held across
    blocks until _CLOUD_CHUNK / d pairs (or one block's) are held, and are
    then rechecked together, gathering at most _CLOUD_CHUNK coordinates
    of each side at once."""
    n, d = cloud.shape
    mean = cloud.mean(axis=0)
    columns = np.empty((d + 1, n))  # [v, |v|^2] as columns of the matmul
    queries = np.empty((len(points), d + 1))  # [-2u, 1] as rows
    with np.errstate(over="ignore", invalid="ignore"):  # S > max / 16: rechecked in full
        np.subtract(cloud, mean, out=columns[:d].T)
        np.einsum("ij,ij->j", columns[:d], columns[:d], out=columns[d])
        np.subtract(points, mean, out=queries[:, :d])
        scale = np.einsum("ij,ij->i", queries[:, :d], queries[:, :d])  # S per row
        scale += columns[d].max()
    queries[:, :d] *= -2.0
    queries[:, d] = 1.0
    unbounded = ~(scale <= np.finfo(float).max / 16)
    margin = scale  # 8(d + 4)(eps S + smallest_subnormal), in place
    margin *= 8 * (d + 4) * np.finfo(float).eps
    margin += 8 * (d + 4) * np.finfo(float).smallest_subnormal
    margin[unbounded] = np.inf
    rows = max(1, _CLOUD_CHUNK // n)
    pairs = max(1, _CLOUD_CHUNK // d)  # candidate pairs held, and rechecked, at once
    nearest = np.empty(len(points))

    held_rows, held_cols = [], []  # candidates of rows held_from.. not yet rechecked
    held_from = 0

    def recheck(stop: int) -> None:
        """nearest[held_from:stop], the least plain sum over each row's
        held candidates."""
        nonlocal held_from
        hit_rows, hit_cols = (np.concatenate(a) if len(a) > 1 else a[0] for a in (held_rows, held_cols))
        held_rows.clear()
        held_cols.clear()
        sums = np.empty(len(hit_rows))
        for lo in range(0, len(hit_rows), pairs):
            sq = np.take(points, hit_rows[lo : lo + pairs], axis=0)
            sq -= np.take(cloud, hit_cols[lo : lo + pairs], axis=0)
            sq *= sq
            acc = sums[lo : lo + pairs]
            acc[:] = sq[:, 0]
            for j in range(1, d):
                acc += sq[:, j]
        # every row has a candidate, its screen minimum, so each run is nonempty
        runs = np.searchsorted(hit_rows, np.arange(held_from, stop))
        nearest[held_from:stop] = np.minimum.reduceat(sums, runs)
        held_from = stop

    screen_buf = np.empty((min(rows, len(points)), n))
    held = 0
    for start in range(0, len(points), rows):
        block = queries[start : start + rows]
        with np.errstate(over="ignore", invalid="ignore"):  # such rows are not finite
            screen = np.matmul(block, columns, out=screen_buf[: len(block)])
            threshold = screen.min(axis=1)
            threshold += margin[start : start + rows]
        candidates = screen <= threshold[:, None]
        unscreened = ~np.isfinite(threshold)
        if unscreened.any():
            candidates[unscreened] = True
        hit_cols = np.flatnonzero(candidates)  # row-major; 2-D nonzero is slow
        hit_rows = hit_cols // n
        hit_cols -= hit_rows * n
        hit_rows += start
        if held and held + len(hit_rows) > pairs:
            recheck(start)
            held = 0
        held_rows.append(hit_rows)
        held_cols.append(hit_cols)
        held += len(hit_rows)
        if held >= pairs:  # a block's worth already: recheck it while it is in cache
            recheck(start + len(block))
            held = 0
    if held:
        recheck(len(points))
    return nearest


def hausdorff_estimate(set_a, set_b, k: int = 64, seed: int = 0) -> float:
    """Sampled Hausdorff distance between parameter sets.

    Each set may be a FeasibleSet, a ConfidenceSet, or a nonempty, finite
    (n, d) point cloud, both in one dimension d.  Directed distances take the max
    over K sampled points of one set of the distance to the other; distances
    to either kind of set are exact projections, so only the sampling
    depends on the seed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = stream(seed)
    pts_a = _sample_points(set_a, k, rng)
    pts_b = _sample_points(set_b, k, rng, dim=pts_a.shape[1])
    return float(max(_distances_to(set_b, pts_a).max(), _distances_to(set_a, pts_b).max()))

"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own solution paths:
scalar loops, bisection on 1-D reductions, brute-force grids, and Monte
Carlo rollouts.  The exceptions are full_rank_oracle_model, a test-only
instance builder that solves its stage games with solve_qre_batch;
sample_episodes_by_gather and sample_matrix_actions_by_searchsorted, the
earlier bodies of sample_episodes and sample_matrix_actions, which draw from
the library's stream; and recover_rewards_on_truth,
which runs the library's backward pass on the true policies and kernel
(and reads the visit weights of the library's count table).  The earlier
estimator bodies (mle_fit_by_einsum, ridge_fit_by_gather and
frequency_estimate_by_step) count the dataset themselves, mle_fit_alone is
mle_fit's earlier one-fit loop on the library's count table,
qre_by_damped_iteration is solve_qre_batch's earlier damped fixed point,
project_by_bisection is ConfidenceSet._project's earlier bisection in t,
which reads the set's cached SVD, svd_by_pad is LinearSystem._svd's
earlier body, one SVD per system, summarize_by_metric is cli.summarize's
earlier body, one np.percentile call per (size, metric), and
nearest_sq_by_differences is the earlier point-cloud branch of
inverse_matrix._distances_to, before its square root.  The two MLE bodies read the library's stopping rule,
inverse_markov.MLE_MAX_ITER and MLE_TOL, at call time.  tv, the total
variation distance, is test-only: the library's discrepancies sum it
inline.  assert_bit_identical, assert_fits_alone and
assert_sets_bit_identical compare results to the last bit, and stacked_case
builds a markov instance's nested count tables and their inversion config,
as the runner does.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from invgame import experiments, inverse_markov
from invgame.experiments import ETA, MARKOV_OMEGA
from invgame.inverse_markov import MleFit, SoftmaxPolicyModel, stepwise_confidence_sets
from invgame.inverse_matrix import floor_distribution
from invgame.markov_game import MarkovGameSpec
from invgame.matrix_game import QreConvergenceError, solve_qre_batch, stage_values
from invgame.sampling import (
    EpisodeDataset,
    empirical_state_distribution,
    prefix_counts,
    step_counts,
    stream,
)


def payoff_by_scalar_loops(features: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Entrywise inner products computed with explicit Python loops."""
    m, n, d = features.shape
    out = np.zeros((m, n))
    for a in range(m):
        for b in range(n):
            acc = 0.0
            for k in range(d):
                acc += features[a, b, k] * theta[k]
            out[a, b] = acc
    return out


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def qre_2x2_bisection(q: np.ndarray, eta: float, tol: float = 1e-14):
    """QRE of a 2x2 game via bisection on the scalar fixed point for nu_1.

    Parameterize nu = (v, 1-v).  Given v, the row response is
    mu = softmax(eta * Q nu) and the column response maps back to a new
    v' = sigmoid(-eta * ((Q' mu)_1 - (Q' mu)_2)).  The composed map is a
    monotone contraction in v, so g(v) = v' - v has a unique root.
    """
    q = np.asarray(q, dtype=float)
    assert q.shape == (2, 2)

    def composed(v: float) -> float:
        nu = np.array([v, 1.0 - v])
        row_gap = eta * (q @ nu)
        mu1 = _sigmoid(row_gap[0] - row_gap[1])
        mu = np.array([mu1, 1.0 - mu1])
        col_gap = -eta * (q.T @ mu)
        return _sigmoid(col_gap[0] - col_gap[1])

    lo, hi = 0.0, 1.0
    # g(v) = composed(v) - v goes from >=0 at 0 to <=0 at 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if composed(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    v = 0.5 * (lo + hi)
    nu = np.array([v, 1.0 - v])
    row_gap = eta * (q @ nu)
    mu1 = _sigmoid(row_gap[0] - row_gap[1])
    return np.array([mu1, 1.0 - mu1]), nu


def backward_values_2x2(rewards, transition, eta, gamma):
    """Backward recursion for S-state 2x2-action games via the bisection oracle.

    rewards: (H, S, 2, 2); transition: (H, S, 2, 2, S).  Returns the (H+1, S)
    value table (last row zero) and the per-step stage policies.
    """
    rewards = np.asarray(rewards, dtype=float)
    transition = np.asarray(transition, dtype=float)
    h_len, s_len = rewards.shape[0], rewards.shape[1]
    values = np.zeros((h_len + 1, s_len))
    policies = []
    for h in range(h_len - 1, -1, -1):
        stage = []
        for s in range(s_len):
            q_stage = rewards[h, s] + gamma * transition[h, s] @ values[h + 1]
            mu, nu = qre_2x2_bisection(q_stage, eta)
            ent_mu = -(mu * np.log(mu)).sum()
            ent_nu = -(nu * np.log(nu)).sum()
            values[h, s] = mu @ q_stage @ nu + (ent_mu - ent_nu) / eta
            stage.append((mu, nu))
        policies.insert(0, stage)
    return values, policies


def simplex_mesh(dim: int, points_per_edge: int) -> np.ndarray:
    """All probability vectors with entries k / points_per_edge."""
    grids = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            grids.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], points_per_edge, dim)
    return np.array(grids, dtype=float) / points_per_edge


def rollout_state_frequencies(
    initial: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    transition: np.ndarray,
    episodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo state-occupancy frequencies under given stage policies.

    mu: (H, S, m); nu: (H, S, n); transition: (H, S, m, n, S).
    Vectorized over episodes but independent of the library's exact
    distribution recursion.
    """
    h_len, s_len, m = mu.shape
    n = nu.shape[2]
    freq = np.zeros((h_len, s_len))
    state = rng.choice(s_len, size=episodes, p=initial)
    for h in range(h_len):
        freq[h] = np.bincount(state, minlength=s_len) / episodes
        cum_mu = np.cumsum(mu[h], axis=1)
        cum_nu = np.cumsum(nu[h], axis=1)
        a = (rng.random(episodes)[:, None] > cum_mu[state]).sum(axis=1)
        b = (rng.random(episodes)[:, None] > cum_nu[state]).sum(axis=1)
        cum_p = np.cumsum(transition[h], axis=3)
        state = (rng.random(episodes)[:, None] > cum_p[state, a, b]).sum(axis=1)
    return freq


def matrix_linear_system(
    features: np.ndarray, mu: np.ndarray, nu: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The m+n-2 QRE constraints of a matrix game, written for features of
    shape (m, n, d) without a state axis.

    Rows a = 1..m-1:  <(phi(a,.) - phi(0,.)) nu, theta> = log(mu_a/mu_0)/eta
    Rows b = 1..n-1:  <(phi(.,b) - phi(.,0))' mu, theta> = -log(nu_b/nu_0)/eta
    """
    features = np.asarray(features, dtype=float)
    a_block = np.einsum("and,n->ad", features[1:] - features[0], nu)
    b_block = np.einsum("abd,a->bd", features[:, 1:] - features[:, :1], mu)
    c = (np.log(mu[1:]) - np.log(mu[0])) / eta
    d = -(np.log(nu[1:]) - np.log(nu[0])) / eta
    return np.vstack([a_block, b_block]), np.concatenate([c, d])


def marginals_by_bincount(actions: np.ndarray, n_actions: int) -> np.ndarray:
    """A matrix game's empirical marginal: each action's count over N."""
    return np.bincount(actions, minlength=n_actions) / actions.size


def tv(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance, half the L1 distance."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())


def hellinger_sq(p: np.ndarray, q: np.ndarray) -> float:
    """Squared Hellinger distance with the 1/2 convention, so TV <= sqrt(2 H^2)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return float(0.5 * ((np.sqrt(p) - np.sqrt(q)) ** 2).sum())


def theoretical_kappa(
    features: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    norm_sq_cap: float,
    eta: float,
    eps1: float,
    eps2: float,
) -> float:
    """Containment threshold from the construction-error analysis, with
    features (S, m, n, d) and plug-in conditionals mu (S, m), nu (S, n); a
    matrix game is S=1.

    Phi_1 stacks phi(s,a,.) - phi(s,0,.) over states and a >= 1, and Phi_2
    stacks phi(s,.,b) - phi(s,.,0) over states and b >= 1, as d-row
    matrices.  The a-rows are contracted against nu, so Phi_1's norm pairs
    with nu's error eps2; the b-rows pair with mu's error eps1.  Meaningful
    when eps1 < min(mu) and eps2 < min(nu).
    """
    features = np.asarray(features, dtype=float)
    s_len, m, n, d = features.shape
    phi1 = np.concatenate(
        [features[s, a] - features[s, 0] for s in range(s_len) for a in range(1, m)]
    ).T
    phi2 = np.concatenate(
        [features[s, :, b] - features[s, :, 0] for s in range(s_len) for b in range(1, n)]
    ).T
    phi1_op = np.linalg.norm(phi1, 2)
    phi2_op = np.linalg.norm(phi2, 2)
    a_side = norm_sq_cap * phi1_op**2 * eps2**2 + s_len * m * eps1**2 / (
        eta**2 * (mu.min() - eps1) ** 2
    )
    b_side = norm_sq_cap * phi2_op**2 * eps1**2 + s_len * n * eps2**2 / (
        eta**2 * (nu.min() - eps2) ** 2
    )
    return 2.0 * (a_side + b_side)


def recover_rewards_on_truth(data, config, truth, transition, mle=False):
    """recover_rewards' backward pass with the true stage policies in place
    of the estimated QRE and the true kernel (H, S, m, n, S) in place of the
    ridge predictor: the plug-in identity, exact at kappa 0.  States weigh 1
    each, or their empirical visit probability under mle, as in the drivers.
    """
    weights = (
        empirical_state_distribution(data, *truth.mu.shape[1:], truth.nu.shape[2])
        if mle
        else np.ones(truth.mu.shape[:2])
    )
    estimates = inverse_markov._Estimates(  # of the stack of one table
        floor_distribution(truth.mu)[None], floor_distribution(truth.nu)[None], weights[None]
    )
    sets = stepwise_confidence_sets([data], config, estimates)
    return inverse_markov._backward_pass(
        config, estimates, sets, lambda h, v_next: (transition[h] @ v_next[0])[None]
    )[0]


def payoff_from_features(model) -> np.ndarray:
    """Contract the feature tensor with theta: Q[a, b] = <phi(a,b), theta>."""
    return model.features @ model.theta


def tv_error_bound(support: int, n_samples: int, delta: float) -> float:
    """High-probability bound on TV(freq estimate, truth): the mean term
    sqrt(support/N)/2 plus the bounded-difference deviation term."""
    return 0.5 * np.sqrt(support / n_samples) + np.sqrt(
        np.log(2.0 / delta) / (2.0 * n_samples)
    )


def check_well_posedness(state_dists: np.ndarray, c: float) -> tuple[bool, float]:
    """Whether every state is visited with probability >= c at every step."""
    if not c > 0:
        raise ValueError("c must be positive")
    minimum = float(np.min(state_dists))
    return minimum >= c, minimum


def loglog_slope(sample_sizes: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares slope of log(error) against log(N)."""
    x = np.log(np.asarray(sample_sizes, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    x_centered = x - x.mean()
    return float((x_centered @ (y - y.mean())) / (x_centered @ x_centered))


def rows_by_join(table: np.ndarray) -> bytes:
    """An integer table's rows formatted one at a time with str(int(x)),
    joined by "," and ended by "\n": the byte oracle of the dataset writer."""
    lines = (",".join(str(int(x)) for x in row) + "\n" for row in table)
    return "".join(lines).encode("ascii")


def dataset_file_by_join(data) -> bytes:
    """A dataset file's bytes, formatted row by row from the whole table."""
    t, h_len = data.states.shape
    table = np.column_stack(
        [
            np.repeat(np.arange(t), h_len),
            np.tile(np.arange(h_len), t),
            data.states.ravel(),
            data.actions_a.ravel(),
            data.actions_b.ravel(),
            data.next_states.ravel(),
        ]
    )
    return b"episode,step,state,action_a,action_b,next_state\n" + rows_by_join(table)


def feasible_projection_by_clamp(feasible, point: np.ndarray) -> np.ndarray:
    """Projection of one point onto a FeasibleSet: its null-space coordinates
    about the particular solution, scaled back into the residual ball."""
    z = feasible.null_basis.T @ (point - feasible.particular)
    norm = float(np.sqrt(z @ z))
    if norm > feasible.radius:
        z = z * (feasible.radius / norm)
    return feasible.particular + feasible.null_basis @ z


def nearest_sq_by_differences(points: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Squared distance from each point to its nearest cloud point: plain
    differences, so a cloud point is at distance 0, squared and summed in
    coordinate order, for every (point, cloud point) pair."""
    columns = np.ascontiguousarray(cloud.T)  # one contiguous row per coordinate
    rows = max(1, (1 << 14) // len(cloud))
    nearest = np.empty(len(points))
    for start in range(0, len(points), rows):
        block = points[start : start + rows]
        acc = np.square(block[:, 0, None] - columns[0])
        for j in range(1, len(columns)):
            acc += np.square(block[:, j, None] - columns[j])
        nearest[start : start + rows] = acc.min(axis=1)
    return nearest


_BISECTIONS = 53  # resolves t in [0, 1] to 2^-53, the spacing of doubles below 1


def project_by_bisection(cset, points: np.ndarray) -> tuple[np.ndarray, bool]:
    """ConfidenceSet._project's earlier body: exact projections of the rows of
    `points` and whether the set is nonempty.

    The projection theta of p solves p - theta = lam X'(X theta - y) + mu theta
    with lam, mu >= 0: for t = lam / (1 + lam) it minimises (1-t) ||theta - p||^2
    + t ||X theta - y||^2 over the ball, whose multiplier is a secular root.  The
    residual does not increase with t, so bisection finds the least t within
    kappa.  At t = 1 theta is the least-residual point of the ball; the set is
    empty exactly when that residual exceeds kappa, and then every row gets it.
    """
    vt, sigma, c, y_perp_sq, _ = cset._svd
    q = points @ vt.T
    cap, radius = cset.norm_sq_cap, np.sqrt(cset.norm_sq_cap)

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
        return z, ((sigma * z - c) ** 2).sum(axis=1) + y_perp_sq <= cset.kappa

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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def qre_by_damped_iteration(
    payoffs: np.ndarray, eta: float, tol: float = 1e-12, max_iter: int = 100_000
) -> tuple[np.ndarray, np.ndarray]:
    """solve_qre_batch as it was before the Newton continuation: a damped
    fixed-point iteration in logit space.  From the current pair the softmax
    best-response logits are mixed into the old logits with weight 0.5; a
    game whose residual stalls for 500 iterations has its weight halved
    (down to 1/1024).  A game stops when both the sup-norm policy change and
    the fixed-point residual drop below `tol`.  Linear convergence, thousands
    of iterations on strongly scaled payoffs: the reference the Newton
    solutions are compared against."""
    q = np.ascontiguousarray(payoffs, dtype=float)
    b_len, m, n = q.shape
    log_mu_out, log_nu_out = np.empty((b_len, m)), np.empty((b_len, n))
    live = np.arange(b_len)
    log_mu, log_nu = np.full((b_len, m), -np.log(m)), np.full((b_len, n), -np.log(n))
    alpha = np.full((b_len, 1), 0.5)
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
                mu, nu = np.exp(log_mu_out), np.exp(log_nu_out)
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


def mle_fit_by_einsum(
    data: EpisodeDataset, model: SoftmaxPolicyModel, step: int, player: str
) -> MleFit:
    """mle_fit's projected-gradient loop as it was before the count-table
    rewrite: each iteration re-forms the (S, m) log-likelihood and takes the
    gradient by two einsums over the (S, m, d) feature products, and the
    gradient mapping is L * ||theta - theta'||.  The reference the rewrite's
    iterates are compared against."""
    if player not in ("a", "b"):
        raise ValueError("player must be 'a' or 'b'")
    data.check(*model.psi_a.shape[:2], model.psi_b.shape[1])
    psi = model.psi_a if player == "a" else model.psi_b
    actions = data.actions_a if player == "a" else data.actions_b
    s_len, n_actions, dim = psi.shape
    counts = np.bincount(
        data.states[:, step].astype(np.intp) * n_actions + actions[:, step],  # no wrap
        minlength=s_len * n_actions,
    ).reshape(s_len, n_actions).astype(float)
    total = counts.sum()
    if total == 0:
        raise ValueError(f"no samples at step {step}")
    state_counts = counts.sum(axis=1)
    scale = model.feature_scale
    lipschitz = max(scale**2, 1e-12)

    def clamp(theta):  # onto the unit ball
        norm = np.linalg.norm(theta)
        return theta * (1.0 / norm) if norm > 1.0 else theta

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
    for iterations in range(1, inverse_markov.MLE_MAX_ITER + 1):
        nll, grad = objective_and_grad(theta)
        trace.append(nll)
        new_theta = clamp(theta - grad / lipschitz)
        gradient_mapping = lipschitz * np.linalg.norm(theta - new_theta)
        theta = new_theta
        if gradient_mapping <= inverse_markov.MLE_TOL:
            converged = True
            break
    return MleFit(theta, np.array(trace), iterations, converged)


def mle_fit_alone(
    data: EpisodeDataset, model: SoftmaxPolicyModel, step: int, player: str
) -> MleFit:
    """mle_fit's projected-gradient loop as it was before the lockstep: one
    fit alone, on the step's (S, actions) marginal of the count table, with
    Python-scalar norms.  The reference the stacked fits' iterates are
    compared against, to the last bit."""
    if player not in ("a", "b"):
        raise ValueError("player must be 'a' or 'b'")
    table = step_counts(data, *model.psi_a.shape[:2], model.psi_b.shape[1])[step]
    psi = model.psi_a if player == "a" else model.psi_b
    s_len, n_actions, dim = psi.shape
    counts = table.sum(axis=(2, 3) if player == "a" else (1, 3)).astype(float)
    total = counts.sum()
    if total == 0:
        raise ValueError(f"no samples at step {step}")
    lipschitz = max(model.feature_scale**2, 1e-12)
    flat = psi.reshape(-1, dim)
    weights = counts.sum(axis=1) / total
    observed = counts.ravel() @ flat / total

    theta = np.zeros(dim)
    trace = []
    converged = False
    iterations = 0
    for iterations in range(1, inverse_markov.MLE_MAX_ITER + 1):
        logits = (flat @ theta).reshape(s_len, n_actions)
        shift = logits.max(axis=1)
        e = np.exp(logits - shift[:, None])
        z = e.sum(axis=1)
        trace.append(weights @ (np.log(z) + shift) - observed @ theta)
        grad = flat.T @ (e * (weights / z)[:, None]).ravel() - observed
        new_theta = theta - grad / lipschitz
        norm = math.sqrt(new_theta @ new_theta)
        if norm > 1.0:  # onto the unit ball
            new_theta = new_theta * (1.0 / norm)
            moved = theta - new_theta
            gradient_mapping = lipschitz * math.sqrt(moved @ moved)
        else:
            gradient_mapping = math.sqrt(grad @ grad)
        theta = new_theta
        if gradient_mapping <= inverse_markov.MLE_TOL:
            converged = True
            break
    return MleFit(theta, np.array(trace), iterations, converged)


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


def sample_episodes_by_gather(spec, policies, initial, n_episodes, seed, rep=0):
    """sample_episodes' earlier body: episode-major (T, H) arrays, each step's
    draws counted across a (T, k) gather of the cumulative table's rows,
    under the half-open rule (u >= cum: category j takes [cum[j-1], cum[j])).
    The same Philox calls in the same order, so the same datasets: no draw
    for a one-state chain, which is state 0 throughout."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    rng = stream(seed, rep)
    h_len = spec.H
    t = n_episodes
    states = np.zeros((t, h_len), dtype=np.int64)
    acts_a = np.zeros((t, h_len), dtype=np.int64)
    acts_b = np.zeros((t, h_len), dtype=np.int64)
    nexts = np.zeros((t, h_len), dtype=np.int64)
    s = np.zeros(t, dtype=np.int64)
    if spec.S > 1:
        cum_init = np.cumsum(np.asarray(initial, dtype=float))
        s = (rng.random(t)[:, None] >= cum_init[:-1]).sum(axis=1)
    cum_p = np.cumsum(spec.transition, axis=4)
    for h in range(h_len):
        states[:, h] = s
        cum_mu = np.cumsum(policies.mu[h], axis=1)
        cum_nu = np.cumsum(policies.nu[h], axis=1)
        a = (rng.random(t)[:, None] >= cum_mu[s, :-1]).sum(axis=1)
        b = (rng.random(t)[:, None] >= cum_nu[s, :-1]).sum(axis=1)
        if spec.S > 1:
            s = (rng.random(t)[:, None] >= cum_p[h][s, a, b, :-1]).sum(axis=1)
        acts_a[:, h], acts_b[:, h], nexts[:, h] = a, b, s
    return EpisodeDataset(states, acts_a, acts_b, nexts)


def sample_matrix_actions_by_searchsorted(policies, n_samples, seed, rep=0):
    """sample_matrix_actions' earlier body: a, then b, each N draws by
    searchsorted(side="right") on its cumulative distribution with the last
    entry left out, as N one-step episodes at state 0."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = stream(seed, rep)
    a, b = (
        np.searchsorted(np.cumsum(p)[:-1], rng.random(n_samples), side="right").astype(np.int64)
        for p in (policies.mu, policies.nu)
    )
    state = np.zeros((n_samples, 1), dtype=np.int64)
    return EpisodeDataset(state, a[:, None], b[:, None], state)


def step_counts_by_add_at(data, s_len, m, n):
    """The (H, S, m, n, S) table N_h(s, a, b, s'), scattered one episode per
    unit with np.add.at."""
    table = np.zeros((data.horizon, s_len, m, n, s_len), dtype=np.int64)
    for h in range(data.horizon):
        cells = (data.states[:, h], data.actions_a[:, h], data.actions_b[:, h])
        np.add.at(table[h], cells + (data.next_states[:, h],), 1)
    return table


def frequency_estimate_by_step(data, s_len, m, n):
    """frequency_estimate_markov's earlier body: each step's (state, action)
    pairs counted by their own bincount.  Returns (mu_hat, nu_hat, counts)."""
    h_len = data.horizon
    counts = np.zeros((h_len, s_len), dtype=np.int64)
    mu_hat, nu_hat = np.zeros((h_len, s_len, m)), np.zeros((h_len, s_len, n))
    for h in range(h_len):
        s_col = data.states[:, h].astype(np.intp)  # any index dtype: no wrap
        counts[h] = np.bincount(s_col, minlength=s_len)
        denom = np.maximum(counts[h], 1)[:, None]
        for out, actions, k in ((mu_hat, data.actions_a, m), (nu_hat, data.actions_b, n)):
            pairs = np.bincount(s_col * k + actions[:, h], minlength=s_len * k)
            out[h] = pairs.reshape(s_len, k) / denom
    mu_hat[counts == 0] = 1.0 / m
    nu_hat[counts == 0] = 1.0 / n
    return mu_hat, nu_hat, counts


def summarize_by_metric(records, metric_fields):
    """cli.summarize's earlier body: per sample size and metric, the mean and
    2.5/97.5 percentiles of the metric's 1-D array over the records that did
    not fail, leaving out a metric some record lacks."""
    rows = []
    for size in sorted({r.sample_size for r in records}):
        group = [r for r in records if r.sample_size == size and not r.error]
        if not group:
            continue
        for metric in metric_fields:
            values = [getattr(r, metric) for r in group]
            if any(v is None for v in values):
                continue
            arr = np.array(values, dtype=float)
            lo, hi = np.percentile(arr, (2.5, 97.5))
            rows.append((group[0].experiment, size, metric, float(arr.mean()), lo, hi))
    return rows


def svd_by_pad(system):
    """LinearSystem._svd's earlier body: one SVD of the system alone, with
    sigma and c zero-padded to d by np.pad."""
    rows, d = system.X.shape
    u, sigma, vt = np.linalg.svd(system.X, full_matrices=rows < d)
    c = u[:, : sigma.size].T @ system.y
    y_perp = system.y - u[:, : sigma.size] @ c
    cutoff = sigma[0] * max(rows, d) * 1e-12 if sigma.size else 0.0
    rank = int((sigma > cutoff).sum())
    pad = (0, d - sigma.size)
    return vt, np.pad(sigma, pad), np.pad(c, pad), float(y_perp @ y_perp), rank


def ridge_fit_by_gather(data, features, ridge_lambda, step):
    """ridge_fit's earlier body: the step's (T, d) feature rows gathered one
    per episode, Lambda = Phi' Phi + lambda I, and the prediction weights
    Lambda^-1 Phi' V(s').  Returns (gram, value_weights)."""
    features = np.asarray(features, dtype=float)
    phi_t = features[data.states[:, step], data.actions_a[:, step], data.actions_b[:, step]]
    gram = phi_t.T @ phi_t + ridge_lambda * np.eye(features.shape[3])
    next_states = data.next_states[:, step]

    def value_weights(v_next):
        return np.linalg.solve(gram, phi_t.T @ np.asarray(v_next, dtype=float)[next_states])

    return gram, value_weights


def assert_bit_identical(got, expected):
    """Equal to the last bit, field by field through dataclasses and sequences."""
    if dataclasses.is_dataclass(expected):
        for field in dataclasses.fields(expected):
            assert_bit_identical(getattr(got, field.name), getattr(expected, field.name))
    elif isinstance(expected, (list, tuple)):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_bit_identical(g, e)
    elif isinstance(expected, np.ndarray):  # signed zeros and NaN payloads too
        assert type(got) is np.ndarray and (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()
    else:
        assert type(got) is type(expected) and np.array_equal(got, expected)


def assert_fits_alone(data, sizes, model, stacked=None):
    """Each fit of one lockstep loop over the nested tables of data at sizes
    (fit_every_step's, or stacked, a recovery's, when given) is the one-fit
    loop's on its episodes alone and, unless given, mle_fit's, to the last
    bit.  Returns the lockstep fits, by size, then player, then step."""
    tables = prefix_counts(data, sizes, *model.psi_a.shape[:2], model.psi_b.shape[1])
    one_fit = stacked is None
    if one_fit:
        stacked = inverse_markov.fit_every_step(tables, model)
    for size, fits in zip(sizes, stacked, strict=True):
        for player in "ab":
            for step, fit in enumerate(fits[player]):
                alone = mle_fit_alone(data.prefix(size), model, step, player)
                assert_bit_identical(fit, alone)
                if one_fit:
                    fit = inverse_markov.mle_fit(data.prefix(size), model, step, player)
                    assert_bit_identical(fit, alone)
    return stacked


def assert_sets_bit_identical(got, expected):
    """Each set's X, y, kappa and cap, and its SVD tuple, to the last bit."""
    assert_bit_identical(got, expected)
    for cset, alone in zip(got, expected, strict=True):
        assert_bit_identical(cset._svd, alone._svd)


def stacked_case(estimator, sizes, seed=31, **shape):
    """A markov instance's tabular game, true values and dataset, its nested
    count tables at sizes, and an inversion config of the estimator at each
    size's per-step thresholds, (K, H)."""
    config = experiments.ExperimentConfig(
        "markov", seed=seed, samples=tuple(sizes), policy_estimator=estimator, **shape
    )
    model, spec, (_, values), data = experiments._instance(config, 0, max(sizes))
    tables = prefix_counts(data, sizes, spec.S, spec.m, spec.n)
    mle = estimator == "mle"
    inversion = inverse_markov.InversionConfig(
        features=model.features, eta=config.eta, gamma=config.gamma,
        kappa=np.stack([experiments._thresholds(config, table) for table in tables]),
        ridge_lambda=config.ridge_lambda, theta_norm_cap=experiments.MARKOV_THETA_CAP,
        policy_model=experiments.saturated_policy_model(spec.S, spec.m, spec.n) if mle else None,
    )
    return spec, values, data, tables, inversion

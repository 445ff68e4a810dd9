"""Stepwise inversion for Markov games: per-step confidence sets over
Q-function parameters, ridge-regression transition estimates, Bellman plug-in
reward recovery, and MLE-based softmax policy estimation.  The constraint
builder is `inverse_matrix.build_stepwise_system`, re-exported here.

Two drivers are provided: `recover_rewards` (frequency-estimated policies,
equal state weights) and `recover_rewards_mle` (softmax-MLE policies with
empirical visit-probability weights).  They differ only in their estimates
and run the same backward pass: confidence set -> Q and V estimates -> ridge
transition -> plug-in reward.  Every estimator reads the data only through
its count table (`sampling.step_counts`), so each takes a dataset or that
table.

The drivers, stepwise_confidence_sets and ridge_fit also take a list of K
datasets or tables of one shape and horizon (an experiment's sample sizes)
in one stacked pass: one einsum per side builds the K x H stepwise systems,
one batched SVD decomposes them, each step's ridge fits are formed for all
K at once and one backward pass walks the H steps.  A dataset or table
alone is the stack of one, and each table's result is the one it gives
alone, to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from invgame.inverse_matrix import (
    ConfidenceSet,
    _confidence_sets,
    _stepwise_rows,
    build_stepwise_system,
    floor_distribution,
)
from invgame.matrix_game import stage_values
from invgame.sampling import DataOrTable, frequency_estimate_markov, step_counts

MLE_MAX_ITER = 10_000  # projected-gradient iterations after which a fit stops unconverged
MLE_TOL = 1e-8  # a fit converges once its gradient mapping is at most this
_TRACE_BLOCK = 32  # iterations whose iterates are kept, then their objectives and convergence read
_BALL_SQ = np.nextafter(1.0, 2.0)  # the largest double whose sqrt is 1: past it, theta is projected


@dataclass(frozen=True)
class RidgeTransitionEstimator:
    """Gram matrix and the step's cell counts (of step_counts) behind the
    ridge predictor, each table's under a leading axis for a list of them."""

    gram: np.ndarray  # (d, d), or (K, d, d)
    cell_features: np.ndarray  # (S*m*n, d) features of the (s, a, b) cells
    successor_counts: np.ndarray  # (S*m*n, S), or (K, S*m*n, S): the step's N(s, a, b, s')

    def value_weights(self, v_next: np.ndarray) -> np.ndarray:
        """Solve Lambda w = sum_t phi_t V(s'_t), summed as Phi' (N V) over the
        cells: v_next (S,) gives w (d,), and (K, S) gives each table's (K, d)."""
        cell_sums = self.successor_counts @ np.asarray(v_next, dtype=float)[..., None]
        return np.linalg.solve(self.gram, self.cell_features.T @ cell_sums)[..., 0]


def ridge_fit(
    data: DataOrTable | list, features: np.ndarray, ridge_lambda: float, step: int
) -> RidgeTransitionEstimator:
    """The step's Gram matrix Lambda = sum_t phi_t phi_t' + lambda I, summed
    as sum over cells of N(s, a, b) phi phi' from the step's count table, so
    its cost does not grow with T.  A list gives each table's on a leading axis."""
    if not ridge_lambda > 0:
        raise ValueError("ridge_lambda must be positive")
    features = np.asarray(features, dtype=float)
    s_len, m, n, d = features.shape
    tables, _ = _tables(data, s_len, m, n)
    counts = np.stack([_step(table, step) for table in tables]).reshape(len(tables), -1, s_len)
    cell_features = features.reshape(-1, d)
    gram = (cell_features.T * counts.sum(axis=2)[:, None]) @ cell_features
    gram += ridge_lambda * np.eye(d)
    if not isinstance(data, (list, tuple)):
        gram, counts = gram[0], counts[0]
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


def _step(table: np.ndarray, step: int) -> np.ndarray:
    """Step `step` of a count table, named in a ValueError when it has none."""
    if not 0 <= step < table.shape[0]:
        raise ValueError(f"step must lie in 0..{table.shape[0] - 1}, got {step}")
    return table[step]


def mle_fit(data: DataOrTable, model: SoftmaxPolicyModel, step: int, player: str) -> MleFit:
    """Projected-gradient MLE of one step's policy parameters on the unit ball.

    Minimizes the mean negative log-likelihood of the observed actions under
    the softmax model; fixed step 1/K^2 where K bounds the feature norms,
    converged once the gradient-mapping norm is at most MLE_TOL and stopped
    unconverged after MLE_MAX_ITER iterations.  The objective is convex, so
    the trace is nonincreasing.  Each iteration reads only the step's
    (S, actions) marginal of the count table (step_counts), so it costs
    O(S * actions * d), independent of the number of episodes, and
    O(S * actions) on identity features, whose two products are exact and
    skipped.  It is _fit_stack's loop on one fit, whose iterates
    fit_every_step follows too; its norms are the square roots of
    np.vecdot's BLAS dot.  The params and trace are read-only.
    """
    if player not in ("a", "b"):
        raise ValueError("player must be 'a' or 'b'")
    table = step_counts(data, *model.psi_a.shape[:2], model.psi_b.shape[1])
    psi, axes = (model.psi_a, (2, 3)) if player == "a" else (model.psi_b, (1, 3))
    counts = _step(table, step).sum(axis=axes)
    if not counts.any():
        raise ValueError(f"no samples at step {step}")
    lipschitz = max(model.feature_scale**2, 1e-12)
    flat = None if _is_identity(psi) else psi.reshape(1, -1, psi.shape[2]).astype(float)
    return _fit_stack(counts[None].astype(float), flat, lipschitz)[0]


def fit_every_step(tables: list[np.ndarray], model: SoftmaxPolicyModel) -> list[dict]:
    """Every step's fit of each player on each count table, by table, then
    player ("a" or "b"), each the one mle_fit makes: one lockstep stack of all the
    tables' fits of both players, or one per player when psi_a and psi_b
    differ in shape; a stack of identity features (saturated_policy_model's)
    holds no copy of them.  There must be a table, each of step_counts'
    shape for the model, of one horizon and holding samples."""
    if not tables:
        raise ValueError("no tables to fit")
    tables = [step_counts(table, *model.psi_a.shape[:2], model.psi_b.shape[1]) for table in tables]
    h_len = tables[0].shape[0]
    if any(table.shape[0] != h_len for table in tables):
        raise ValueError("the tables must share one horizon")
    if not all(table.any() for table in tables):
        raise ValueError("no samples at step 0")  # one record per step: all steps or none
    counts = {  # each table's (H, S, actions) marginal
        "a": [table.sum(axis=(3, 4)) for table in tables],
        "b": [table.sum(axis=(2, 4)) for table in tables],
    }
    psi = {"a": model.psi_a, "b": model.psi_b}
    lipschitz = max(model.feature_scale**2, 1e-12)
    stacks = ("ab",) if model.psi_a.shape == model.psi_b.shape else ("a", "b")
    fits = [{} for _ in tables]
    for players in stacks:
        order = [(k, p) for k in range(len(tables)) for p in players]
        flats = None
        if not all(_is_identity(psi[p]) for p in players):  # (fits, S * actions, d)
            flats = [psi[p].reshape(-1, psi[p].shape[2]) for _, p in order for _ in range(h_len)]
            flats = np.stack(flats, dtype=float)
        stack = _fit_stack(
            np.concatenate([counts[p][k] for k, p in order], dtype=float), flats, lipschitz
        )
        for i, (k, p) in enumerate(order):
            fits[k][p] = stack[i * h_len : (i + 1) * h_len]
    return fits


def _is_identity(psi: np.ndarray) -> bool:
    """Whether psi's (S * actions, d) rows are the identity (one-hot features)."""
    flat = psi.reshape(-1, psi.shape[2])
    return flat.shape[0] == flat.shape[1] and bool((flat == np.eye(len(flat))).all())


def _action_sum(e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e.sum(axis=0) of an action-major array, each entry's terms added in
    the order np.sum adds a contiguous row of them: in turn below 8 terms,
    else numpy's pairwise sum (8 accumulators over at most 128 terms,
    halved above that), so each entry is its fit-major row's sum to the bit."""
    n = len(e)
    if n < 8:
        return np.add.reduce(e, axis=0, out=out)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return np.add(_action_sum(e[:half]), _action_sum(e[half:]), out=out)
    r = np.add.reduce(e[: n - n % 8].reshape(-1, 8, *e.shape[1:]), axis=0)
    total = np.add((r[0] + r[1]) + (r[2] + r[3]), (r[4] + r[5]) + (r[6] + r[7]), out=out)
    for term in e[n - n % 8 :]:
        total += term
    return total


def _fit_stack(counts: np.ndarray, flats: np.ndarray | None, lipschitz: float) -> list[MleFit]:
    """Projected-gradient fits of a stack in one loop: fit i has counts[i]
    (S, actions) and features flats[i] (S * actions, d), or identity features
    when flats is None, whose two products are exact and skipped (an
    iteration then costs O(S * actions)).  Every other product is the call
    (a gemv, or np.vecdot's dot on its own rows) a fit alone makes, and the
    softmax runs in one action-major (actions, fits, S) buffer whose action
    sum replays np.sum's order, so each fit follows exactly the iterates it
    would alone.  Every _TRACE_BLOCK iterations each fit's convergence is read
    from the block's kept gradient-mapping vectors, as a fit alone reads it
    each iteration, and its objective trace is formed from the kept
    iterates; a fit that converged in the block takes that iteration's params
    and trace, after riding along at most _TRACE_BLOCK - 1 iterations."""
    b_len, s_len, n_actions = counts.shape
    totals = counts.sum(axis=(1, 2))[:, None]
    # the mean NLL is weights @ log Z(theta) - observed @ theta
    weights, cells = counts.sum(axis=2) / totals, counts.reshape(b_len, -1)
    observed = (cells if flats is None else (cells[:, None] @ flats)[:, 0]) / totals
    theta = np.zeros((b_len, observed.shape[1]))
    params, iterations = np.empty_like(theta), np.full(b_len, MLE_MAX_ITER)
    converged = np.zeros(b_len, dtype=bool)
    live = np.arange(b_len)  # fits still iterating
    traces = [[] for _ in range(b_len)]  # each fit's objective, one piece per block
    for start in range(0, MLE_MAX_ITER, _TRACE_BLOCK):
        k_len, b = min(_TRACE_BLOCK, MLE_MAX_ITER - start), len(live)
        thetas, grads = np.empty((k_len + 1, *theta.shape)), np.empty((k_len, *theta.shape))
        thetas[0] = theta
        shifts, zs = np.empty((2, k_len, b, s_len))
        projected = np.zeros((k_len, b), dtype=bool)
        e, scale = np.empty((n_actions, b, s_len)), np.empty((b, s_len))
        e_rows = e.transpose(1, 2, 0)  # the fit-major (fits, S, actions) view
        if flats is None:  # the iterates' action-major views, the gradients' fit-major ones
            theta_cols = thetas.reshape(-1, b, s_len, n_actions).transpose(0, 3, 1, 2)
            grad_rows = grads.reshape(-1, *e_rows.shape)
            observed_rows = observed.reshape(e_rows.shape)
        for k in range(k_len):
            theta, new_theta, grad = thetas[k], thetas[k + 1], grads[k]
            if flats is None:
                np.copyto(e, theta_cols[k])
            else:
                np.copyto(e_rows, (flats @ theta[:, :, None]).reshape(e_rows.shape))
            shift = np.maximum.reduce(e, axis=0, out=shifts[k])  # exact in any order
            np.exp(np.subtract(e, shift, out=e), out=e)
            np.multiply(e, np.divide(weights, _action_sum(e, out=zs[k]), out=scale), out=e)
            if flats is None:
                np.subtract(e_rows, observed_rows, out=grad_rows[k])
            else:
                cells = e_rows.reshape(b, -1)[:, :, None]
                np.subtract((flats.transpose(0, 2, 1) @ cells)[:, :, 0], observed, out=grad)
            np.subtract(theta, grad if lipschitz == 1.0 else grad / lipschitz, out=new_theta)
            norm_sq = np.vecdot(new_theta, new_theta)  # the ball test, every iteration
            if np.count_nonzero(out := np.greater(norm_sq, _BALL_SQ, out=projected[k])):
                new_theta[out] *= (1 / np.sqrt(norm_sq[out]))[:, None]  # onto the unit ball
                grad[out] = theta[out] - new_theta[out]
        # converged at ||grad|| <= MLE_TOL inside the ball, at lipschitz *
        # ||theta - new theta|| <= MLE_TOL on it
        done = np.sqrt(np.vecdot(grads, grads)) * np.where(projected, lipschitz, 1.0) <= MLE_TOL
        stop = np.where(done.any(axis=0), done.argmax(axis=0) + 1, 0)  # 0: not converged
        objectives = np.vecdot(weights, np.log(zs) + shifts) - np.vecdot(observed, thetas[:-1])
        for j, i in enumerate(live):
            traces[i].append(objectives[: stop[j] or k_len, j])
        finished, kept = stop > 0, stop == 0
        params[live[finished]] = thetas[stop[finished], finished]
        iterations[live[finished]], converged[live[finished]] = start + stop[finished], True
        theta, live, weights, observed = (x[kept] for x in (thetas[-1], live, weights, observed))
        flats = None if flats is None else flats[kept]
        if not live.size:
            break
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

    kappa may be a scalar, a length-H array of per-step thresholds, or, for
    a list of K count tables, a (K, H) array of each table's.
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
    mu: np.ndarray  # (K, H, S, m), strictly positive: each table's
    nu: np.ndarray  # (K, H, S, n)
    weights: np.ndarray  # (K, H, S) per-state block weights


def block_weights(counts: np.ndarray, mle: bool) -> np.ndarray:
    """Per-state block weights from the (..., S) visit counts N_h(s): each
    visited state 1 for frequency sets, and its empirical visit probability
    rho_h(s) = N_h(s) / N for MLE sets, so unvisited states weigh nothing."""
    if mle:
        return counts / counts.sum(axis=-1, keepdims=True)
    return (counts > 0).astype(float)


def _tables(data, s_len: int, m: int, n: int, kappa=0.0) -> tuple[list, np.ndarray]:
    """The step_counts tables of a list of K datasets or tables of one shape
    and horizon, or of one alone (K = 1), and kappa (a scalar, (H,) or
    (K, H)) as each table's (K, H) per-step thresholds."""
    stack = data if isinstance(data, (list, tuple)) else [data]
    if not stack:
        raise ValueError("no tables to recover from")
    tables = [step_counts(table, s_len, m, n) for table in stack]
    k_len, h_len = len(tables), tables[0].shape[0]
    if any(table.shape[0] != h_len for table in tables):
        raise ValueError("the tables must share one horizon")
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape not in ((), (h_len,), (k_len, h_len)):
        shapes = f"(H,) = ({h_len},) or (K, H) = ({k_len}, {h_len})"
        raise ValueError(f"kappa must be a scalar or of shape {shapes}, got {kappa.shape}")
    return tables, np.broadcast_to(kappa, (k_len, h_len))


def _estimates(tables: list, config: InversionConfig) -> _Estimates:
    """Each table's and step's floored policies (frequency ones, or the
    softmax-MLE ones of config.policy_model when it has one, all fitted in
    one fit_every_step call) and per-state block weights (block_weights)."""
    model = config.policy_model
    if model is None:
        ests = [frequency_estimate_markov(table, *config.features.shape[:3]) for table in tables]
        mu, nu = np.stack([e.mu_hat for e in ests]), np.stack([e.nu_hat for e in ests])
    else:
        fits = fit_every_step(tables, model)
        mu, nu = (
            np.array([[model.conditionals(psi, fit.params) for fit in f[player]] for f in fits])
            for player, psi in (("a", model.psi_a), ("b", model.psi_b))
        )
    counts = np.stack([table.sum(axis=(2, 3, 4)) for table in tables])
    mle = model is not None
    return _Estimates(floor_distribution(mu), floor_distribution(nu), block_weights(counts, mle))


def stepwise_confidence_sets(
    data: DataOrTable | list, config: InversionConfig, estimates: _Estimates | None = None
) -> list:
    """The per-step confidence sets {theta : ||X theta - y||^2 <= kappa_h,
    ||theta|| <= theta_norm_cap} the recovery draws its parameters from: by
    default at the estimates of the driver the config selects, so
    recover_rewards' frequency sets, or recover_rewards_mle's sets when
    config has a policy_model.  Both drivers pass the estimates they recover
    with, so that this one function builds every set.  A list gives each
    table's list of sets, all decomposed by one batched SVD.  config.kappa
    must be a scalar or hold one threshold per step, or per table and step."""
    tables, kappas = _tables(data, *config.features.shape[:3], config.kappa)
    k_len, h_len = kappas.shape
    if estimates is None:
        estimates = _estimates(tables, config)
    mu, nu, weights = estimates.mu, estimates.nu, estimates.weights
    X, y = _stepwise_rows(config.features, mu, nu, config.eta, weights)
    flat = X.reshape(-1, *X.shape[2:]), y.reshape(-1, y.shape[2]), kappas.ravel()
    sets = _confidence_sets(*flat, config.theta_norm_cap**2)
    by_table = [sets[k * h_len : (k + 1) * h_len] for k in range(k_len)]
    return by_table if isinstance(data, (list, tuple)) else by_table[0]


def _backward_pass(
    config: InversionConfig, estimates: _Estimates, sets: list, continuation
) -> list[RecoveredRewardSample]:
    """Bellman plug-in from the last step back at each set's min-norm member,
    every table's step at once: r_h = Q_h - gamma * continuation(h, V_{h+1}),
    where continuation maps the (K, S) next-step values to the (K, S, m, n)
    expected ones.  A failed theta selection carries its table's index as
    the attribute `table`."""
    s_len, m, n, d = config.features.shape
    k_len, h_len = len(sets), len(sets[0])
    thetas = np.zeros((k_len, h_len, d))
    q_values = np.zeros((k_len, h_len, s_len, m, n))
    v_values = np.zeros((k_len, h_len + 1, s_len))
    rewards = np.zeros((k_len, h_len, s_len, m, n))
    feasible = np.zeros((k_len, h_len), dtype=bool)
    flat_features = config.features.reshape(-1, d)
    for h in range(h_len - 1, -1, -1):
        for k in range(k_len):
            try:
                thetas[k, h], feasible[k, h] = sets[k][h].min_norm_member()
            except Exception as err:
                failure = RuntimeError(f"theta selection failed at step {h}")
                failure.table = k
                raise failure from err
        q_values[:, h] = q = (flat_features @ thetas[:, h, :, None]).reshape(k_len, s_len, m, n)
        v_values[:, h] = stage_values(q, estimates.mu[:, h], estimates.nu[:, h], config.eta)
        rewards[:, h] = q - config.gamma * continuation(h, v_values[:, h + 1])
    by_table = zip(thetas, q_values, v_values, rewards, feasible, map(tuple, sets))
    return [RecoveredRewardSample(*fields) for fields in by_table]


def _run_algorithm(data, config: InversionConfig) -> list[RecoveredRewardSample]:
    """The recovery of each count table in one stacked pass."""
    s_len, m, n, d = config.features.shape
    tables, _ = _tables(data, s_len, m, n, config.kappa)  # kappa checked before any work
    estimates = _estimates(tables, config)
    sets = stepwise_confidence_sets(tables, config, estimates)
    flat_features = config.features.reshape(-1, d)

    def continuation(h, v_next):  # step h's ridge predictor of each table
        fit = ridge_fit(tables, config.features, config.ridge_lambda, h)
        return (flat_features @ fit.value_weights(v_next)[..., None]).reshape(-1, s_len, m, n)

    return _backward_pass(config, estimates, sets, continuation)


def recover_rewards(
    data: DataOrTable | list, config: InversionConfig
) -> list[RecoveredRewardSample]:
    """Frequency-estimator reward recovery (backward confidence-set pass).

    Policies come from per-state frequencies; unvisited states carry uniform
    placeholders and zero block weight.  Returns one sample per count table
    (one for a dataset or table alone), the trajectory of each step's
    min-norm member.  A config with a policy_model is rejected: only
    recover_rewards_mle reads it.
    """
    if config.policy_model is not None:
        raise ValueError("recover_rewards reads no policy_model; use recover_rewards_mle")
    return _run_algorithm(data, config)


def recover_rewards_mle(
    data: DataOrTable | list, config: InversionConfig
) -> list[RecoveredRewardSample]:
    """MLE-based reward recovery with visit-probability block weights.

    Policies come from softmax MLE fits of config.policy_model and each
    state's constraints are weighted by the empirical visit probability, so
    unvisited states contribute nothing.  A list's fits are one
    fit_every_step call.
    """
    if config.policy_model is None:
        raise ValueError("recover_rewards_mle needs a policy_model")
    return _run_algorithm(data, config)

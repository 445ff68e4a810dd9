"""Command-line harness: forward solves, dataset simulation, single-shot
inversions, and the full repeated experiment protocols with CSV output.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure
threshold exceeded (more than 5% of experiment records failed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from invgame import experiments
from invgame.inverse_markov import InversionConfig, recover_rewards
from invgame.inverse_matrix import (
    ConfidenceSet,
    empirical_system,
    least_squares_theta,
    rank_condition,
    reconstruct_payoff,
)
from invgame.markov_game import backward_qre
from invgame.matrix_game import MatrixGameSpec, game_value, qre_residual, solve_qre
from invgame.metrics import ErrorReport
from invgame.sampling import (
    MatrixDataset,
    frequency_estimate_matrix,
    matrix_to_episode,
    read_dataset,
    sample_episodes,
    sample_matrix_actions,
    stream,
    write_dataset,
)

RUNS_HEADER = (
    "experiment,sample_size,rep,seed,theta_err,payoff_err,qre_tv_err,"
    "reward_D,reward_D1,duration_ms"
)
SUMMARY_HEADER = "experiment,sample_size,metric,mean,ci_lo,ci_hi"
STEPS_HEADER = "experiment,sample_size,rep,seed,step,reward_frob,qre_tv"
METRIC_FIELDS = ("theta_err", "payoff_err", "qre_tv_err", "reward_D", "reward_D1")

KINDS = ("setup1", "setup2", "markov", "custom")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 0
    samples: tuple[int, ...] = (10**3, 10**4)
    reps: int = 20
    threads: int = 1
    out: str = "results"
    eta: float = experiments.ETA
    gamma: float = 1.0
    m: int = 0
    n: int = 0
    s_len: int = 4
    horizon: int = 6
    dim: int = 2
    theta: tuple[float, ...] = ()
    norm_cap: float = 0.0
    kappa_scale: float = experiments.KAPPA_SCALE
    ridge_lambda: float = experiments.MARKOV_RIDGE_LAMBDA
    estimator: str = "least_squares"  # custom kind: least_squares | confidence_set
    policy_estimator: str = "frequency"  # markov kind: frequency | mle
    emit_timings: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown experiment kind {self.kind!r}")
        if self.reps < 1:
            raise UsageError("reps must be at least 1")
        if list(self.samples) != sorted(set(self.samples)):
            raise UsageError("samples must be strictly increasing")
        if any(s < 1 for s in self.samples):
            raise UsageError("samples must be positive")
        if self.kind == "custom" and not self.theta:
            raise UsageError("custom experiments need an explicit theta")


@dataclass(frozen=True)
class RunRecord:
    experiment: str
    sample_size: int
    rep: int
    seed: int
    report: ErrorReport | None  # None marks a failed record
    duration_ms: float
    error: str = ""


def load_config(args) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read config {args.config}: {err}") from err
    if getattr(args, "kind", None):
        raw["kind"] = args.kind
    for flag in ("seed", "reps", "threads", "out"):
        value = getattr(args, flag, None)
        if value is not None:
            raw[flag] = value
    if getattr(args, "samples", None):
        raw["samples"] = [int(x) for x in args.samples.split(",")]
    if getattr(args, "emit_timings", False):
        raw["emit_timings"] = True
    raw.setdefault("kind", "setup1")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    alias = {"S": "s_len", "H": "horizon", "d": "dim"}
    cleaned = {}
    for key, value in raw.items():
        key = alias.get(key, key)
        if key not in known:
            raise UsageError(f"unknown config field {key!r}")
        if key == "samples":
            value = tuple(int(x) for x in value)
        if key == "theta":
            value = tuple(float(x) for x in value)
        cleaned[key] = value
    return ExperimentConfig(**cleaned)


def _rep_records(config: ExperimentConfig, rep: int):
    """One repetition's RunRecords plus the raw runner outputs (None on failure)."""
    samples = list(config.samples)
    started = time.perf_counter()
    try:
        if config.kind == "setup1":
            raw = experiments.run_setup1_rep(config.seed, rep, samples)
        elif config.kind == "setup2":
            raw = experiments.run_setup2_rep(config.seed, rep, samples)
        elif config.kind == "markov":
            raw = experiments.run_markov_rep(
                config.seed,
                rep,
                samples,
                gamma=config.gamma,
                s_len=config.s_len,
                m=config.m or 5,
                n=config.n or 5,
                horizon=config.horizon,
                dim=config.dim,
                estimator=config.policy_estimator,
                kappa_scale=config.kappa_scale,
            )
        else:
            raw = experiments.run_custom_rep(
                config.seed,
                rep,
                samples,
                m=config.m or 4,
                n=config.n or 4,
                theta=np.array(config.theta),
                eta=config.eta,
                norm_sq_cap=config.norm_cap or 4.0,
                kappa_scale=config.kappa_scale,
                estimator=config.estimator,
            )
    except Exception as err:  # per-record failure: recorded, run continues
        duration = 1000 * (time.perf_counter() - started)
        return [
            RunRecord(config.kind, n, rep, config.seed, None, duration, repr(err))
            for n in samples
        ], None
    duration = 1000 * (time.perf_counter() - started) / len(raw)
    records = [
        RunRecord(config.kind, r.n_samples if hasattr(r, "n_samples") else r.n_episodes,
                  rep, config.seed, r.report, duration)
        for r in raw
    ]
    return records, raw


def run_experiment(config: ExperimentConfig):
    """All (sample size, repetition) records plus markov per-step rows."""
    records: list[RunRecord] = []
    step_rows: list[tuple] = []

    def one_rep(rep: int):
        recs, raw = _rep_records(config, rep)
        rows = []
        if raw is not None and config.kind == "markov":
            for r in raw:
                for h in range(r.per_step_qre.shape[0]):
                    rows.append(
                        (
                            config.kind,
                            r.n_episodes,
                            r.rep,
                            config.seed,
                            h,
                            float(r.per_step_reward_frob[h]),
                            float(r.per_step_qre[h]),
                        )
                    )
        return recs, rows

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(one_rep, range(config.reps)))
    else:
        results = [one_rep(rep) for rep in range(config.reps)]
    for recs, rows in results:
        records.extend(recs)
        step_rows.extend(rows)
    records.sort(key=lambda r: (r.sample_size, r.rep))
    step_rows.sort(key=lambda r: (r[1], r[2], r[4]))
    return records, step_rows


def summarize(records: list[RunRecord]) -> list[tuple]:
    """Per sample size and metric: mean plus 2.5/97.5 empirical percentiles."""
    rows = []
    sizes = sorted({r.sample_size for r in records})
    for size in sizes:
        group = [r for r in records if r.sample_size == size and r.report]
        if not group:
            continue
        experiment = group[0].experiment
        for metric in METRIC_FIELDS:
            attr = {
                "theta_err": "theta_error",
                "payoff_err": "payoff_error",
                "qre_tv_err": "qre_tv_error",
                "reward_D": "reward_D",
                "reward_D1": "reward_D1",
            }[metric]
            values = [getattr(r.report, attr) for r in group]
            if any(v is None for v in values):
                continue
            arr = np.array(values, dtype=float)
            rows.append(
                (
                    experiment,
                    size,
                    metric,
                    float(arr.mean()),
                    float(np.percentile(arr, 2.5)),
                    float(np.percentile(arr, 97.5)),
                )
            )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.10g}"


def emit_csv(
    records: list[RunRecord],
    summary: list[tuple],
    out_dir: str | Path,
    step_rows: list[tuple] | None = None,
    emit_timings: bool = False,
) -> list[Path]:
    """Write runs.csv and summary.csv (and steps.csv for markov runs).

    Files are byte-identical across re-runs of the same config; the
    duration_ms field stays empty unless emit_timings is set, since
    wall-clock times are inherently nondeterministic.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "runs.csv", out / "summary.csv"]
    with open(paths[0], "w", encoding="ascii", newline="\n") as fh:
        fh.write(RUNS_HEADER + "\n")
        for r in records:
            report = r.report
            fields = [
                r.experiment,
                str(r.sample_size),
                str(r.rep),
                str(r.seed),
                _fmt(report.theta_error if report else None),
                _fmt(report.payoff_error if report else None),
                _fmt(report.qre_tv_error if report else None),
                _fmt(report.reward_D if report else None),
                _fmt(report.reward_D1 if report else None),
                _fmt(r.duration_ms) if emit_timings else "",
            ]
            fh.write(",".join(fields) + "\n")
    with open(paths[1], "w", encoding="ascii", newline="\n") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for experiment, size, metric, mean, lo, hi in summary:
            fh.write(
                f"{experiment},{size},{metric},{_fmt(mean)},{_fmt(lo)},{_fmt(hi)}\n"
            )
    if step_rows:
        steps_path = Path(out_dir) / "steps.csv"
        with open(steps_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(STEPS_HEADER + "\n")
            for row in step_rows:
                fh.write(
                    ",".join(
                        [row[0]] + [str(x) for x in row[1:5]]
                        + [_fmt(row[5]), _fmt(row[6])]
                    )
                    + "\n"
                )
        paths.append(steps_path)
    return paths


def _cmd_experiment(args) -> int:
    config = load_config(args)
    records, step_rows = run_experiment(config)
    summary = summarize(records)
    emit_csv(records, summary, config.out, step_rows, config.emit_timings)
    failures = sum(1 for r in records if r.report is None)
    for r in records:
        if r.report is None:
            print(
                f"record failed: N={r.sample_size} rep={r.rep}: {r.error}",
                file=sys.stderr,
            )
    print(f"wrote {len(records)} records to {config.out}")
    if failures > 0.05 * len(records):
        print(f"{failures}/{len(records)} records failed", file=sys.stderr)
        return 2
    return 0


def _load_payoff(args) -> tuple[np.ndarray, float]:
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        payoff = np.array(raw["payoff"], dtype=float)
        eta = float(raw.get("eta", args.eta))
    elif args.payoff:
        payoff = np.loadtxt(args.payoff, delimiter=",", ndmin=2)
        eta = args.eta
    else:
        raise UsageError("solve-qre needs --payoff or --config with a payoff")
    return payoff, eta


def _cmd_solve_qre(args) -> int:
    payoff, eta = _load_payoff(args)
    spec = MatrixGameSpec(payoff, eta)
    pair = solve_qre(spec, tol=args.tol)
    result = {
        "mu": pair.mu.tolist(),
        "nu": pair.nu.tolist(),
        "residual": qre_residual(spec, pair),
        "value": game_value(spec, pair),
    }
    _write_json(result, args.out)
    return 0


def _experiment_matrix_model(config: ExperimentConfig, rep: int):
    rng = stream(config.seed, rep)
    if config.kind == "setup1":
        return experiments.setup1_model(rng), experiments.SETUP2_NORM_SQ_CAP
    if config.kind == "setup2":
        return experiments.setup2_model(rng), experiments.SETUP2_NORM_SQ_CAP
    if config.kind == "custom":
        cap = config.norm_cap or 4.0
        m, n = config.m or 4, config.n or 4
        return experiments.custom_model(rng, m, n, config.theta, cap), cap
    raise UsageError(f"{config.kind!r} is not a matrix experiment kind")


def _experiment_markov_model(config: ExperimentConfig, rep: int):
    return experiments.markov_model(
        stream(config.seed, rep),
        s_len=config.s_len,
        m=config.m or 5,
        n=config.n or 5,
        horizon=config.horizon,
        dim=config.dim,
        gamma=config.gamma,
    )


def _cmd_simulate(args) -> int:
    config = load_config(args)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    n_samples = max(config.samples)
    rep = args.rep
    if config.kind == "markov":
        spec = _experiment_markov_model(config, rep).to_tabular()
        truth, _ = backward_qre(spec, tol=1e-12)
        initial = np.full(spec.S, 1.0 / spec.S)
        data = sample_episodes(spec, truth, initial, n_samples, config.seed, rep)
    else:
        model, _ = _experiment_matrix_model(config, rep)
        payoff = reconstruct_payoff(model.theta, model.features)
        truth = solve_qre(MatrixGameSpec(payoff, config.eta), tol=1e-12)
        data = matrix_to_episode(
            sample_matrix_actions(truth, n_samples, config.seed, rep)
        )
    path = out / "dataset.csv"
    write_dataset(data, path)
    print(f"wrote {data.n_episodes} episodes to {path}")
    return 0


def _read_checked_dataset(path: str, horizon: int, s_len: int, m: int, n: int):
    """Read a dataset, rejecting a horizon other than the model's, indices
    outside its ranges, and successors that are not the next step's state."""
    try:
        data = read_dataset(path)
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read dataset {path}: {err}") from err
    if data.horizon != horizon:
        raise UsageError(f"dataset has horizon {data.horizon}, the model {horizon}")
    for column, values, size in (
        ("state", data.states, s_len),
        ("action_a", data.actions_a, m),
        ("action_b", data.actions_b, n),
        ("next_state", data.next_states, s_len),
    ):
        if values.min() < 0 or values.max() >= size:
            raise UsageError(f"dataset {column} must lie in 0..{size - 1}")
    if not np.array_equal(data.next_states[:, :-1], data.states[:, 1:]):
        raise UsageError("dataset next_state at step h must equal state at step h+1")
    return data


def _cmd_invert_matrix(args) -> int:
    config = load_config(args)
    rep = args.rep
    model, norm_sq_cap = _experiment_matrix_model(config, rep)
    m, n = model.features.shape[:2]
    data = _read_checked_dataset(args.data, 1, 1, m, n)
    est = frequency_estimate_matrix(
        MatrixDataset(data.actions_a[:, 0], data.actions_b[:, 0]), m, n
    )
    kappa = experiments.kappa_rule(data.n_episodes, scale=config.kappa_scale)
    system = empirical_system(est, model.features, config.eta)
    full_rank, rank = rank_condition(system.X, system.dim)
    cset = ConfidenceSet(system.X, system.y, kappa, norm_sq_cap)
    if full_rank:
        theta_hat = least_squares_theta(system)
        route = "least_squares"
    else:
        theta_hat, _ = cset.min_norm_member()
        route = "min_norm_member"
    result = {
        "theta_hat": theta_hat.tolist(),
        "route": route,
        "rank": rank,
        "full_rank": bool(full_rank),
        "kappa": kappa,
        "residual_sq": cset.residual_sq(theta_hat),
        "payoff_hat": reconstruct_payoff(theta_hat, model.features).tolist(),
    }
    _write_json(result, args.out)
    return 0


def _cmd_invert_markov(args) -> int:
    config = load_config(args)
    rep = args.rep
    model = _experiment_markov_model(config, rep)
    data = _read_checked_dataset(args.data, config.horizon, *model.features.shape[:3])
    inversion = InversionConfig(
        features=model.features,
        eta=config.eta,
        gamma=config.gamma,
        kappa=config.kappa_scale / data.n_episodes,
        ridge_lambda=config.ridge_lambda,
        theta_norm_cap=experiments.MARKOV_THETA_CAP,
    )
    sample = recover_rewards(data, inversion)[0]
    result = {
        "theta_hat": sample.thetas.tolist(),
        "feasible": sample.feasible.tolist(),
        "kappa": inversion.kappa,
        "rewards": sample.rewards.tolist(),
    }
    _write_json(result, args.out)
    return 0


def _write_json(result: dict, out: str | None) -> None:
    text = json.dumps(result, indent=2)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n")
    else:
        print(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="invgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_kind=True):
        p.add_argument("--config", help="JSON config mirroring ExperimentConfig")
        if with_kind:
            p.add_argument("--kind", choices=KINDS)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--reps", type=int)
        p.add_argument("--samples", help="comma-separated sample sizes")
        p.add_argument("--threads", type=int)

    p = sub.add_parser("solve-qre", help="solve one matrix game")
    p.add_argument("--config", help="JSON with payoff (and eta)")
    p.add_argument("--payoff", help="CSV file holding the payoff matrix")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve_qre)

    p = sub.add_parser("simulate", help="sample a dataset from QRE play")
    common(p)
    p.add_argument("--rep", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("invert-matrix", help="recover payoff parameters")
    common(p)
    p.add_argument("--data", required=True, help="dataset file from simulate")
    p.add_argument("--rep", type=int, default=0)
    p.set_defaults(func=_cmd_invert_matrix)

    p = sub.add_parser("invert-markov", help="recover reward parameters")
    common(p)
    p.add_argument("--data", required=True, help="dataset file from simulate")
    p.add_argument("--rep", type=int, default=0)
    p.set_defaults(func=_cmd_invert_markov)

    p = sub.add_parser("experiment", help="run a repeated protocol, emit CSVs")
    common(p)
    p.add_argument(
        "--emit-timings",
        action="store_true",
        help="fill duration_ms (breaks byte-identical reruns)",
    )
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: forward solves, dataset simulation, single-shot
inversions, and the full repeated experiment protocols with CSV output.

Each kind's model, runner and defaults, the estimates the invert commands
share with the runner, and every rule a config must keep live in
`invgame.experiments`; this module parses arguments and configs into an
`ExperimentConfig`, reads and writes files, and maps outcomes to exit
codes.  An experiment's CSV files are written from its records alone, whose
metric fields are the runs.csv columns of the same names.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure:
a single-shot command's QRE solve or confidence-set projection did not
converge, or more than 5% of experiment records failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import types
import typing
import warnings
from pathlib import Path

import numpy as np

from invgame import ProjectionConvergenceError, experiments
from invgame.experiments import KINDS, ExperimentConfig, RepRecord, UsageError
from invgame.matrix_game import (
    MatrixGameSpec,
    QreConvergenceError,
    game_value,
    qre_residual,
    solve_qre,
)
from invgame.sampling import read_counts, write_dataset

# runs.csv's metric columns, each the RepRecord field of that name
METRIC_FIELDS = ("theta_err", "payoff_err", "qre_tv_err", "reward_D", "reward_D1")
RUNS_HEADER = ",".join(
    ("experiment", "sample_size", "rep", "seed", *METRIC_FIELDS, "duration_ms")
)
SUMMARY_HEADER = "experiment,sample_size,metric,mean,ci_lo,ci_hi"
STEPS_HEADER = "experiment,sample_size,rep,seed,step,reward_frob,qre_tv"
ALIASES = {"S": "s_len", "H": "horizon"}


def _typed(key: str, value, hint):
    """A config value as its field's type; any other value is a usage error.

    Numbers may come as JSON numbers or strings, but must be exact: "1e3"
    is not an integer sample size, and NaN is no parameter value.  A JSON
    boolean is no number, though int(True) == 1.  A field that may be None
    (unset) takes a value of its other type."""
    if typing.get_origin(hint) is types.UnionType:
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_typed(key, item, typing.get_args(hint)[0]) for item in value)
    elif hint in (int, float):
        try:
            number = hint(value)
            if number == float(value) and not isinstance(value, bool):
                return number
        except (TypeError, ValueError, OverflowError):
            pass
    elif isinstance(value, hint):
        return value
    raise UsageError(f"config field {key!r} cannot be {value!r}")


@functools.cache
def _config_hints() -> dict:
    """ExperimentConfig's field types, resolved once per process."""
    return typing.get_type_hints(ExperimentConfig)


def _read_config(path: str) -> dict:
    """The JSON object a config file holds; an unreadable file, or one that
    holds anything else, is a usage error that names the file."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a JSON object")
    return raw


def load_config(args, default_kind: str = "setup1") -> ExperimentConfig:
    if getattr(args, "rep", 0) < 0:  # stream(seed, rep) takes neither negative
        raise UsageError(f"rep must be nonnegative, got {args.rep}")
    raw = _read_config(args.config) if args.config else {}
    if getattr(args, "kind", None):
        raw["kind"] = args.kind
    for flag in ("seed", "reps", "out"):
        value = getattr(args, flag, None)
        if value is not None:
            raw[flag] = value
    if getattr(args, "samples", None):
        raw["samples"] = args.samples.split(",")
    if getattr(args, "emit_timings", False):
        raw["emit_timings"] = True
    raw.setdefault("kind", default_kind)
    hints = _config_hints()
    cleaned, keys = {}, {}
    for key, value in raw.items():
        field = ALIASES.get(key, key)
        if field not in hints:
            raise UsageError(f"unknown config field {key!r}")
        if field in keys:  # by its alias and by its name
            raise UsageError(f"config sets {field!r} twice, as {keys[field]!r} and {key!r}")
        keys[field] = key
        cleaned[field] = _typed(field, value, hints[field])
    return ExperimentConfig(**cleaned)


def run_experiment(config: ExperimentConfig) -> list[RepRecord]:
    """All (sample size, repetition) records, by sample size, then rep."""
    return sorted(
        (record for rep in range(config.reps) for record in experiments.run_rep(config, rep)),
        key=lambda r: (r.sample_size, r.rep),
    )


def summarize(records: list[RepRecord]) -> list[tuple]:
    """Per sample size and metric: mean plus 2.5/97.5 empirical percentiles
    over the records that did not fail; a metric some record lacks is left
    out.  One np.percentile call per size takes every metric's row at once."""
    rows = []
    for size in sorted({r.sample_size for r in records}):
        group = [r for r in records if r.sample_size == size and not r.error]
        values = {m: [getattr(r, m) for r in group] for m in METRIC_FIELDS}
        metrics = [m for m in METRIC_FIELDS if values[m] and None not in values[m]]
        if not metrics:
            continue
        arr = np.array([values[m] for m in metrics], dtype=float)
        means, (lo, hi) = arr.mean(axis=1), np.percentile(arr, (2.5, 97.5), axis=1)
        rows += [
            (group[0].experiment, size, metric, float(means[i]), lo[i], hi[i])
            for i, metric in enumerate(metrics)
        ]
    return rows


def _fmt(value) -> str:
    """A CSV field: empty for None, 10 significant digits for a float."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_csv(path: Path, header: str, rows) -> Path:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(value) for value in row) + "\n")
    return path


def emit_csv(
    records: list[RepRecord], out_dir: str | Path, emit_timings: bool = False
) -> list[Path]:
    """Write runs.csv, summary.csv (summarize's rows) and, when some record
    has per-step errors (markov runs), steps.csv, all from the records.

    Files are byte-identical across re-runs of the same config; the
    duration_ms field stays empty unless emit_timings is set, since
    wall-clock times are inherently nondeterministic.  A failed record's
    metric columns are empty.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = (
        (r.experiment, r.sample_size, r.rep, r.seed)
        + tuple(getattr(r, metric) for metric in METRIC_FIELDS)
        + (r.duration_ms if emit_timings else None,)
        for r in records
    )
    steps = [
        (r.experiment, r.sample_size, r.rep, r.seed, h, frob, qre)
        for r in records
        if r.per_step_qre is not None
        for h, (frob, qre) in enumerate(zip(r.per_step_reward_frob, r.per_step_qre))
    ]
    paths = [
        _write_csv(out / "runs.csv", RUNS_HEADER, runs),
        _write_csv(out / "summary.csv", SUMMARY_HEADER, summarize(records)),
    ]
    if steps:
        paths.append(_write_csv(out / "steps.csv", STEPS_HEADER, steps))
    return paths


def _cmd_experiment(args) -> int:
    config = load_config(args)
    _make_dir(config.out)  # before any repetition runs
    records = run_experiment(config)
    emit_csv(records, config.out, config.emit_timings)
    failed = [r for r in records if r.error]
    for r in failed:
        print(f"record failed: N={r.sample_size} rep={r.rep}: {r.error}", file=sys.stderr)
    print(f"wrote {len(records)} records to {config.out}")
    if len(failed) > 0.05 * len(records):
        print(f"{len(failed)}/{len(records)} records failed", file=sys.stderr)
        return 2
    return 0


def _cmd_solve_qre(args) -> int:
    try:
        if args.config:
            raw = _read_config(args.config)
            payoff, eta = raw["payoff"], raw.get("eta", args.eta)
            for name, value in (("eta", eta), ("payoff", payoff)):  # True == 1: no number
                if any(isinstance(x, bool) for x in np.ravel(np.array(value, dtype=object))):
                    raise UsageError(f"config {name} cannot be {value!r}")
        elif args.payoff:
            with warnings.catch_warnings():  # loadtxt warns of a file without rows
                warnings.simplefilter("ignore", UserWarning)
                payoff, eta = np.loadtxt(args.payoff, delimiter=",", ndmin=2), args.eta
            if not payoff.size:
                raise UsageError(f"payoff file {args.payoff} holds no rows")
        else:
            raise UsageError("solve-qre needs --payoff or --config with a payoff")
        spec = MatrixGameSpec(np.array(payoff, dtype=float), float(eta))
        pair = solve_qre(spec, tol=args.tol)
    except KeyError as err:
        raise UsageError(f"config {args.config} has no {err} entry") from err
    except (OSError, TypeError, ValueError) as err:
        raise UsageError(f"bad solve-qre input: {err}") from err
    result = {
        "mu": pair.mu.tolist(),
        "nu": pair.nu.tolist(),
        "residual": qre_residual(spec, pair),
        "value": game_value(spec, pair),
    }
    _write_json(result, args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args)
    try:
        data = experiments.sample_dataset(config, args.rep, max(config.samples))
    except ValueError as err:
        raise UsageError(f"cannot simulate the {config.kind} model: {err}") from err
    path = _make_dir(config.out) / "dataset.csv"
    write_dataset(data, path)
    print(f"wrote {data.n_episodes} episodes to {path}")
    return 0


def _cmd_invert(args) -> int:
    markov = args.command == "invert-markov"
    config = load_config(args, default_kind="markov" if markov else "setup1")
    if (config.kind == "markov") != markov:
        family = "markov" if markov else "setup1, setup2 or custom"
        raise UsageError(f"this command needs kind {family}, not {config.kind!r}")
    model = experiments.build_model(config, args.rep)
    # a matrix game is one step at one state
    shape = model.features.shape[:3] if markov else (1, *model.features.shape[:2])
    horizon = config.horizon if markov else 1
    try:
        table = read_counts(args.data, *shape)
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read dataset {args.data}: {err}") from err
    if table.shape[0] != horizon:
        raise UsageError(f"dataset has horizon {table.shape[0]}, the model {horizon}")
    invert = experiments.invert_markov if markov else experiments.invert_matrix
    _write_json(invert(config, model, table), args.out)
    return 0


def _write_json(result: dict, out: str | None) -> None:
    text = json.dumps(result, indent=2)
    if out:
        _make_dir(Path(out).parent)
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _make_dir(path) -> Path:
    """The directory path, made with its parents where missing; a regular
    file in the way is a usage error that names the path."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise UsageError(f"cannot make directory {path}: {err.strerror}") from err
    return Path(path)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: parse_args keeps no state between
    calls, so each call of main parses as a fresh parser would."""
    parser = _Parser(prog="invgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config mirroring ExperimentConfig")
        p.add_argument("--kind", choices=KINDS)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--reps", type=int)
        p.add_argument("--samples", help="comma-separated sample sizes")

    p = sub.add_parser("solve-qre", help="solve one matrix game")
    p.add_argument("--config", help="JSON with payoff (and eta)")
    p.add_argument("--payoff", help="CSV file holding the payoff matrix")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve_qre)

    for name, func, text in (
        ("simulate", _cmd_simulate, "sample a dataset from QRE play"),
        ("invert-matrix", _cmd_invert, "recover payoff parameters"),
        ("invert-markov", _cmd_invert, "recover reward parameters"),
    ):
        p = sub.add_parser(name, help=text)
        common(p)
        if func is not _cmd_simulate:
            p.add_argument("--data", required=True, help="dataset file from simulate")
        p.add_argument("--rep", type=int, default=0)
        p.set_defaults(func=func)

    p = sub.add_parser("experiment", help="run a repeated protocol, emit CSVs")
    common(p)
    p.add_argument(
        "--emit-timings",
        action="store_true",
        help="fill duration_ms, each repetition's wall time divided evenly "
        "over its sample sizes (breaks byte-identical reruns)",
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
    except (QreConvergenceError, ProjectionConvergenceError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

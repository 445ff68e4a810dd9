import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from invgame.cli import (
    ExperimentConfig,
    UsageError,
    emit_csv,
    load_config,
    main,
    run_experiment,
    summarize,
)
from invgame import cli, experiments, markov_game, matrix_game, sampling
from invgame.experiments import markov_model, run_rep, saturated_policy_model
from invgame.inverse_markov import InversionConfig, recover_rewards, recover_rewards_mle
from invgame.inverse_matrix import ConfidenceSet, build_confidence_set
from invgame.markov_game import backward_qre
from invgame.matrix_game import QreConvergenceError, solve_qre_batch
from invgame.sampling import (
    EpisodeDataset,
    frequency_estimate_matrix,
    read_dataset,
    sample_counts,
    sample_episodes,
    step_counts,
    stream,
)

from .oracles import summarize_by_metric


def run_cli(args):
    return main(args)


def write_config(tmp_path, fields, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def edit_dataset(path, row, column, value):
    """Overwrite one field of a dataset file; row 0 is the first record."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    fields[header.index(column)] = str(value)
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            ExperimentConfig(kind="setup9")

    def test_samples_must_increase(self):
        with pytest.raises(UsageError):
            ExperimentConfig(kind="setup1", samples=(100, 100))

    def test_dimension_aliases(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "markov", "S": 3, "H": 2}))
        config = load_config(
            type("A", (), {"config": str(path), "kind": None, "seed": None,
                           "reps": None, "out": None,
                           "samples": None, "emit_timings": False})()
        )
        assert config.s_len == 3 and config.horizon == 2

    def test_custom_requires_theta(self):
        with pytest.raises(UsageError):
            ExperimentConfig(kind="custom")

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind="setup1", policy_estimator="mle", ridge_lambda=5.0, horizon=9),
             "kind 'setup1' does not read config field"),
            (dict(kind="markov", m=1), "a markov model needs m, n >= 2, got 1x5"),
        ],
        ids=["unread_fields", "markov_one_action"],
    )
    def test_the_library_rejects_what_the_cli_does(self, fields, message):
        with pytest.raises(UsageError, match=re.escape(message)):
            ExperimentConfig(**fields)


class TestRunExperiment:
    def test_setup1_record_counts(self):
        config = ExperimentConfig(
            kind="setup1", seed=5, samples=(1000,), reps=2
        )
        records = run_experiment(config)
        assert len(records) == 2
        assert all(r.per_step_qre is None for r in records)  # no step rows
        summary = summarize(records)
        assert len(summary) == 3  # theta, payoff, qre metrics for one size

    @pytest.mark.bitwise
    @pytest.mark.parametrize("reps", [1, 2, 9, 20])
    def test_the_summary_is_each_metric_summarized_alone(self, tmp_path, reps):
        # one np.percentile call per size over a (metrics, records) array
        # gives each metric's mean and percentiles as its own 1-D array does:
        # markov records, matrix ones (no reward metrics), a failed record, a
        # size of failed records only, and a record lacking a metric, which
        # leaves that metric out of its size
        rng = stream(77, reps)
        records = []
        for kind, size in (("markov", 100), ("markov", 1000), ("setup2", 300)):
            for rep in range(reps):
                values = rng.standard_normal(5) * 10.0 ** rng.integers(-4, 5, 5)
                fields = dict(zip(cli.METRIC_FIELDS, values.tolist()))
                if kind == "setup2":
                    fields.update(reward_D=None, reward_D1=None)
                records.append(experiments.RepRecord(kind, size, rep, 77, **fields))
        records[0] = replace(records[0], reward_D1=None)
        for n in (1000, 5000):
            records.append(experiments.RepRecord("markov", n, reps, 77, error="boom"))
        expected = summarize_by_metric(records, cli.METRIC_FIELDS)
        assert summarize(records) == expected  # every float to the last bit
        emit_csv(records, tmp_path / "out")
        cli._write_csv(tmp_path / "expected.csv", cli.SUMMARY_HEADER, expected)
        assert (tmp_path / "out" / "summary.csv").read_bytes() == (
            tmp_path / "expected.csv"
        ).read_bytes()

    def test_markov_emits_step_rows(self, tmp_path):
        config = ExperimentConfig(
            kind="markov", seed=5, samples=(500,), reps=1, horizon=3
        )
        records = run_experiment(config)
        assert len(records) == 1
        emit_csv(records, tmp_path)
        step_rows = [
            line.split(",") for line in (tmp_path / "steps.csv").read_text().splitlines()[1:]
        ]
        assert len(step_rows) == 3
        assert all(row[4] in ("0", "1", "2") for row in step_rows)

    def test_markov_honours_kappa_scale(self):
        base = dict(kind="markov", seed=5, samples=(500,), reps=1, horizon=3)
        default = run_rep(ExperimentConfig(**base), 0)
        doubled = run_rep(ExperimentConfig(**base, kappa_scale=2e3), 0)
        assert [2 * cset.kappa for cset in default[0].sets] == [
            cset.kappa for cset in doubled[0].sets
        ]

    @pytest.mark.parametrize(
        "fields",
        [{"kind": "setup1"}, {"kind": "setup2"}, {"kind": "custom", "theta": (0.5, -0.25)}],
        ids=["setup1", "setup2", "custom"],
    )
    def test_simulate_samples_what_the_matrix_runner_inverts(self, monkeypatch, fields):
        config = ExperimentConfig(**fields, seed=6, samples=(100, 700), reps=1)
        # the runner's tables are those of the simulated dataset's prefixes
        drawn = []

        def recording(*args):
            drawn.append(sample_counts(*args))
            return drawn[-1]

        monkeypatch.setattr(experiments, "sample_counts", recording)
        assert not run_rep(config, 2)[0].error
        monkeypatch.undo()
        simulated = experiments.sample_dataset(config, 2, 700)
        assert len(drawn) == 1
        for size, table in zip(config.samples, drawn[0], strict=True):
            assert np.array_equal(table, step_counts(simulated.prefix(size), *table.shape[1:4]))

    def test_failed_markov_rep_names_the_failing_size(self, monkeypatch):
        # the recovery, one stacked call for every size, fails at N = 1000
        # only; every record of the rep fails, and each names that size
        config = ExperimentConfig(kind="markov", seed=5, samples=(500, 1000, 2000), horizon=3)
        data = experiments.sample_dataset(config, 0, 2000)
        kappas = {  # each size's thresholds, which its sets hold
            n: experiments._thresholds(config, step_counts(data.prefix(n), 4, 5, 5)).tolist()
            for n in config.samples
        }
        assert not set(kappas[1000]) & set(kappas[500] + kappas[2000])
        real = ConfidenceSet.min_norm_member

        def failing_at_1000(cset):
            if cset.kappa in kappas[1000]:
                raise np.linalg.LinAlgError("singular at this size")
            return real(cset)

        monkeypatch.setattr(ConfidenceSet, "min_norm_member", failing_at_1000)
        records = run_rep(config, 0)
        assert [r.sample_size for r in records] == [500, 1000, 2000]
        for record in records:
            assert all(getattr(record, m) is None for m in cli.METRIC_FIELDS)
            assert "failed at N=1000:" in record.error
            assert "theta selection failed at step 2" in record.error  # the last step's, first
            assert "N=500" not in record.error and "N=2000" not in record.error

    def test_a_failure_of_the_whole_stack_names_every_size(self, monkeypatch):
        config = ExperimentConfig(kind="markov", seed=5, samples=(500, 1000, 2000), horizon=3)

        def failing(tables, inversion):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(experiments, "recover_rewards", failing)
        for record in run_rep(config, 0):
            assert "estimate failed at N=500,1000,2000:" in record.error
            assert "SVD did not converge" in record.error

    def test_failed_matrix_rep_names_the_failing_size(self, monkeypatch):
        # the estimate fails at N = 1000 only; every record of the rep fails,
        # and each names that size
        config = ExperimentConfig(kind="setup2", seed=5, samples=(500, 1000, 2000))

        def failing_at_1000(est, *args):
            if est.counts.sum() == 1000:
                raise np.linalg.LinAlgError("singular at this size")
            return build_confidence_set(est, *args)

        monkeypatch.setattr(experiments, "build_confidence_set", failing_at_1000)
        records = run_rep(config, 0)
        assert [r.sample_size for r in records] == [500, 1000, 2000]
        for record in records:
            assert all(getattr(record, m) is None for m in cli.METRIC_FIELDS)
            assert "estimate failed at N=1000:" in record.error
            assert "singular at this size" in record.error
            assert "N=500" not in record.error and "N=2000" not in record.error

    @pytest.mark.bitwise
    @pytest.mark.parametrize("estimator", ["least_squares", "confidence_set"])
    def test_matrix_records_are_one_step_records(self, estimator):
        # coverage, sets and true_thetas hold the one step of a matrix game
        config = ExperimentConfig(kind="setup2", seed=5, samples=(300, 3000), estimator=estimator)
        model = experiments.build_model(config, 1)
        records = run_rep(config, 1)
        assert [r.coverage.tolist() for r in records] == [
            [r.sets[0].contains(model.theta)] for r in records
        ]
        assert any(r.coverage[0] for r in records)
        for record in records:
            assert len(record.sets) == 1
            assert record.sets[0].kappa == 1e3 / record.sample_size
            assert np.array_equal(record.true_thetas, model.theta[None])
            assert record.per_step_qre is None
            if estimator == "least_squares":
                assert record.feasible is None
            else:
                assert record.feasible.shape == (1,)

    @pytest.mark.parametrize(
        "fields, entry",
        [(dict(kind="markov", horizon=3), (1, 1)), (dict(kind="setup2"), (0, 0))],
        ids=["markov", "setup2"],
    )
    def test_failed_re_solve_names_the_failing_size(self, monkeypatch, fields, entry):
        # the re-solve stacks the sizes: an unconverged entry (k, state)
        # belongs to sample size k
        config = ExperimentConfig(**fields, seed=5, samples=(500, 1000, 2000))
        step, state = entry

        def unconverged_at_2000(spec, rewards, *args):
            assert rewards.shape[0] == 3
            raise QreConvergenceError(7, 0.5, [(2, state)], step=step, state=state)

        monkeypatch.setattr(experiments, "qre_discrepancy_markov", unconverged_at_2000)
        for record in run_rep(config, 0):
            assert all(getattr(record, m) is None for m in cli.METRIC_FIELDS)
            assert "re-solve failed at N=2000:" in record.error
            assert f"at step {step}, state {state}" in record.error

    def test_a_matrix_rep_re_solves_once(self, monkeypatch):
        # one truth solve, then one stacked re-solve of all three sizes
        stacks = []

        def counting(payoffs, *args):
            stacks.append(len(payoffs))
            return solve_qre_batch(payoffs, *args)

        for module in (matrix_game, markov_game):
            monkeypatch.setattr(module, "solve_qre_batch", counting)
        config = ExperimentConfig(kind="setup2", seed=5, samples=(500, 1000, 2000))
        assert not any(record.error for record in run_rep(config, 0))
        assert stacks == [1, 3]


class TestEmitCsv:
    def test_empty_records_headers_only(self, tmp_path):
        paths = emit_csv([], tmp_path)
        assert paths[0].read_text().strip() == (
            "experiment,sample_size,rep,seed,theta_err,payoff_err,qre_tv_err,"
            "reward_D,reward_D1,duration_ms"
        )
        assert paths[1].read_text().strip() == (
            "experiment,sample_size,metric,mean,ci_lo,ci_hi"
        )

    def test_two_records_two_rows(self, tmp_path):
        config = ExperimentConfig(kind="setup1", seed=5, samples=(1000,), reps=2)
        paths = emit_csv(run_experiment(config), tmp_path)
        lines = paths[0].read_text().strip().splitlines()
        assert len(lines) == 3
        # absent metrics stay empty, never zero
        assert lines[1].split(",")[7] == ""  # reward_D for a matrix run
        assert lines[1].split(",")[9] == ""  # duration off by default

    def test_rerun_byte_identical(self, tmp_path):
        config = ExperimentConfig(
            kind="setup2", seed=11, samples=(500, 1000), reps=2
        )
        emit_csv(run_experiment(config), tmp_path / "a")
        emit_csv(run_experiment(config), tmp_path / "b")
        for name in ("runs.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestCommands:
    def test_solve_qre_from_payoff_file(self, tmp_path, capsys):
        payoff = tmp_path / "payoff.csv"
        payoff.write_text("0.0,0.0\n0.0,0.0\n")
        assert run_cli(["solve-qre", "--payoff", str(payoff), "--eta", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["mu"], 0.5)
        assert out["residual"] <= 1e-12

    def test_solve_qre_usage_error(self):
        assert run_cli(["solve-qre"]) == 1

    @pytest.mark.parametrize("flag", [["--bogus"], ["--threads", "2"]], ids=["bogus", "threads"])
    def test_unknown_flag_exits_one(self, capsys, flag):
        assert run_cli(["experiment", *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: unrecognized arguments") and "Traceback" not in err

    def test_simulate_then_invert_matrix(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_cli(
            [
                "simulate", "--kind", "setup1", "--seed", "3",
                "--samples", "20000", "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        result_path = tmp_path / "est.json"
        code = run_cli(
            [
                "invert-matrix", "--kind", "setup1", "--seed", "3",
                "--data", str(out / "dataset.csv"), "--out", str(result_path),
            ]
        )
        assert code == 0
        result = json.loads(result_path.read_text())
        assert result["full_rank"] and result["feasible"] is None
        theta = np.array(result["theta_hat"])
        assert np.linalg.norm(theta - np.array([0.8, -0.6])) < 0.2

    @pytest.mark.parametrize("kappa_scale, feasible", [(0.0, False), (1e3, True)])
    def test_invert_matrix_reports_whether_its_member_is_certified(
        self, tmp_path, capsys, kappa_scale, feasible
    ):
        # at kappa 0 the set is empty, and its min-norm member a surrogate
        out = tmp_path / "sim"
        kind = ["--kind", "setup1", "--seed", "3"]
        assert run_cli(["simulate", *kind, "--samples", "20000", "--out", str(out)]) == 0
        config = write_config(
            tmp_path, {"estimator": "confidence_set", "kappa_scale": kappa_scale}
        )
        result_path = tmp_path / "est.json"
        assert run_cli(["invert-matrix", "--config", config, *kind, "--data",
                        str(out / "dataset.csv"), "--out", str(result_path)]) == 0
        capsys.readouterr()
        result = json.loads(result_path.read_text())
        assert result["route"] == "min_norm_member"
        assert result["feasible"] is feasible
        assert (result["residual_sq"] <= result["kappa"]) is feasible

    def test_invert_matrix_takes_the_min_norm_member_below_full_rank(self, tmp_path, capsys):
        out = tmp_path / "sim"
        kind = ["--kind", "setup2", "--seed", "3"]
        assert run_cli(["simulate", *kind, "--samples", "5000", "--out", str(out)]) == 0
        result_path = tmp_path / "est.json"
        dataset = out / "dataset.csv"
        assert run_cli(["invert-matrix", *kind, "--data", str(dataset),
                        "--out", str(result_path)]) == 0
        capsys.readouterr()
        result = json.loads(result_path.read_text())
        assert result["route"] == "min_norm_member"
        assert result["rank"] == 5 and result["full_rank"] is False
        assert result["kappa"] == 1e3 / 5000
        assert result["residual_sq"] <= result["kappa"]
        model = experiments.setup2_model(stream(3, 0))
        est = frequency_estimate_matrix(read_dataset(dataset), 6, 6)
        expected = build_confidence_set(
            est, model.features, experiments.ETA, 1e3 / 5000, 4.0
        ).min_norm_member()[0]
        assert np.array_equal(result["theta_hat"], expected)

    @pytest.mark.parametrize(
        "kind, estimator, route",
        [("setup1", "confidence_set", "min_norm_member"),
         ("setup2", "least_squares", "min_norm_theta")],
    )
    def test_invert_matrix_honours_the_estimator(self, tmp_path, capsys, kind, estimator, route):
        out = tmp_path / "sim"
        kind_args = ["--kind", kind, "--seed", "3"]
        assert run_cli(["simulate", *kind_args, "--samples", "5000", "--out", str(out)]) == 0
        config = write_config(tmp_path, {"estimator": estimator})
        result_path = tmp_path / "est.json"
        assert run_cli(["invert-matrix", "--config", config, *kind_args, "--data",
                        str(out / "dataset.csv"), "--out", str(result_path)]) == 0
        capsys.readouterr()
        assert json.loads(result_path.read_text())["route"] == route

    @pytest.mark.bitwise
    @pytest.mark.parametrize("estimator", ["least_squares", "confidence_set"])
    @pytest.mark.parametrize(
        "fields",
        [{"kind": "setup1"}, {"kind": "setup2"},
         {"kind": "custom", "theta": (0.5, -0.25, 0.3), "m": 2, "n": 3}],
        ids=["setup1", "setup2", "custom"],
    )
    def test_invert_matrix_estimates_as_the_runner(self, monkeypatch, fields, estimator):
        # the runner and invert-matrix make one estimate of one dataset
        config = ExperimentConfig(**fields, seed=4, samples=(2000,), estimator=estimator)
        real, estimates = experiments._matrix_estimate, []

        def recording(*args):
            estimates.append(real(*args))
            return estimates[-1]

        monkeypatch.setattr(experiments, "_matrix_estimate", recording)
        (record,) = run_rep(config, 1)
        monkeypatch.undo()
        model = experiments.build_model(config, 1)
        data = experiments.sample_dataset(config, 1, 2000)
        table = step_counts(data, 1, *model.features.shape[:2])
        result = experiments.invert_matrix(config, model, table)
        assert np.array_equal(result["theta_hat"], estimates[0][0][0])
        # the runner's per-step norm (axis=1) sums the squares in another
        # order than the 1-D norm, so compare with that form, not to an ulp
        diff = np.array(result["theta_hat"]) - model.theta
        assert record.theta_err == np.linalg.norm(diff[None], axis=1)[0]

    def test_simulate_then_invert_markov(self, tmp_path, capsys):
        out = tmp_path / "sim"
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"kind": "markov", "seed": 4, "samples": [3000], "H": 3})
        )
        assert run_cli(["simulate", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        result_path = tmp_path / "markov.json"
        code = run_cli(
            [
                "invert-markov", "--config", str(config),
                "--data", str(out / "dataset.csv"), "--out", str(result_path),
            ]
        )
        assert code == 0
        result = json.loads(result_path.read_text())
        assert len(result["theta_hat"]) == 3

    @pytest.mark.bitwise
    @pytest.mark.parametrize("policy_estimator", ["frequency", "mle"])
    def test_invert_markov_estimates_as_the_runner(self, monkeypatch, policy_estimator):
        # the runner and invert-markov make one estimate with one config; the
        # command's threshold is the scalar kappa_rule(N), the runner's per step
        config = ExperimentConfig(
            kind="markov", seed=4, samples=(2000,), horizon=3, policy_estimator=policy_estimator
        )
        real, calls = experiments._markov_estimate, []

        def recording(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(experiments, "_markov_estimate", recording)
        (record,) = run_rep(config, 1)
        model = experiments.build_model(config, 1)
        table = step_counts(experiments.sample_dataset(config, 1, 2000), 4, 5, 5)
        result = experiments.invert_markov(config, model, table)
        monkeypatch.undo()
        assert not record.error
        (run_args, (run_estimate,)), (invert_args, (invert_estimate,)) = calls
        assert run_args[0] is invert_args[0] is config
        assert invert_args[3] == result["kappa"] == experiments.kappa_rule(2000)
        assert np.array_equal(result["theta_hat"], invert_estimate[0])
        assert np.array_equal(result["rewards"], invert_estimate[2])
        assert result["feasible"] == invert_estimate[4].tolist()
        # at the runner's thresholds, the command's model and data give the runner's estimate
        (again,) = real(config, model, [table], run_args[3])
        for k in (0, 1, 2, 4):
            assert np.array_equal(again[k], run_estimate[k])

    def test_invert_markov_under_mle_is_the_mle_recovery(self, tmp_path, capsys):
        # invert-markov ran recover_rewards under either policy_estimator, so
        # its mle JSON was the frequency one
        sim = tmp_path / "sim"
        args = ["simulate", "--kind", "markov", "--seed", "3", "--samples", "3000"]
        assert run_cli([*args, "--out", str(sim)]) == 0
        results = {}
        for estimator in ("frequency", "mle"):
            fields = {"kind": "markov", "seed": 3, "policy_estimator": estimator}
            config = write_config(tmp_path, fields, f"{estimator}.json")
            path = tmp_path / f"{estimator}_result.json"
            assert run_cli(["invert-markov", "--config", config, "--data",
                            str(sim / "dataset.csv"), "--out", str(path)]) == 0
            results[estimator] = json.loads(path.read_text())
        capsys.readouterr()
        assert results["mle"] != results["frequency"]
        model = markov_model(stream(3, 0))
        inversion = InversionConfig(
            features=model.features, eta=experiments.ETA, gamma=1.0,
            kappa=experiments.kappa_rule(3000), ridge_lambda=experiments.MARKOV_RIDGE_LAMBDA,
            theta_norm_cap=experiments.MARKOV_THETA_CAP,
            policy_model=saturated_policy_model(4, 5, 5),
        )
        sample = recover_rewards_mle(read_dataset(sim / "dataset.csv"), inversion)[0]
        assert results["mle"] == {
            "theta_hat": sample.thetas.tolist(),
            "feasible": sample.feasible.tolist(),
            "kappa": inversion.kappa,
            "rewards": sample.rewards.tolist(),
        }

    def test_simulate_rerun_gives_identical_bytes(self, tmp_path, capsys):
        args = ["simulate", "--kind", "markov", "--seed", "6", "--samples", "3000"]
        for name in ("a", "b"):
            assert run_cli([*args, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        first = (tmp_path / "a" / "dataset.csv").read_bytes()
        assert first == (tmp_path / "b" / "dataset.csv").read_bytes()
        assert b"\r" not in first and b" " not in first

    @pytest.mark.parametrize(
        "row, column, value, message",
        [
            (0, "action_a", 7, "action_a must lie in 0..4"),
            (0, "next_state", -1, "next_state must lie in 0..3"),
            (5, "state", 4, "state must lie in 0..3"),
            (0, "next_state", "{other}", "next_state at step h must equal state"),
        ],
        ids=["action_out_of_range", "negative_next_state", "state_out_of_range",
             "broken_state_chain"],
    )
    def test_invert_markov_rejects_bad_dataset(
        self, tmp_path, capsys, row, column, value, message
    ):
        out = tmp_path / "sim"
        kind = ["--kind", "markov", "--seed", "3"]
        assert run_cli(["simulate", *kind, "--samples", "2000", "--out", str(out)]) == 0
        dataset = out / "dataset.csv"
        if value == "{other}":
            # a valid state index that breaks the episode's state chain
            value = (int(dataset.read_text().splitlines()[2].split(",")[2]) + 1) % 4
        edit_dataset(dataset, row, column, value)
        capsys.readouterr()
        result_path = tmp_path / "markov.json"
        code = run_cli(
            ["invert-markov", *kind, "--data", str(dataset), "--out", str(result_path)]
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not result_path.exists()

    @pytest.mark.parametrize(
        "command, kind", [("invert-matrix", "setup1"), ("invert-markov", "markov")]
    )
    def test_invert_scans_the_dataset_once(self, tmp_path, capsys, monkeypatch, command, kind):
        # read_counts has read_dataset check the indices, then makes the
        # count table of the model's shape, and the estimators read that table
        out = tmp_path / "sim"
        args = ["--kind", kind, "--seed", "3"]
        assert run_cli(["simulate", *args, "--samples", "500", "--out", str(out)]) == 0
        scans, passes = [], []
        scan, count_steps = EpisodeDataset.check, sampling._count_steps

        def scanning(data, *shape):
            scans.append(shape)
            return scan(data, *shape)

        def counting(data, *shape):
            passes.append(shape)
            return count_steps(data, *shape)

        monkeypatch.setattr(EpisodeDataset, "check", scanning)
        monkeypatch.setattr(sampling, "_count_steps", counting)
        result = tmp_path / "result.json"
        code = run_cli([command, *args, "--data", str(out / "dataset.csv"), "--out", str(result)])
        assert code == 0 and result.exists()
        assert len(scans) == 1 and passes == scans

    def test_invert_matrix_rejects_bad_dataset(self, tmp_path, capsys):
        out = tmp_path / "sim"
        kind = ["--kind", "setup1", "--seed", "3"]
        assert run_cli(["simulate", *kind, "--samples", "500", "--out", str(out)]) == 0
        dataset = out / "dataset.csv"
        capsys.readouterr()
        for column, value, message in (
            ("action_b", 6, "action_b must lie in 0..5"),
            ("state", 1, "state must lie in 0..0"),
        ):
            original = dataset.read_text()
            edit_dataset(dataset, 3, column, value)
            assert run_cli(["invert-matrix", *kind, "--data", str(dataset)]) == 1
            assert message in capsys.readouterr().err
            dataset.write_text(original)
        dataset.write_text(
            "episode,step,state,action_a,action_b,next_state\n0,0,0,1,1,0\n0,1,0,1,1,0\n"
        )
        assert run_cli(["invert-matrix", *kind, "--data", str(dataset)]) == 1
        assert "dataset has horizon 2, the model 1" in capsys.readouterr().err
        dataset.write_text("not,a,dataset\n")
        assert run_cli(["invert-matrix", *kind, "--data", str(dataset)]) == 1
        assert "cannot read dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("command, kind", [("invert-matrix", "setup1"),
                                               ("invert-markov", "markov")])
    @pytest.mark.parametrize(
        "episodes", [(0, 0, 2), (-1, 1)], ids=["duplicated_episode", "negative_episode"]
    )
    def test_invert_rejects_keys_off_the_grid(self, tmp_path, capsys, command, kind, episodes):
        dataset = tmp_path / "dataset.csv"
        rows = "".join(f"{e},0,0,1,1,0\n" for e in episodes)
        dataset.write_text("episode,step,state,action_a,action_b,next_state\n" + rows)
        result_path = tmp_path / "result.json"
        code = run_cli([command, "--kind", kind, "--seed", "3", "--data", str(dataset),
                        "--out", str(result_path)])
        assert code == 1
        assert "(episode, step) must be each of" in capsys.readouterr().err
        assert not result_path.exists()

    def test_experiment_end_to_end_deterministic(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "kind": "setup1",
                    "seed": 12,
                    "samples": [1000],
                    "reps": 2,
                    "out": str(tmp_path / "run1"),
                }
            )
        )
        assert run_cli(["experiment", "--config", str(config)]) == 0
        assert run_cli(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "run2")]
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "run1" / "runs.csv").read_bytes() == (
            tmp_path / "run2" / "runs.csv"
        ).read_bytes()

    def test_numerical_failures_exit_two(self, tmp_path, capsys, monkeypatch):
        # a truth solve cut off after one Newton step fails every record
        monkeypatch.setattr(matrix_game, "MAX_NEWTON_STEPS", 1)
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "kind": "custom",
                    "seed": 2,
                    "samples": [100],
                    "reps": 2,
                    "theta": [0.5, -0.25],
                    "out": str(tmp_path / "bad"),
                }
            )
        )
        assert run_cli(["experiment", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "record failed" in err
        lines = (tmp_path / "bad" / "runs.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[4] == ""  # failed records carry no metrics

    @pytest.mark.parametrize(
        "command, fields, where",
        [("solve-qre", {"payoff": [[1e308, -1e308], [0, 1]]}, ""),
         ("simulate", {"kind": "markov", "eta": 1e300, "samples": [100]}, " at step 5, state 0")],
        ids=["solve_qre", "simulate"],
    )
    def test_single_shot_numerical_failure_exits_two(
        self, tmp_path, capsys, monkeypatch, command, fields, where
    ):
        # both solves do not converge; a 20-step cut stands in for the
        # thousands of steps they take before they stall
        monkeypatch.setattr(matrix_game, "MAX_NEWTON_STEPS", 20)
        config = write_config(tmp_path, fields)
        out = tmp_path / "out"
        assert run_cli([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: QRE solve did not converge" + where)
        assert err.count("\n") == 1
        assert not out.exists()

    def test_a_stalled_solve_fails_simulate_quickly(self, tmp_path, capsys, monkeypatch):
        # at eta = 1e300 the continuation stalls near t = 0; with no cut, the
        # solve gives up at the stall, not after MAX_NEWTON_STEPS Newton steps
        steps = []
        real = markov_game.solve_qre_batch

        def counting(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except QreConvergenceError as err:
                steps.append(err.iterations)
                raise

        monkeypatch.setattr(markov_game, "solve_qre_batch", counting)
        config = write_config(tmp_path, {"kind": "markov", "eta": 1e300, "samples": [100]})
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: QRE solve did not converge at step 5")
        # the stall is named; the residual of its last trial, below tol, is not
        assert "Newton steps (stalled; failed entries" in err and "residual" not in err
        assert err.count("\n") == 1
        assert steps and max(steps) <= 10_000
        assert not out.exists()

    def test_custom_kind_via_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "kind": "custom",
                    "seed": 2,
                    "samples": [2000],
                    "reps": 2,
                    "m": 3,
                    "n": 4,
                    "theta": [0.5, -0.25],
                    "estimator": "confidence_set",
                    "out": str(tmp_path / "custom"),
                }
            )
        )
        assert run_cli(["experiment", "--config", str(config)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "custom" / "runs.csv").read_text().splitlines()
        assert len(lines) == 3


class TestMainCallsInOneProcess:
    """main builds its parser once per process, and each call parses as a
    fresh parser would: no exit code or flag carries over to the next."""

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_the_config_field_types_are_resolved_once(self, monkeypatch, tmp_path):
        resolved, get_type_hints = [], cli.typing.get_type_hints

        def counting(*args):
            resolved.append(args)
            return get_type_hints(*args)

        monkeypatch.setattr(cli.typing, "get_type_hints", counting)
        cli._config_hints.cache_clear()
        out = str(tmp_path / "sim")
        for seed in ("1", "2"):
            argv = ["simulate", "--kind", "markov", "--seed", seed, "--samples", "10", "--out", out]
            assert run_cli(argv) == 0
        assert resolved == [(ExperimentConfig,)]
        assert cli._config_hints() == get_type_hints(ExperimentConfig)

    def test_a_usage_error_then_a_valid_command(self, tmp_path, capsys):
        out = tmp_path / "sim"
        simulate = ["simulate", "--kind", "setup1", "--seed", "3", "--samples", "200",
                    "--out", str(out)]
        for _ in range(2):
            assert run_cli(["simulate", "--samples"]) == 1  # the flag lacks its value
            assert "usage error" in capsys.readouterr().err
            assert run_cli(simulate) == 0
            assert capsys.readouterr().err == ""
        assert (out / "dataset.csv").exists()

    def test_emit_timings_is_not_carried_over(self, tmp_path, capsys):
        config = write_config(tmp_path, {"kind": "setup1", "seed": 12, "samples": [200],
                                         "reps": 2})

        def durations(*flags):
            out = tmp_path / f"run{len(flags)}"
            assert run_cli(["experiment", "--config", config, *flags, "--out", str(out)]) == 0
            return [row.split(",")[-1] for row in (out / "runs.csv").read_text().splitlines()[1:]]

        assert all(durations("--emit-timings"))
        assert durations() == ["", ""]
        fresh = cli.build_parser.__wrapped__()
        for argv in (["experiment", "--emit-timings", "--seed", "1"], ["experiment"]):
            assert vars(cli.build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


class TestEveryCommandReadsTheConfig:
    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("setup1", "eta", 1.0),
            ("setup2", "eta", 1.0),
            ("markov", "eta", 1.0),
            ("markov", "ridge_lambda", 10.0),
        ],
    )
    def test_changing_the_field_changes_the_run(self, tmp_path, capsys, kind, field, value):
        base = {"kind": kind, "seed": 5, "samples": [1000], "reps": 1}
        if kind == "markov":
            base["H"] = 3
        runs = []
        for name, extra in (("default", {}), ("changed", {field: value})):
            out = tmp_path / name
            config = write_config(tmp_path, {**base, **extra, "out": str(out)}, f"{name}.json")
            assert run_cli(["experiment", "--config", config]) == 0
            runs.append((out / "runs.csv").read_text())
        capsys.readouterr()
        assert runs[0] != runs[1]

    @pytest.fixture(scope="class")
    def datasets(self, tmp_path_factory):
        # a markov and a setup1 dataset of seed 3, simulated once
        out = tmp_path_factory.mktemp("sim")
        for kind in ("markov", "setup1"):
            args = ["simulate", "--kind", kind, "--seed", "3", "--samples", "3000"]
            assert run_cli([*args, "--out", str(out / kind)]) == 0
        return out

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("invert-markov", "policy_estimator", "mle"),
            ("invert-markov", "ridge_lambda", 1.0),
            ("invert-markov", "kappa_scale", 1e5),
            ("invert-markov", "gamma", 0.5),
            ("invert-markov", "eta", 0.7),
            ("invert-matrix", "estimator", "confidence_set"),
            ("invert-matrix", "kappa_scale", 1e5),
            ("invert-matrix", "eta", 0.7),
        ],
    )
    def test_changing_the_field_changes_the_inversion(
        self, tmp_path, capsys, datasets, command, field, value
    ):
        kind = "markov" if command == "invert-markov" else "setup1"
        results = []
        for name, extra in (("default", {}), ("changed", {field: value})):
            config = write_config(tmp_path, {"kind": kind, "seed": 3, **extra}, f"{name}.json")
            out = tmp_path / f"{name}_result.json"
            data = str(datasets / kind / "dataset.csv")
            assert run_cli([command, "--config", config, "--data", data, "--out", str(out)]) == 0
            results.append(out.read_text())
        capsys.readouterr()
        assert results[0] != results[1]

    def test_simulate_markov_draws_from_the_configured_eta(self, tmp_path, capsys):
        fields = {"kind": "markov", "eta": 1.0, "seed": 3, "samples": [500], "H": 3}
        config = write_config(tmp_path, fields)
        assert run_cli(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        spec = replace(markov_model(stream(3, 0), horizon=3), eta=1.0).to_tabular()
        truth, _ = backward_qre(spec, tol=1e-12)
        expected = sample_episodes(spec, truth, np.full(spec.S, 1.0 / spec.S), 500, 3, 0)
        written = read_dataset(tmp_path / "dataset.csv")
        for column in ("states", "actions_a", "actions_b", "next_states"):
            assert np.array_equal(getattr(written, column), getattr(expected, column))


class TestUsageErrors:
    """Bad config values exit 1 with a usage error, never a traceback."""

    def assert_usage_error(self, capsys, args, message=""):
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err

    def test_non_integer_samples_flag(self, tmp_path, capsys):
        args = ["experiment", "--kind", "setup1", "--samples", "1e3", "--out", str(tmp_path)]
        self.assert_usage_error(capsys, args, "'samples'")

    @pytest.mark.parametrize(
        "fields",
        [{"samples": [1000, "many"]}, {"samples": [float("inf")]}, {"theta": [0.5, "x"]},
         {"reps": True}, {"samples": [True, 100]}, {"eta": True}, {"theta": [True, 0.5]}],
        ids=["samples", "infinite_samples", "theta", "boolean_reps", "boolean_sample",
             "boolean_eta", "boolean_theta"],
    )
    def test_non_numeric_json_values(self, tmp_path, capsys, fields):
        config = write_config(tmp_path, {"kind": "custom", "theta": [0.5, -0.25], **fields})
        args = ["experiment", "--config", config, "--out", str(tmp_path / "out")]
        self.assert_usage_error(capsys, args, repr(next(iter(fields))))

    @pytest.mark.parametrize("command", ["experiment", "simulate", "invert-matrix"])
    @pytest.mark.parametrize(
        "theta, norm_cap, message",
        [([1.5, -1.5], 4.0, "above norm_cap"),
         ([math.inf, 0.0], math.inf, "theta must be finite, got (inf, 0.0)")],
        ids=["above_the_norm_cap", "infinite"],
    )
    def test_custom_theta_the_config_rejects(
        self, tmp_path, capsys, theta, norm_cap, message, command
    ):
        fields = {"kind": "custom", "theta": theta, "norm_cap": norm_cap, "samples": [100]}
        args = [command, "--config", write_config(tmp_path, fields)]
        args += ["--out", str(tmp_path / "out")]
        if command == "invert-matrix":
            args += ["--data", str(tmp_path / "missing.csv")]
        self.assert_usage_error(capsys, args, message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "custom", "m": 0, "norm_cap": 0, "theta": [0.1, 0.2]},
             "norm_cap must be positive, got 0.0"),
            ({"kind": "custom", "norm_cap": -1.0, "theta": [0.0, 0.0]},
             "norm_cap must be positive, got -1.0"),
            ({"kind": "custom", "m": 0, "theta": [0.1, 0.2]}, "got 0x4"),
            ({"kind": "markov", "n": 0}, "got 5x0"),
            ({"kind": "setup1", "estimator": ""}, "unknown estimator ''"),
            ({"kind": "custom", "m": None, "theta": [0.1, 0.2]}, "'m' cannot be None"),
        ],
        ids=["custom_zero_m_and_norm_cap", "custom_negative_norm_cap", "custom_zero_m",
             "markov_zero_n", "empty_estimator", "null_m"],
    )
    def test_an_explicit_zero_or_empty_value_is_no_default(
        self, tmp_path, capsys, fields, message
    ):
        # only a field the config leaves out takes its kind's default; a 0 m
        # and norm_cap ran a 4x4 game at cap 4.0, and "" the default estimator
        config = write_config(tmp_path, {"samples": [100], "reps": 1, **fields})
        args = ["experiment", "--config", config, "--out", str(tmp_path / "out")]
        self.assert_usage_error(capsys, args, message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "invert-markov", "experiment"])
    @pytest.mark.parametrize(
        "fields, message",
        [
            # markov instances fix d to the length of their reward parameter,
            # so d is no config field
            ({"d": 3}, "unknown config field 'd'"),
            ({"m": 1}, "markov model"),
            ({"S": 0}, "markov model"),
            ({"H": 0}, "markov model"),
        ],
        ids=["d3", "m1", "S0", "H0"],
    )
    def test_markov_model_the_builder_rejects(self, tmp_path, capsys, command, fields, message):
        config = write_config(
            tmp_path, {"kind": "markov", "samples": [100], "reps": 2, **fields}
        )
        args = [command, "--config", config, "--out", str(tmp_path / "out")]
        if command == "invert-markov":
            args += ["--data", str(tmp_path / "missing.csv")]
        self.assert_usage_error(capsys, args, message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--seed"), ("simulate", "--rep"), ("invert-matrix", "--seed"),
         ("invert-matrix", "--rep"), ("invert-markov", "--seed"), ("invert-markov", "--rep"),
         ("experiment", "--seed")],
    )
    def test_a_negative_seed_or_rep(self, tmp_path, capsys, command, flag):
        # a stream's seed and rep are nonnegative: rejected where they enter,
        # not by SeedSequence in the middle of a command or of every record
        kind = "setup1" if command == "invert-matrix" else "markov"
        out = tmp_path / "out"
        args = [command, "--kind", kind, flag, "-1", "--samples", "100", "--out", str(out)]
        if command == "experiment":
            args += ["--reps", "1"]
        elif command.startswith("invert"):
            args += ["--data", str(tmp_path / "missing.csv")]
        self.assert_usage_error(capsys, args, f"{flag[2:]} must be nonnegative, got -1")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["experiment", "simulate", "invert-matrix", "invert-markov"]
    )
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("eta", -0.5, "eta must be positive and finite"),
            ("eta", 0.0, "eta must be positive and finite"),
            ("eta", float("inf"), "eta must be positive and finite"),
            ("gamma", 1.5, "gamma must be in [0, 1]"),
            ("gamma", -0.1, "gamma must be in [0, 1]"),
            ("ridge_lambda", 0.0, "ridge_lambda must be positive and finite"),
            ("kappa_scale", -1.0, "kappa_scale must be nonnegative and finite"),
            ("kappa_scale", float("inf"), "kappa_scale must be nonnegative and finite"),
            ("threads", 2, "unknown config field 'threads'"),
        ],
        ids=["negative_eta", "zero_eta", "infinite_eta", "gamma_above_1", "negative_gamma",
             "zero_ridge_lambda", "negative_kappa_scale", "infinite_kappa_scale",
             "threads"],
    )
    def test_out_of_range_value(self, tmp_path, capsys, command, field, value, message):
        kind = "setup1" if command == "invert-matrix" else "markov"
        config = write_config(tmp_path, {"kind": kind, "samples": [100], field: value})
        args = [command, "--config", config, "--out", str(tmp_path / "out")]
        if command.startswith("invert"):
            args += ["--data", str(tmp_path / "missing.csv")]
        self.assert_usage_error(capsys, args, message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fields, key",
        [
            ({"kind": "setup1", "m": 3, "theta": [1.0], "H": 2}, "m"),
            ({"kind": "setup2", "ridge_lambda": 1.0}, "ridge_lambda"),
            ({"kind": "custom", "theta": [0.5, -0.25], "H": 2}, "horizon"),
            ({"kind": "custom", "theta": [0.5, -0.25], "policy_estimator": "mle"},
             "policy_estimator"),
            ({"kind": "markov", "estimator": "least_squares"}, "estimator"),
            ({"kind": "markov", "theta": [0.8, -0.6]}, "theta"),
        ],
        ids=["setup1", "setup2", "custom_horizon", "custom_policy_estimator",
             "markov_estimator", "markov_theta"],
    )
    def test_a_field_the_kind_does_not_read(self, tmp_path, capsys, fields, key):
        config = write_config(tmp_path, {"samples": [1000], "reps": 1, **fields})
        args = ["experiment", "--config", config, "--out", str(tmp_path / "out")]
        self.assert_usage_error(capsys, args, f"does not read config field {key!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alias, field", sorted(cli.ALIASES.items()))
    def test_a_field_set_by_its_alias_and_its_name(self, tmp_path, capsys, alias, field):
        # one of the two values was dropped silently
        config = write_config(
            tmp_path, {"kind": "markov", "samples": [100], "reps": 1, alias: 2, field: 3}
        )
        args = ["experiment", "--config", config, "--out", str(tmp_path / "out")]
        self.assert_usage_error(
            capsys, args, f"config sets {field!r} twice, as {alias!r} and {field!r}"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "files, args, message",
        [
            ({}, ["--payoff", "missing.csv"], "missing.csv"),
            ({}, ["--config", "missing.json"], "missing.json"),
            ({"cfg.json": '{"eta": 1.0}'}, ["--config", "cfg.json"], "no 'payoff' entry"),
            ({"cfg.json": '{"payoff": [[1, "x"], [0, 1]]}'}, ["--config", "cfg.json"],
             "could not convert"),
            ({"cfg.json": '{"payoff": [[1, 0], [0, 1]], "eta": true}'},
             ["--config", "cfg.json"], "config eta cannot be True"),
            ({"cfg.json": '{"payoff": [[true, 0], [0, 1]], "eta": 0.5}'},
             ["--config", "cfg.json"], "config payoff cannot be [[True, 0], [0, 1]]"),
            ({"p.csv": "1,0\n"}, ["--payoff", "p.csv"], "at least 2x2, got shape (1, 2)"),
            ({"p.csv": "1,0\n0,1\n"}, ["--payoff", "p.csv", "--eta", "-1"],
             "eta must be positive"),
            ({"p.csv": "1,0\n0,1\n"}, ["--payoff", "p.csv", "--tol", "0"],
             "tol and eta must be positive"),
            ({"p.csv": "1,2\n3,4\n"}, ["--payoff", "p.csv", "--eta", "inf"],
             "eta must be positive and finite"),
            # loadtxt warned of the missing rows before the usage error
            ({"p.csv": ""}, ["--payoff", "p.csv"], "payoff file p.csv holds no rows"),
            ({"p.csv": "# a comment\n"}, ["--payoff", "p.csv"], "payoff file p.csv holds no rows"),
        ],
        ids=["missing_payoff", "missing_config", "config_without_payoff", "non_numeric",
             "boolean_eta", "boolean_payoff", "one_row", "negative_eta", "zero_tol", "infinite_eta",
             "empty_payoff", "comment_only_payoff"],
    )
    @pytest.mark.filterwarnings("error")
    def test_solve_qre_bad_input(self, tmp_path, capsys, monkeypatch, files, args, message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        self.assert_usage_error(capsys, ["solve-qre", *args, "--out", "out.json"], message)
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "command", ["simulate", "experiment", "invert-markov", "invert-matrix", "solve-qre"]
    )
    @pytest.mark.parametrize("text", ["[1, 2]", '"markov"', "null"], ids=["list", "string", "null"])
    def test_a_config_that_is_no_json_object(self, tmp_path, capsys, command, text):
        # raw[flag] = value raised TypeError, and solve-qre said only
        # "list indices must be integers"
        (tmp_path / "cfg.json").write_text(text)
        config = str(tmp_path / "cfg.json")
        args = [command, "--config", config, "--out", str(tmp_path / "out")]
        if command.startswith("invert"):
            args += ["--data", str(tmp_path / "missing.csv")]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: config {config} must be a JSON object\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command", ["simulate", "experiment", "invert-markov", "invert-matrix", "solve-qre"]
    )
    def test_an_out_under_a_regular_file(self, tmp_path, capsys, monkeypatch, command):
        # Path.mkdir raised FileExistsError or NotADirectoryError, and
        # experiment only after its whole run
        kind = "setup1" if command == "invert-matrix" else "markov"
        args = ["--kind", kind, "--seed", "3", "--samples", "200"]
        if command.startswith("invert"):
            assert run_cli(["simulate", *args, "--out", str(tmp_path / "sim")]) == 0
            args += ["--data", str(tmp_path / "sim" / "dataset.csv")]
        elif command == "solve-qre":
            (tmp_path / "p.csv").write_text("1,0\n0,1\n")
            args = ["--payoff", str(tmp_path / "p.csv")]
        capsys.readouterr()
        blocker = tmp_path / "file"
        blocker.write_text("")

        def no_repetition(*args):
            raise AssertionError("a repetition ran")

        monkeypatch.setattr(experiments, "run_rep", no_repetition)
        args += ["--out", str(blocker / "out")]
        self.assert_usage_error(capsys, [command, *args], str(blocker))
        assert blocker.read_text() == ""

    def test_invert_markov_needs_the_markov_kind(self, tmp_path, capsys):
        out = tmp_path / "sim"
        kind = ["--kind", "markov", "--seed", "3"]
        assert run_cli(["simulate", *kind, "--samples", "200", "--out", str(out)]) == 0
        capsys.readouterr()
        data = ["--seed", "3", "--data", str(out / "dataset.csv")]
        args = ["invert-markov", "--kind", "setup1", *data, "--out", str(tmp_path / "a.json")]
        self.assert_usage_error(capsys, args, "'setup1'")
        # without --kind, invert-markov still means markov
        assert run_cli(["invert-markov", *data, "--out", str(tmp_path / "b.json")]) == 0

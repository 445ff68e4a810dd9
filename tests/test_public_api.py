"""The reviewed public surface of the invgame package, and the names the
benchmark under benchmarks/ reads from outside it.

Adding or removing a public name is an API decision, so it shows up here as
a test edit.  A rename that would break the traced benchmark fails here in
about a second.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

import invgame
from invgame.cli import ALIASES
from invgame.experiments import KIND_FIELDS, KINDS, ExperimentConfig, markov_model

PUBLIC_NAMES = [
    "ConfidenceSet",
    "EmpiricalMarkovQRE",
    "EpisodeDataset",
    "FeasibleSet",
    "FeatureModel",
    "InversionConfig",
    "LinearMDPModel",
    "LinearSystem",
    "MarkovGameSpec",
    "MatrixGameSpec",
    "MleFit",
    "PolicyPair",
    "QreConvergenceError",
    "RecoveredRewardSample",
    "RidgeTransitionEstimator",
    "SoftmaxPolicyModel",
    "StagePolicies",
    "ValueFunctions",
    "backward_qre",
    "build_confidence_set",
    "build_stepwise_system",
    "feasible_set_from_policies",
    "frequency_estimate_markov",
    "frequency_estimate_matrix",
    "game_value",
    "hausdorff_estimate",
    "min_norm_theta",
    "mle_fit",
    "qre_discrepancy_markov",
    "qre_residual",
    "read_dataset",
    "reconstruct_payoff",
    "recover_rewards",
    "recover_rewards_mle",
    "reward_metric_D",
    "reward_metric_D1",
    "ridge_fit",
    "sample_episodes",
    "solve_qre",
    "solve_qre_batch",
    "stepwise_confidence_sets",
    "stream",
    "visit_distributions",
    "write_dataset",
]


# The options each command and driver reads.  A new knob, like a new name,
# is an API decision.
OPTIONS = {
    invgame.InversionConfig: [
        "features", "eta", "gamma", "kappa", "ridge_lambda", "theta_norm_cap",
        "policy_model",
    ],
    ExperimentConfig: [
        "kind", "seed", "samples", "reps", "out", "eta", "gamma", "m", "n",
        "s_len", "horizon", "theta", "norm_cap", "kappa_scale", "ridge_lambda",
        "estimator", "policy_estimator", "emit_timings",
    ],
    invgame.solve_qre: ["spec", "tol"],
    invgame.solve_qre_batch: ["payoffs", "eta", "tol"],
    invgame.mle_fit: ["data", "model", "step", "player"],
    invgame.SoftmaxPolicyModel: ["psi_a", "psi_b"],
}


def test_exports_are_the_reviewed_list():
    assert sorted(invgame.__all__) == PUBLIC_NAMES


def test_options_are_the_reviewed_list():
    for owner, names in OPTIONS.items():
        if dataclasses.is_dataclass(owner):
            got = [field.name for field in dataclasses.fields(owner)]
        else:
            got = list(inspect.signature(owner).parameters)
        assert got == names, owner.__name__


def test_readme_config_table_names_every_field():
    # the README's config table is the user's list of fields: its first
    # column, aliases read as the fields they stand for, is every field a
    # config may set (kind has its own flag and paragraph)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| field | read by | default | accepted |", 1)[1]
    named = []
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        named += re.findall(r"`([^`]+)`", line.split("|")[1])
    fields = [field.name for field in dataclasses.fields(ExperimentConfig)]
    assert sorted(ALIASES.get(name, name) for name in named) == sorted(set(fields) - {"kind"})


def test_readme_config_table_names_the_kinds_that_read_each_field():
    # a field only some kinds read names exactly those kinds, as
    # experiments.KIND_FIELDS has them, in its "read by" cell
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| field | read by | default | accepted |", 1)[1]
    read_by = {}
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        kinds = set(re.findall(r"`([^`]+)`", cells[2])) & set(KINDS)
        for name in re.findall(r"`([^`]+)`", cells[1]):
            read_by[ALIASES.get(name, name)] = kinds
    for field, defaults in KIND_FIELDS.items():
        assert read_by[field] == set(defaults), field


def test_one_set_of_markov_defaults():
    # a markov config left at its defaults builds markov_model's instance:
    # KIND_FIELDS and ExperimentConfig.eta agree with its signature defaults
    signature = inspect.signature(markov_model).parameters
    for field in ("s_len", "m", "n", "horizon", "gamma"):
        assert KIND_FIELDS[field]["markov"] == signature[field].default, field
    assert ExperimentConfig("markov").eta == signature["eta"].default


def test_readme_states_the_stopping_rules():
    # the solvers' caps and tolerance are module constants, not options; the
    # README names each with its value
    from invgame import inverse_markov, matrix_game

    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    for module, name in (
        (matrix_game, "MAX_NEWTON_STEPS"), (inverse_markov, "MLE_MAX_ITER"),
        (inverse_markov, "MLE_TOL"),
    ):
        qualified = f"{module.__name__.removeprefix('invgame.')}.{name}"
        stated = re.findall(rf"`{re.escape(qualified)}` \(([0-9.,e-]+)\)", readme)
        assert stated and float(stated[0].replace(",", "")) == getattr(module, name)


def test_cli_only_parses_and_writes():
    # the inversions live in experiments; the CLI reads and writes datasets
    tree = ast.parse((Path(invgame.__file__).parent / "cli.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update({alias.name: set() for alias in node.names})
    assert not {"invgame.inverse_matrix", "invgame.inverse_markov"} & set(imported)
    assert not {"inverse_matrix", "inverse_markov"} & imported.get("invgame", set())
    assert imported["invgame.sampling"] == {"read_counts", "write_dataset"}
    assert len(PUBLIC_NAMES) == 44


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _resolve(dotted: str):
    """The object that "module.attr[.attr]" names under the invgame package."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"invgame.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_benchmark_traced_layers_resolve():
    # the benchmark reads these from outside; a rename breaks its traced run
    spec = importlib.util.spec_from_file_location("tracing", BENCHMARKS / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.LAYERS:
        assert callable(_resolve(name)), name


def test_benchmark_workload_imports_resolve():
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text())
    modules, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "invgame":
            modules.update(alias.asname or alias.name for alias in node.names)
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("invgame."):
            prefix = node.module.removeprefix("invgame.")
            names += [f"{prefix}.{alias.name}" for alias in node.names]
    for node in ast.walk(tree):  # attributes read off an imported module: cli.main
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            names.append(f"{node.value.id}.{node.attr}")
    assert "cli.main" in names and "sampling.read_dataset" in names
    for name in names:
        _resolve(name)


def test_benchmark_workloads_run_and_pass_their_checks(tmp_path, monkeypatch):
    # the resolve tests above check names only; this runs two workloads
    # once each, op then check, so a changed return type fails here too
    spec = importlib.util.spec_from_file_location("workloads", BENCHMARKS / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    spec.loader.exec_module(workloads)
    roundtrip = workloads.DatasetRoundtrip(tmp_path, episodes=300)
    roundtrip.setup()
    for workload in (workloads.Setup2Geometry(samples=(100, 1000), k=3, cloud=20), roundtrip):
        outputs = workload.op(1)
        assert workload.check(1, outputs) == [], workload.name


@pytest.mark.bitwise
def test_mle_recovery_fits_each_step_and_player_as_mle_fit_does(monkeypatch):
    # recover_rewards_mle fits every step of a player in one lockstep loop
    # (inverse_markov.fit_every_step), not by one mle_fit call per step, so
    # the traced run bills that time to the driver; each fit of the loop is
    # mle_fit's, which the traced run reads iterations and converged of
    from invgame import inverse_markov
    from invgame.experiments import saturated_policy_model

    real, stacks = inverse_markov._fit_stack, []

    def recording(*args):
        stacks.append(real(*args))
        return stacks[-1]

    monkeypatch.setattr(inverse_markov, "_fit_stack", recording)
    rng = invgame.stream(11)
    s_len, m, n, h_len = 3, 2, 3, 4
    data = invgame.EpisodeDataset(
        *(rng.integers(0, size, (200, h_len)) for size in (s_len, m, n, s_len))
    )
    config = invgame.InversionConfig(
        features=rng.standard_normal((s_len, m, n, 2)), eta=0.5, gamma=1.0, kappa=1e5,
        ridge_lambda=0.01, theta_norm_cap=10.0,
        policy_model=saturated_policy_model(s_len, m, n),
    )
    invgame.recover_rewards_mle(data, config)
    monkeypatch.undo()
    # psi_a and psi_b differ in shape (m != n): one stack per player
    assert [len(stack) for stack in stacks] == [h_len, h_len]
    for player, stack in zip("ab", stacks):
        for step, fit in enumerate(stack):
            alone = invgame.mle_fit(data, config.policy_model, step, player)
            assert isinstance(alone.iterations, int) and isinstance(alone.converged, bool)
            assert (fit.iterations, fit.converged) == (alone.iterations, alone.converged)
            assert fit.params.tobytes() == alone.params.tobytes()
            assert fit.objective_trace.tobytes() == alone.objective_trace.tobytes()

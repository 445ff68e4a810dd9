"""Forward and inverse solvers for entropy-regularized zero-sum games.

Forward: compute quantal response equilibria of matrix games and
finite-horizon Markov games.  Inverse: recover the payoff or reward
parameters consistent with observed equilibrium play, as point estimates,
feasible sets, and confidence sets.
"""

import types

from invgame.inverse_markov import (
    InversionConfig,
    MleFit,
    RecoveredRewardSample,
    RidgeTransitionEstimator,
    SoftmaxPolicyModel,
    mle_fit,
    recover_rewards,
    recover_rewards_mle,
    ridge_fit,
    stepwise_confidence_sets,
)
from invgame.inverse_matrix import (
    ConfidenceSet,
    FeasibleSet,
    LinearSystem,
    ProjectionConvergenceError,
    build_confidence_set,
    build_stepwise_system,
    feasible_set_from_policies,
    hausdorff_estimate,
    min_norm_theta,
    reconstruct_payoff,
)
from invgame.markov_game import (
    LinearMDPModel,
    MarkovGameSpec,
    StagePolicies,
    ValueFunctions,
    backward_qre,
    visit_distributions,
)
from invgame.matrix_game import (
    FeatureModel,
    MatrixGameSpec,
    PolicyPair,
    QreConvergenceError,
    game_value,
    qre_residual,
    solve_qre,
    solve_qre_batch,
)
from invgame.metrics import (
    qre_discrepancy_markov,
    reward_metric_D,
    reward_metric_D1,
)
from invgame.sampling import (
    EmpiricalMarkovQRE,
    EpisodeDataset,
    frequency_estimate_markov,
    frequency_estimate_matrix,
    read_dataset,
    sample_episodes,
    stream,
    write_dataset,
)

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)

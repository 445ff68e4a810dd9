"""The reviewed public surface of the invgame package.

Adding or removing a public name is an API decision, so it shows up here as
a test edit.
"""

import invgame

PUBLIC_NAMES = [
    "ConfidenceSet",
    "EmpiricalMarkovQRE",
    "EmpiricalQRE",
    "EpisodeDataset",
    "ErrorReport",
    "FeasibleSet",
    "FeatureModel",
    "InversionConfig",
    "LinearMDPModel",
    "LinearSystem",
    "MarkovGameSpec",
    "MatrixDataset",
    "MatrixGameSpec",
    "MleFit",
    "PartialIdentifiabilityError",
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
    "empirical_state_distribution",
    "feasible_set_from_policies",
    "frequency_estimate_markov",
    "frequency_estimate_matrix",
    "game_value",
    "hausdorff_estimate",
    "hellinger_sq",
    "least_squares_theta",
    "min_norm_theta",
    "mle_fit",
    "qre_discrepancy",
    "qre_discrepancy_markov",
    "qre_residual",
    "rank_condition",
    "read_dataset",
    "reconstruct_payoff",
    "recover_rewards",
    "recover_rewards_mle",
    "reward_metric_D",
    "reward_metric_D1",
    "ridge_fit",
    "sample_episodes",
    "sample_matrix_actions",
    "solve_qre",
    "solve_qre_batch",
    "stepwise_confidence_set",
    "stepwise_confidence_sets",
    "stream",
    "theoretical_kappa",
    "tv",
    "visit_distributions",
    "write_dataset",
]


def test_exports_are_the_reviewed_list():
    assert sorted(invgame.__all__) == PUBLIC_NAMES


"""Linear contextual bandits with partially observed contexts.

The late block W of the context is never observed at decision time; agents
that need it impute it from a model pretrained on complete historical
trajectories and then run optimistic ridge selection on the expected
features, with the confidence radius inflated by the accumulated
divergence between the true conditional law of W and the model's.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EndOfLog,
    EnvError,
    FitError,
    InputError,
    NumericalError,
    ParameterError,
    PersistenceError,
    PulseBanditError,
    UsageError,
)
from .rng import label_words, seed_sequence, substream
from .linalg import (
    new_ridge_state,
    potential_bound_check,
    quadratic_form_inv,
    rank_one_update,
)
from .features import (
    FeatureMap,
    MapKind,
    arm_feature_matrix,
    calibrate_feat_norm_bound,
    lower_bound_two_arm_map,
    phi,
    phi_batch,
    synthetic_interaction_map,
)
from .imputation import (
    HistoricalDataset,
    Imputer,
    ImputerKind,
    expected_feature_matrix,
    fit_kernel,
    fit_linear_ar,
    load_imputer,
    null_imputer,
    save_imputer,
)
from .calibration import (
    BandEstimate,
    GaussianConditional,
    TvKlReport,
    estimate_dt_band,
    gaussian_dt,
    gaussian_kl,
    tv_kl_check,
    unit_range_test_family,
)
from .environments import (
    LowerBoundEnv,
    ReplayLog,
    ReplayStream,
    Rollout,
    SyntheticEnv,
    bump_function,
    generate_history,
    load_replay_log,
    save_replay_log,
)
from .agents import (
    AgentKind,
    AgentState,
    GammaSchedule,
    SelectionForm,
    arm_ucb_scores,
    current_gamma,
    gamma_at,
    gamma_zero,
    make_agent,
    observe,
    select_arm,
    theta_in_ball,
)
from .harness import (
    ExperimentConfig,
    load_config,
    pretrain,
    run_experiment,
    run_replay,
    run_sweep,
    run_trial,
    run_trials,
)

__all__ = [
    "__version__",
    # errors
    "PulseBanditError",
    "ParameterError",
    "InputError",
    "ConfigError",
    "FitError",
    "PersistenceError",
    "NumericalError",
    "UsageError",
    "EnvError",
    "EndOfLog",
    # rng
    "label_words",
    "seed_sequence",
    "substream",
    # linalg
    "new_ridge_state",
    "quadratic_form_inv",
    "rank_one_update",
    "potential_bound_check",
    # features
    "MapKind",
    "FeatureMap",
    "phi",
    "phi_batch",
    "arm_feature_matrix",
    "synthetic_interaction_map",
    "lower_bound_two_arm_map",
    "calibrate_feat_norm_bound",
    # imputation
    "ImputerKind",
    "Imputer",
    "HistoricalDataset",
    "fit_linear_ar",
    "fit_kernel",
    "null_imputer",
    "expected_feature_matrix",
    "save_imputer",
    "load_imputer",
    # calibration
    "GaussianConditional",
    "gaussian_kl",
    "gaussian_dt",
    "unit_range_test_family",
    "TvKlReport",
    "tv_kl_check",
    "BandEstimate",
    "estimate_dt_band",
    # environments
    "Rollout",
    "SyntheticEnv",
    "LowerBoundEnv",
    "bump_function",
    "ReplayLog",
    "ReplayStream",
    "save_replay_log",
    "load_replay_log",
    "generate_history",
    # agents
    "GammaSchedule",
    "gamma_zero",
    "gamma_at",
    "AgentKind",
    "SelectionForm",
    "AgentState",
    "make_agent",
    "arm_ucb_scores",
    "current_gamma",
    "select_arm",
    "observe",
    "theta_in_ball",
    # harness
    "ExperimentConfig",
    "load_config",
    "pretrain",
    "run_trial",
    "run_trials",
    "run_experiment",
    "run_replay",
    "run_sweep",
]

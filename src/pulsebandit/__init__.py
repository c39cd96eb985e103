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
    RidgeState,
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
    custom_map,
    identity_map,
    lower_bound_two_arm_map,
    phi,
    register_custom_map,
    synthetic_interaction_map,
)
from .imputation import (
    HistoricalDataset,
    ImputedFeatures,
    Imputer,
    ImputerKind,
    expected_feature_matrix,
    expected_features,
    fit_kernel,
    fit_linear_ar,
    full_observer,
    load_imputer,
    null_imputer,
    oracle_imputer,
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
    SyntheticEnv,
    bump_function,
    generate_history,
    load_replay_log,
    save_replay_log,
)
from .agents import (
    AgentKind,
    AgentState,
    DtSource,
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
    "RidgeState",
    "new_ridge_state",
    "quadratic_form_inv",
    "rank_one_update",
    "potential_bound_check",
    # features
    "MapKind",
    "FeatureMap",
    "phi",
    "arm_feature_matrix",
    "synthetic_interaction_map",
    "lower_bound_two_arm_map",
    "identity_map",
    "register_custom_map",
    "custom_map",
    "calibrate_feat_norm_bound",
    # imputation
    "ImputerKind",
    "Imputer",
    "HistoricalDataset",
    "ImputedFeatures",
    "fit_linear_ar",
    "fit_kernel",
    "null_imputer",
    "oracle_imputer",
    "full_observer",
    "expected_features",
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
    "SyntheticEnv",
    "LowerBoundEnv",
    "bump_function",
    "ReplayLog",
    "ReplayStream",
    "save_replay_log",
    "load_replay_log",
    "generate_history",
    # agents
    "DtSource",
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
    "run_experiment",
    "run_replay",
    "run_sweep",
]

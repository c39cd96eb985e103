"""Golden digests of the raw per-decision CSVs for a pinned set of configs.

The acceptance rerun check (A10) only compares a run with its own rerun, so
it cannot see a change that alters every number consistently.  These
digests pin the raw outputs themselves.  A change that alters the numerics
on purpose updates the digests and says why in CHANGES.md.

Between them the three configs cover all five agent kinds, every
divergence source (oracle, plug_in, constant, zero), both selection forms,
Monte-Carlo and analytic expected features, the linear-AR and kernel
imputers, the feature-norm dry run, and every replay feature view.
"""

import hashlib
import importlib.resources

import pulsebandit.configs
from pulsebandit import ExperimentConfig, run_experiment, run_replay

REPLAY_LOG = str(importlib.resources.files(pulsebandit.configs) / "replay_demo_log.csv")

SYNTHETIC = {
    "schema_version": 1,
    "name": "golden_synthetic",
    "base_seed": 2024,
    "horizon": 60,
    "trials": 2,
    "gamma_scale": 0.02,
    "environment": {"kind": "synthetic", "nonlinearity": 1.0},
    "schedule": {"lambda": 1.0, "delta": 0.1, "sigma_eta": 0.05, "sigma_eps": 1.0},
    "imputer": {"kind": "linear_ar", "lag": 1, "mc_samples": 8, "analytic": False},
    "pretrain": {"n": 40, "t0": 20, "seed": 5},
    "calibration": {"bootstrap_draws": 10, "split_seed": 3},
    "agents": [
        {"name": "pulse_oracle", "kind": "pulse_ucb", "dt_source": "oracle"},
        {
            "name": "pulse_plug_in",
            "kind": "pulse_ucb",
            "dt_source": "plug_in",
            "selection_form": "ball_maximization",
        },
        {"name": "oful_observed", "kind": "oful_observed", "dt_source": "oracle"},
        {"name": "oful_full", "kind": "oful_full", "dt_source": "oracle"},
        {
            "name": "oful_full_const",
            "kind": "oful_full",
            "dt_source": "constant",
            "constant_dt": 0.001,
        },
        {"name": "oracle_best", "kind": "oracle_best"},
        {"name": "uniform_random", "kind": "uniform_random"},
    ],
}

LOWER_BOUND = {
    "schema_version": 1,
    "name": "golden_lower_bound",
    "base_seed": 31,
    "horizon": 100,
    "trials": 2,
    "gamma_scale": 0.02,
    "environment": {"kind": "lower_bound", "d_lin": 2, "d_non": 2, "reward_sd": 1.0},
    "schedule": {"lambda": 1.0, "delta": 0.1, "sigma_eta": 0.1, "feat_norm_bound": 2.0},
    "imputer": {"kind": "kernel", "beta": 1.0},
    "pretrain": {"n": 300, "t0": 1, "seed": 8},
    "agents": [
        {"name": "oful_full", "kind": "oful_full", "dt_source": "zero"},
        {"name": "pulse_ucb", "kind": "pulse_ucb", "dt_source": "zero"},
        {"name": "oful_observed", "kind": "oful_observed", "dt_source": "zero"},
        {"name": "oracle_best", "kind": "oracle_best"},
        {"name": "uniform_random", "kind": "uniform_random"},
    ],
}

REPLAY = {
    "schema_version": 1,
    "name": "golden_replay",
    "base_seed": 17,
    "horizon": 60,
    "trials": 2,
    "gamma_scale": 0.05,
    "environment": {"kind": "replay", "path": REPLAY_LOG, "k": 10},
    "schedule": {"lambda": 1.0, "delta": 0.1, "sigma_eta": 0.5, "sigma_eps": 2.0},
    "imputer": {"kind": "linear_ar"},
    "pretrain": {"fraction": 0.2},
    "agents": [
        {"name": "oful_full", "kind": "oful_full"},
        {"name": "pulse_ucb", "kind": "pulse_ucb"},
        {"name": "oful_observed", "kind": "oful_observed", "dt_source": "constant",
         "constant_dt": 0.001},
        {"name": "uniform_random", "kind": "uniform_random"},
    ],
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_synthetic_raw_records_digest(tmp_path):
    res = run_experiment(ExperimentConfig(SYNTHETIC), out_dir=str(tmp_path))
    assert _sha256(res["raw_path"]) == (
        "968c551e9cd30ecfdaf4574ffc8eec0892748f66933378de47ba4ab94f198e05"
    )


def test_lower_bound_raw_records_digest(tmp_path):
    res = run_experiment(ExperimentConfig(LOWER_BOUND), out_dir=str(tmp_path))
    assert _sha256(res["raw_path"]) == (
        "00df1eda00f1dcecbdadb78a02aa1a41721b197b97895c967dd1524b358bda54"
    )


def test_replay_raw_digest(tmp_path):
    res = run_replay(ExperimentConfig(REPLAY), out_dir=str(tmp_path))
    assert _sha256(res["raw_path"]) == (
        "2048b182b3e15d6622a351e62d0a24177743e4f5c00184514b68e30a1339fc8b"
    )

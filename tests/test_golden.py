"""Golden digests of the raw per-decision CSVs for a pinned set of configs.

The acceptance rerun check (A10) only compares a run with its own rerun, so
it cannot see a change that alters every number consistently.  These
digests pin the raw outputs themselves.  A change that alters the numerics
on purpose updates the digests and says why in CHANGES.md.

Between them the configs cover all five agent kinds, every divergence
source (oracle, plug_in, constant, zero), both selection forms, the
linear-AR and kernel imputers, the feature-norm dry run, and every replay
feature view.  LONG
and LONG_REPLAY run 4 and 3 trials past `REFACTOR_INTERVAL` decisions, so
forced refactors and batches of more than two trials are pinned for
simulate and replay alike.  On SYNTHETIC and LOWER_BOUND every trial run
alone must also equal its lane of the lockstep batch, and every UCB agent
run alone its lanes of its lane group, as on replay_demo.  The pretraining
histories of shipped configs are pinned as well, as the digest of their S
and W blocks.
"""

import hashlib
import importlib.resources
import json

import numpy as np
import pytest

import pulsebandit.configs
from pulsebandit import (
    ExperimentConfig,
    generate_history,
    load_config,
    pretrain,
    run_experiment,
    run_replay,
    run_trials,
)

CONFIGS = importlib.resources.files(pulsebandit.configs)
REPLAY_LOG = str(CONFIGS / "replay_demo_log.csv")
REPLAY_DEMO = json.loads((CONFIGS / "replay_demo.json").read_text(encoding="utf-8"))
REPLAY_DEMO["environment"]["path"] = REPLAY_LOG
UCB_KINDS = ("pulse_ucb", "oful_observed", "oful_full")

SYNTHETIC = {
    "schema_version": 1,
    "name": "golden_synthetic",
    "base_seed": 2024,
    "horizon": 60,
    "trials": 2,
    "gamma_scale": 0.02,
    "environment": {"kind": "synthetic", "nonlinearity": 1.0},
    "schedule": {"lambda": 1.0, "delta": 0.1, "sigma_eta": 0.05, "sigma_eps": 1.0},
    "imputer": {"kind": "linear_ar", "lag": 1},
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

LONG = {
    "schema_version": 1,
    "name": "golden_long",
    "base_seed": 606,
    "horizon": 600,
    "trials": 4,
    "gamma_scale": 0.02,
    "environment": {"kind": "synthetic", "nonlinearity": "linear"},
    "schedule": {"lambda": 1.0, "delta": 0.1, "sigma_eta": 0.05, "sigma_eps": 1.0},
    "imputer": {"kind": "linear_ar", "lag": 1},
    "pretrain": {"n": 40, "t0": 20, "seed": 9},
    "calibration": {"bootstrap_draws": 10, "split_seed": 4},
    "agents": [
        {"name": "pulse_oracle", "kind": "pulse_ucb", "dt_source": "oracle"},
        {
            "name": "pulse_plug_in",
            "kind": "pulse_ucb",
            "dt_source": "plug_in",
            "selection_form": "ball_maximization",
        },
        {"name": "oful_observed", "kind": "oful_observed"},
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

LONG_REPLAY = {
    **REPLAY,
    "name": "golden_long_replay",
    "base_seed": 909,
    "horizon": 600,
    "trials": 3,
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_synthetic_raw_records_digest(tmp_path):
    res = run_experiment(ExperimentConfig(SYNTHETIC), out_dir=str(tmp_path))
    assert _sha256(res["raw_path"]) == (
        "92018db37bba793bef2367861a60b0aac75ee24bc4d722e7824eb48c75facd32"
    )


def test_lower_bound_raw_records_digest(tmp_path):
    res = run_experiment(ExperimentConfig(LOWER_BOUND), out_dir=str(tmp_path))
    assert _sha256(res["raw_path"]) == (
        "00df1eda00f1dcecbdadb78a02aa1a41721b197b97895c967dd1524b358bda54"
    )


def test_long_raw_records_digest(tmp_path):
    res = run_experiment(ExperimentConfig(LONG), out_dir=str(tmp_path))
    assert _sha256(res["raw_path"]) == (
        "5640f1c8df4f3b0d57a137775eee482bf33d7414926f853f2ea5a8c7a3fd9b8d"
    )


def test_replay_raw_digest(tmp_path):
    res = run_replay(ExperimentConfig(REPLAY), out_dir=str(tmp_path))
    assert _sha256(res["raw_path"]) == (
        "2048b182b3e15d6622a351e62d0a24177743e4f5c00184514b68e30a1339fc8b"
    )


def test_long_replay_raw_digest(tmp_path):
    res = run_replay(ExperimentConfig(LONG_REPLAY), out_dir=str(tmp_path))
    assert _sha256(res["raw_path"]) == (
        "33d8cbfa39cb69f38ccf9dc874c0f22a44e8deff17d11614abaeace421b1c9f0"
    )


@pytest.mark.parametrize("raw", [SYNTHETIC, LOWER_BOUND], ids=["synthetic", "lower_bound"])
def test_a_trial_lane_does_not_depend_on_the_batch(raw):
    # trial i run alone gives exactly lane i of all trials run in lockstep:
    # every (trials, T) column and every per-trial list, for every charge
    # source, a constant one included
    const = {"name": "oful_observed_const", "kind": "oful_observed", "dt_source": "constant",
             "constant_dt": 0.002}
    config = ExperimentConfig({**raw, "agents": raw["agents"] + [const]})
    pre = pretrain(config)
    args = (pre["imputer"], pre["plug_in_dt"], pre["feat_norm_bound"])
    together = run_trials(config, range(config.trials), *args)
    for i in range(config.trials):
        alone = run_trials(config, [i], *args)
        assert alone["agents"].keys() == together["agents"].keys()
        for name, cols in together["agents"].items():
            assert alone["agents"][name].keys() == cols.keys()
            for key, block in cols.items():
                assert alone["agents"][name][key].shape == (1, config.horizon)
                assert np.array_equal(alone["agents"][name][key][0], block[i]), (name, key)
        for key in ("final_dt_cumsum", "final_gamma"):
            assert alone[key] == {name: v[i : i + 1] for name, v in together[key].items()}
        for key in ("kernel_fallbacks", "max_abs_reward"):
            assert alone[key] == together[key][i : i + 1]
    # agent lanes: the UCB agents of one selection form play as one lane group,
    # and each run as the only agent of its config gives exactly its lanes
    ucb = [spec for spec in config.agents if spec["kind"] in UCB_KINDS]
    assert len(ucb) >= 3
    for spec in ucb:
        solo = ExperimentConfig({**raw, "agents": [spec]})
        alone = run_trials(solo, range(config.trials), *args)
        name = spec["name"]
        assert alone["agents"].keys() == {name}
        for key, block in together["agents"][name].items():
            assert np.array_equal(alone["agents"][name][key], block), (name, key)
        for key in ("final_dt_cumsum", "final_gamma"):
            assert alone[key] == {name: together[key][name]}


def test_an_agent_lane_does_not_depend_on_its_replay_group(tmp_path):
    # on replay_demo one candidate stream serves every lane of every seat:
    # oful_full, pulse_ucb and oful_observed share a lane group, with
    # feature-norm bounds of their own, and oful_observed's 3-dim view is
    # zero-padded to the others' 5, so each lane reads its own member's
    # radius at its own dim; each agent replayed alone gives exactly its
    # rows and finals
    raw = {**REPLAY_DEMO, "horizon": 80}
    together = _replay_facts(raw, tmp_path / "together")
    bounds = together["feat_norm_bounds"]
    assert bounds.keys() == {"oful_full", "pulse_ucb", "oful_observed"}
    assert bounds["oful_full"] != bounds["pulse_ucb"]
    for spec in raw["agents"]:
        name = spec["name"]
        alone = _replay_facts({**raw, "agents": [spec]}, tmp_path / name)
        assert len(alone["rows"][name]) == raw["trials"] * raw["horizon"]
        assert alone["rows"][name] == together["rows"][name]
        for key in ("final_dt_cumsum", "final_gamma", "feat_norm_bounds"):
            assert alone[key] == {k: v for k, v in together[key].items() if k == name}


def _replay_facts(raw, out_dir):
    """A replay run's raw CSV lines per agent and its per-agent metadata."""
    res = run_replay(load_config(raw), out_dir=str(out_dir))
    rows = {}
    with open(res["raw_path"], encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            rows.setdefault(line.split(",")[2], []).append(line)
    with open(res["metadata_path"], encoding="utf-8") as fh:
        run = json.load(fh)["run"]
    facts = {key: run[key] for key in ("final_dt_cumsum", "final_gamma", "feat_norm_bounds")}
    return {"rows": rows, **facts}


# sha256 of s.tobytes() + w.tobytes() of each shipped config's pretraining history
HISTORY_DIGESTS = {
    "calibration_demo": "301537895e03982736bbcea00362480ccf2cd182f407abd1e9939b1a8eea5032",
    "lower_bound_dgp": "94015e49349d5bdfb7453ac363cdd1d7d8b5720ec2cf4cf57ce2898d6b4552b8",
    "synthetic_linear": "7708412fe6a6fbef969d872f7fa6183a6b2e004183ef90a1389f5372f1c890fe",
}


@pytest.mark.parametrize("name", sorted(HISTORY_DIGESTS))
def test_pretrain_history_digest(name):
    config = load_config(str(importlib.resources.files(pulsebandit.configs) / f"{name}.json"))
    p = config.pretrain
    data = generate_history(config.make_env, p["n"], p["t0"], p["seed"])
    digest = hashlib.sha256(data.s.tobytes() + data.w.tobytes()).hexdigest()
    assert digest == HISTORY_DIGESTS[name]

import filecmp
import json

import numpy as np
import pytest

from pulsebandit import (
    ConfigError,
    ExperimentConfig,
    load_config,
    pretrain,
    run_experiment,
    run_replay,
    run_trial,
)


def tiny_raw(**over):
    raw = {
        "schema_version": 1,
        "name": "tiny",
        "base_seed": 123,
        "horizon": 40,
        "trials": 2,
        "gamma_scale": 0.02,
        "environment": {"kind": "synthetic", "nonlinearity": "linear"},
        "schedule": {"lambda": 1.0, "delta": 0.1, "sigma_eta": 0.05,
                     "sigma_eps": 1.0},
        "imputer": {"kind": "linear_ar", "lag": 2},
        "pretrain": {"n": 60, "t0": 20, "seed": 7},
        "agents": [
            {"name": "oracle_best", "kind": "oracle_best"},
            {"name": "oful_full", "kind": "oful_full", "dt_source": "oracle"},
            {"name": "pulse_ucb", "kind": "pulse_ucb", "dt_source": "oracle"},
            {"name": "uniform_random", "kind": "uniform_random"},
        ],
    }
    raw.update(over)
    return raw


def fitted(config):
    art = pretrain(config)
    return art["imputer"], art["plug_in_dt"], art["feat_norm_bound"]


def test_unknown_keys_rejected_with_dotted_path():
    raw = tiny_raw()
    raw["environment"]["typo_key"] = 1
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert "environment.typo_key" in str(err.value)

    raw = tiny_raw()
    raw["agents"][1]["selection"] = "x"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert "agents[1].selection" in str(err.value)

    raw = tiny_raw()
    raw["bogus"] = True
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert "bogus" in str(err.value)


def test_config_field_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(tiny_raw(trials=0))
    with pytest.raises(ConfigError):
        ExperimentConfig(tiny_raw(gamma_scale=0.0))
    raw = tiny_raw()
    raw["schedule"]["delta"] = 2.0
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert "delta" in str(err.value)
    raw = tiny_raw()
    raw["agents"].append({"name": "oful_full", "kind": "oful_full"})
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert "name" in str(err.value)


def test_duplicate_free_hash_and_roundtrip():
    cfg = ExperimentConfig(tiny_raw())
    again = ExperimentConfig(cfg.to_dict())
    assert cfg.config_hash() == again.config_hash()
    assert cfg.to_dict() == again.to_dict()


def test_load_config_applies_overrides(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(tiny_raw()))
    cfg = load_config(str(p), overrides=("trials=5", "schedule.sigma_eps=2.5",
                                         "environment.nonlinearity=2.5"))
    d = cfg.to_dict()
    assert d["trials"] == 5
    assert d["schedule"]["sigma_eps"] == 2.5
    assert d["environment"]["nonlinearity"] == 2.5
    with pytest.raises(ConfigError):
        load_config(str(p), overrides=("no.such.key=1",))


def test_load_config_unwraps_run_metadata(tmp_path):
    meta = {"kind": "run_metadata", "schema_version": 1,
            "config": tiny_raw(), "run": {"anything": 1}}
    p = tmp_path / "metadata.json"
    p.write_text(json.dumps(meta))
    cfg = load_config(str(p))
    assert cfg.to_dict()["name"] == "tiny"


def test_run_trial_deterministic_and_regret_signs():
    cfg = ExperimentConfig(tiny_raw())
    imp, plug, bound = fitted(cfg)
    a = run_trial(cfg, 0, imp, plug, bound)
    b = run_trial(cfg, 0, imp, plug, bound)
    for name in a["names"]:
        assert np.array_equal(a["agents"][name]["cum_regret"],
                              b["agents"][name]["cum_regret"])
    oracle = a["agents"]["oracle_best"]
    assert np.all(oracle["inst_regret"] == 0.0)
    assert a["agents"]["uniform_random"]["cum_regret"][-1] > 0.0
    # running regret equals the step-by-step sum it is derived from
    for name in a["names"]:
        total = 0.0
        for inst, cum in zip(a["agents"][name]["inst_regret"], a["agents"][name]["cum_regret"]):
            total += inst
            assert cum == total
    # different trial index gives a different draw
    c = run_trial(cfg, 1, imp, plug, bound)
    assert not np.array_equal(a["agents"]["uniform_random"]["reward"],
                              c["agents"]["uniform_random"]["reward"])


def test_common_random_numbers_across_agent_lists():
    # the env stream is labeled by trial only, so dropping agents must not
    # perturb the realized path seen by the rest
    base = tiny_raw()
    small = tiny_raw()
    small["agents"] = [{"name": "oracle_best", "kind": "oracle_best"}]
    cfg_a, cfg_b = ExperimentConfig(base), ExperimentConfig(small)
    imp, plug, bound = fitted(cfg_a)
    ra = run_trial(cfg_a, 0, imp, plug, bound)
    rb = run_trial(cfg_b, 0, imp, plug, bound)
    assert np.array_equal(ra["agents"]["oracle_best"]["reward"],
                          rb["agents"]["oracle_best"]["reward"])


def test_moving_average_window():
    cfg = ExperimentConfig(tiny_raw(horizon=150, trials=1))
    imp, plug, bound = fitted(cfg)
    out = run_trial(cfg, 0, imp, plug, bound)
    r = out["agents"]["oracle_best"]["reward"]
    ma = out["agents"]["oracle_best"]["ma_reward"]
    assert ma[10] == pytest.approx(np.mean(r[:11]), abs=1e-12)
    assert ma[149] == pytest.approx(np.mean(r[50:150]), abs=1e-12)


def test_run_experiment_outputs(tmp_path):
    cfg = ExperimentConfig(tiny_raw())
    res = run_experiment(cfg, out_dir=str(tmp_path / "run"))
    for key in ("raw_path", "aggregate_path", "metadata_path", "conditional_path"):
        assert res[key]
    header = open(res["raw_path"]).readline().strip()
    assert header == "trial,t,agent,arm,reward,inst_regret,cum_regret,ma_reward_100"
    agg = np.genfromtxt(res["aggregate_path"], delimiter=",", names=True,
                        dtype=None, encoding="utf-8")
    assert set(agg["agent"]) == {"oracle_best", "oful_full", "pulse_ucb",
                                 "uniform_random"}
    meta = json.loads(open(res["metadata_path"]).read())
    assert meta["kind"] == "run_metadata"
    assert meta["run"]["config_sha256"] == cfg.config_hash()
    assert "oracle_best" in res["summary"]


def test_single_trial_has_zero_se(tmp_path):
    cfg = ExperimentConfig(tiny_raw(trials=1))
    res = run_experiment(cfg, out_dir=str(tmp_path / "one"))
    agg = np.genfromtxt(res["aggregate_path"], delimiter=",", names=True,
                        dtype=None, encoding="utf-8")
    assert np.all(agg["se_cum_regret"] == 0.0)


def test_workers_do_not_change_results(tmp_path):
    res1 = run_experiment(ExperimentConfig(tiny_raw()),
                          out_dir=str(tmp_path / "w1"))
    res2 = run_experiment(ExperimentConfig(tiny_raw(workers=2)),
                          out_dir=str(tmp_path / "w2"))
    assert filecmp.cmp(res1["raw_path"],
                       res2["raw_path"], shallow=False)


def test_metadata_rerun_is_bit_exact(tmp_path):
    res1 = run_experiment(ExperimentConfig(tiny_raw()),
                          out_dir=str(tmp_path / "first"))
    cfg2 = load_config(res1["metadata_path"])
    res2 = run_experiment(cfg2, out_dir=str(tmp_path / "second"))
    assert filecmp.cmp(res1["raw_path"],
                       res2["raw_path"], shallow=False)
    assert filecmp.cmp(res1["aggregate_path"],
                       res2["aggregate_path"], shallow=False)


def test_conditional_regret_toggle(tmp_path):
    cfg = ExperimentConfig(tiny_raw(record_conditional_regret=False))
    res = run_experiment(cfg, out_dir=str(tmp_path / "nocond"))
    assert res["conditional_path"] is None


def replay_raw(tmp_path, **over):
    import pulsebandit.configs as configs
    import importlib.resources as ir
    log_path = str(ir.files(configs) / "replay_demo_log.csv")
    raw = {
        "schema_version": 1,
        "name": "replay_tiny",
        "base_seed": 99,
        "horizon": 50,
        "trials": 2,
        "gamma_scale": 0.05,
        "environment": {"kind": "replay", "path": log_path, "k": 10},
        "schedule": {"lambda": 1.0, "delta": 0.1, "sigma_eta": 0.5,
                     "sigma_eps": 1.0},
        "imputer": {"kind": "linear_ar", "lag": 0},
        "pretrain": {"fraction": 0.2},
        "agents": [
            {"name": "oful_full", "kind": "oful_full"},
            {"name": "pulse_ucb", "kind": "pulse_ucb"},
            {"name": "uniform_random", "kind": "uniform_random"},
        ],
    }
    raw.update(over)
    return raw


def test_replay_runs_and_is_deterministic(tmp_path):
    cfg = ExperimentConfig(replay_raw(tmp_path))
    res1 = run_replay(cfg, out_dir=str(tmp_path / "r1"))
    res2 = run_replay(cfg, out_dir=str(tmp_path / "r2"))
    assert filecmp.cmp(res1["raw_path"],
                       res2["raw_path"], shallow=False)
    header = open(res1["raw_path"]).readline().strip()
    assert header == "trial,t,agent,choice,reward,cum_ctr"
    for stats in res1["summary"].values():
        assert 0.0 <= stats["final_mean_cum_ctr"] <= 1.0
    meta = json.loads(open(res1["metadata_path"]).read())
    assert meta["run"]["protocol"] == "k_candidate_replay"


def test_replay_rejects_ill_posed_agents(tmp_path):
    # caught when the config is built, so validate-config reports them too
    raw = replay_raw(tmp_path)
    raw["agents"].append({"name": "cheat", "kind": "oracle_best"})
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert err.value.field == "agents[3].kind"
    for i, source in ((0, "oracle"), (1, "plug_in")):
        raw = replay_raw(tmp_path)
        raw["agents"][i]["dt_source"] = source
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(raw)
        assert err.value.field == f"agents[{i}].dt_source"


def test_replay_horizon_capped_by_pool(tmp_path):
    # 1200 rows, 20% pretrain -> 960 online rows; k=10 leaves 951 steps max
    cfg = ExperimentConfig(replay_raw(tmp_path, horizon=None, trials=1))
    res = run_replay(cfg, out_dir=str(tmp_path / "cap"))
    meta = json.loads(open(res["metadata_path"]).read())
    assert meta["run"]["horizon"] == 960 - 10 + 1
    assert meta["run"]["n_pretrain_rows"] == 240


def test_synthetic_config_rejects_missing_path_for_replay():
    raw = replay_raw(None)
    del raw["environment"]["path"]
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert "path" in str(err.value)


def test_config_hash_ignores_output_dir_and_workers():
    base = ExperimentConfig(tiny_raw(output={"dir": "a"}))
    for other in (tiny_raw(output={"dir": "elsewhere"}), tiny_raw(workers=3)):
        cfg = ExperimentConfig(other)
        assert cfg.config_hash() == base.config_hash()
    # both stay in the resolved config, so reruns from metadata keep them
    assert ExperimentConfig(tiny_raw(workers=3)).to_dict()["workers"] == 3
    assert base.to_dict()["output"] == {"dir": "a"}
    assert ExperimentConfig(tiny_raw(trials=3)).config_hash() != base.config_hash()


def test_kernel_fallbacks_do_not_depend_on_workers(tmp_path):
    import importlib.resources as ir
    import pulsebandit.configs as configs
    path = str(ir.files(configs) / "lower_bound_dgp.json")
    overrides = ("imputer.bandwidth=0.05", "trials=2", "horizon=200",
                 "schedule.feat_norm_bound=2.0")
    counts = []
    for workers in (1, 2):
        cfg = load_config(path, overrides=overrides + (f"workers={workers}",))
        res = run_experiment(cfg, out_dir=str(tmp_path / f"w{workers}"))
        meta = json.loads(open(res["metadata_path"]).read())
        counts.append(meta["run"]["imputer"]["kernel_fallbacks"])
    assert counts[0] == counts[1] > 0


def _count_decisions(monkeypatch):
    import pulsebandit.harness as harness
    calls = []
    original = harness.select_arm

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "select_arm", counted)
    return calls


def test_every_decision_goes_through_harness_select_arm(tmp_path, monkeypatch):
    # the benchmark marks the first decision by swapping harness.select_arm
    calls = _count_decisions(monkeypatch)
    raw = tiny_raw(horizon=15)
    run_experiment(ExperimentConfig(raw), out_dir=str(tmp_path / "sim"))
    assert len(calls) == raw["trials"] * 15 * len(raw["agents"])

    del calls[:]
    raw = replay_raw(tmp_path, horizon=12)
    run_replay(ExperimentConfig(raw), out_dir=str(tmp_path / "rep"))
    assert len(calls) == raw["trials"] * 12 * len(raw["agents"])


def test_replay_agent_rows_do_not_depend_on_other_agents(tmp_path):
    # each replay agent has its own candidate and choice streams, which is
    # what lets the loop interleave agents step by step
    both = run_replay(ExperimentConfig(replay_raw(tmp_path)), out_dir=str(tmp_path / "all"))
    raw = replay_raw(tmp_path)
    raw["agents"] = [{"name": "pulse_ucb", "kind": "pulse_ucb"}]
    alone = run_replay(ExperimentConfig(raw), out_dir=str(tmp_path / "alone"))

    def rows(path):
        with open(path) as fh:
            return [line for line in fh if line.split(",")[2] == "pulse_ucb"]

    assert rows(both["raw_path"]) == rows(alone["raw_path"])
    assert len(rows(alone["raw_path"])) == 2 * 50

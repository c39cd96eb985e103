import filecmp
import json

import numpy as np
import pytest
import scipy

from pulsebandit import (
    ConfigError,
    ExperimentConfig,
    InputError,
    load_config,
    pretrain,
    run_experiment,
    run_replay,
    run_sweep,
    run_trial,
    run_trials,
    substream,
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

    # a run-metadata document's config is read as any config: the trial
    # process count `workers` that older versions wrote there is unknown
    with pytest.raises(ConfigError) as err:
        load_config({"kind": "run_metadata", "config": tiny_raw(workers=1)})
    assert err.value.field == "workers" and "not recognized" in str(err.value)


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
    a = run_trial(cfg, 0, imp, plug, bound)["agents"]
    b = run_trial(cfg, 0, imp, plug, bound)["agents"]
    for name in a:
        assert a[name]["cum_regret"].shape == (1, 40)
        assert np.array_equal(a[name]["cum_regret"], b[name]["cum_regret"])
    oracle = a["oracle_best"]
    assert np.all(oracle["inst_regret"] == 0.0)
    assert a["uniform_random"]["cum_regret"][0, -1] > 0.0
    # running regret equals the step-by-step sum it is derived from
    for name in a:
        total = 0.0
        for inst, cum in zip(a[name]["inst_regret"][0], a[name]["cum_regret"][0]):
            total += inst
            assert cum == total
    # different trial index gives a different draw
    c = run_trial(cfg, 1, imp, plug, bound)["agents"]
    assert not np.array_equal(a["uniform_random"]["reward"], c["uniform_random"]["reward"])


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
    # exactly the mean of each row's own window in every trial lane, also
    # below one full window
    for horizon in (150, 40):
        cfg = ExperimentConfig(tiny_raw(horizon=horizon, trials=3))
        imp, plug, bound = fitted(cfg)
        out = run_trials(cfg, range(3), imp, plug, bound)
        for agent in out["agents"].values():
            assert agent["ma_reward"].shape == (3, horizon)
            for r, ma in zip(agent["reward"], agent["ma_reward"]):
                for i in range(horizon):
                    assert ma[i] == r[max(0, i - 99) : i + 1].mean()


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


def test_metadata_rerun_is_bit_exact(tmp_path):
    res1 = run_experiment(ExperimentConfig(tiny_raw()),
                          out_dir=str(tmp_path / "first"))
    cfg2 = load_config(res1["metadata_path"])
    res2 = run_experiment(cfg2, out_dir=str(tmp_path / "second"))
    assert filecmp.cmp(res1["raw_path"],
                       res2["raw_path"], shallow=False)
    assert filecmp.cmp(res1["aggregate_path"],
                       res2["aggregate_path"], shallow=False)


def test_scipy_version_without_its_version_file_or_scipy(monkeypatch):
    from pulsebandit import harness
    monkeypatch.setattr(harness.os.path, "isfile", lambda path: False)
    assert harness._scipy_version() == scipy.__version__  # from the import
    monkeypatch.setattr(harness.importlib.util, "find_spec", lambda name: None)
    assert harness._scipy_version() is None


def test_run_experiment_runs_trials_in_index_order(tmp_path, monkeypatch):
    # every trial is rolled out on its own env stream, in index order,
    # before the first decision
    import pulsebandit.harness as harness
    from pulsebandit.environments import SyntheticEnv
    seen, labels_of = [], {}
    make_stream, roll, decide = harness.substream, SyntheticEnv.rollout_lanes, harness.select_arm

    def recorded_stream(*labels):
        rng = make_stream(*labels)
        labels_of[id(rng)] = labels
        return rng

    def recorded_rollout(self, rngs, n_steps):
        for rng in rngs:
            labels = labels_of.get(id(rng), ())
            if labels[1::2] == ("trial", "env"):
                seen.append(labels[2])
        return roll(self, rngs, n_steps)

    def recorded_decide(agent, *args, **kwargs):
        seen.append("decide")
        return decide(agent, *args, **kwargs)

    monkeypatch.setattr(harness, "substream", recorded_stream)
    monkeypatch.setattr(SyntheticEnv, "rollout_lanes", recorded_rollout)
    monkeypatch.setattr(harness, "select_arm", recorded_decide)
    run_experiment(ExperimentConfig(tiny_raw(horizon=10, trials=4)), out_dir=str(tmp_path))
    # three seats decide: oracle_best, the lane group {oful_full, pulse_ucb}
    # and uniform_random
    assert seen == [0, 1, 2, 3] + ["decide"] * 10 * 3


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
        assert set(stats) == {"mean_final_cum_ctr", "se_final_cum_ctr"}
        assert 0.0 <= stats["mean_final_cum_ctr"] <= 1.0 and stats["se_final_cum_ctr"] >= 0.0
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


def test_null_pulse_ucb_replay_names_the_log_without_full_columns(tmp_path):
    # a null imputer needs no fit, but pulse_ucb sizes W from the y_* columns
    with open(replay_raw(tmp_path)["environment"]["path"], encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    observed = [i for i, col in enumerate(rows[0]) if not col.startswith("y_")]
    log = tmp_path / "observed_only.csv"
    log.write_text("".join(",".join(row[i] for i in observed) + "\n" for row in rows))
    raw = replay_raw(
        tmp_path,
        environment={"kind": "replay", "path": str(log), "k": 10},
        imputer={"kind": "null"},
        agents=[{"name": "pulse_ucb", "kind": "pulse_ucb"}],
    )
    with pytest.raises(ConfigError, match="no full-feature columns") as err:
        run_replay(ExperimentConfig(raw), out_dir=str(tmp_path / "never"))
    assert err.value.field == "environment.path"


def test_replay_horizon_capped_by_pool(tmp_path):
    # 1200 rows, 20% pretrain -> 960 online rows; k=10 leaves 951 steps max
    cfg = ExperimentConfig(replay_raw(tmp_path, horizon=None, trials=1))
    res = run_replay(cfg, out_dir=str(tmp_path / "cap"))
    meta = json.loads(open(res["metadata_path"]).read())
    assert meta["run"]["horizon"] == 960 - 10 + 1
    assert meta["run"]["n_pretrain_rows"] == 240


def test_run_replay_refuses_a_config_of_another_kind(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(ConfigError) as err:
        run_replay(ExperimentConfig(tiny_raw()), out_dir=str(out))
    assert err.value.field == "environment.kind"
    assert not out.exists()


def test_the_replay_sweep_reports_each_childs_final_standard_error(tmp_path):
    cfg = ExperimentConfig(replay_raw(tmp_path, horizon=30, trials=3))
    result = run_sweep(cfg, "environment.k", [5, 10], str(tmp_path / "sweep"))
    with open(result["table_path"]) as fh:
        table = [line.strip().split(",") for line in fh][1:]
    assert len(table) == 2 * len(cfg.agents)
    for _, value, agent, _, se in table:
        with open(tmp_path / "sweep" / f"k={value}" / "aggregate_replay.csv") as fh:
            final = [line.strip().split(",") for line in fh if line.startswith(agent + ",")][-1]
        # agent, t, mean_cum_ctr, se_cum_ctr: the sweep's se is the child's, as printed
        assert se == final[3]
    assert any(float(row[4]) > 0.0 for row in table)


def test_synthetic_config_rejects_missing_path_for_replay():
    raw = replay_raw(None)
    del raw["environment"]["path"]
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert "path" in str(err.value)


def test_config_hash_ignores_output_dir_and_workers():
    base = ExperimentConfig(tiny_raw(output={"dir": "a"}))
    cfg = ExperimentConfig(tiny_raw(output={"dir": "elsewhere"}))
    assert cfg.config_hash() == base.config_hash()
    # it stays in the resolved config, so reruns from metadata keep it
    assert base.to_dict()["output"] == {"dir": "a"}
    assert ExperimentConfig(tiny_raw(trials=3)).config_hash() != base.config_hash()
    # trials run in one process, so a process count is an unknown key
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(tiny_raw(workers=3))
    assert err.value.field == "workers"


def test_kernel_fallbacks_sum_per_trial_counts(tmp_path):
    import importlib.resources as ir
    import pulsebandit.configs as configs
    path = str(ir.files(configs) / "lower_bound_dgp.json")
    cfg = load_config(path, overrides=("imputer.bandwidth=0.05", "trials=2", "horizon=200",
                                       "schedule.feat_norm_bound=2.0"))
    res = run_experiment(cfg, out_dir=str(tmp_path / "run"))
    meta = json.loads(open(res["metadata_path"]).read())
    imputer, plug_in_dt, bound = fitted(cfg)
    trial_counts = [run_trial(cfg, tr, imputer, plug_in_dt, bound)["kernel_fallbacks"][0]
                    for tr in range(2)]
    # each trial's count is its lane's column of the block query's mask
    rngs = [substream(cfg.base_seed, "trial", tr, "env") for tr in range(2)]
    rollout = cfg.make_env().rollout_lanes(rngs, cfg.horizon)
    _, fell_back = imputer.conditional_means(rollout.observed)
    assert fell_back.sum(axis=0).tolist() == trial_counts
    assert meta["run"]["imputer"]["kernel_fallbacks"] == sum(trial_counts)
    assert meta["run"]["imputer"]["kernel_fallbacks"] == 206


def _count_decisions(monkeypatch):
    """Every harness.select_arm call, as the number of trials it decides."""
    import pulsebandit.harness as harness
    calls = []
    original = harness.select_arm

    def counted(agent, *args, **kwargs):
        arms = original(agent, *args, **kwargs)
        calls.append(len(arms))
        return arms

    monkeypatch.setattr(harness, "select_arm", counted)
    return calls


def test_every_decision_goes_through_harness_select_arm(tmp_path, monkeypatch):
    # the benchmark marks the first decision by swapping harness.select_arm;
    # simulate and replay alike decide for all lanes of a lane group in one
    # call, step-major: per step, one call per group in seat order, whose
    # lanes add up to trials x agents.  The UCB agents of one selection
    # form share a group, in replay oful_observed too, whose narrower view
    # is zero-padded.
    calls = _count_decisions(monkeypatch)
    raw = tiny_raw(horizon=15)
    run_experiment(ExperimentConfig(raw), out_dir=str(tmp_path / "sim"))
    trials = raw["trials"]
    groups = [trials, 2 * trials, trials]  # oracle_best, the group, uniform_random
    assert calls == groups * 15
    assert len(calls) == 15 * len(groups)
    assert sum(calls) == 15 * trials * len(raw["agents"])

    del calls[:]
    raw = replay_raw(tmp_path, horizon=12, trials=3)
    raw["agents"].insert(2, {"name": "oful_observed", "kind": "oful_observed"})
    run_replay(ExperimentConfig(raw), out_dir=str(tmp_path / "rep"))
    trials = raw["trials"]
    groups = [3 * trials, trials]  # the group, uniform_random
    assert calls == groups * 12
    assert len(calls) == 12 * len(groups)
    assert sum(calls) == 12 * trials * len(raw["agents"])


@pytest.mark.parametrize("planted", ["features", "rewards"])
def test_simulate_checks_its_blocks_before_the_first_decision(tmp_path, monkeypatch, planted):
    # the stacked kernel does not scan the rows it is given, so a NaN in
    # one trial's feature rows or potential rewards must fail before any
    # agent decides
    import pulsebandit.harness as harness
    from pulsebandit.environments import SyntheticEnv
    calls = _count_decisions(monkeypatch)
    build_features, roll = harness.phi_batch, SyntheticEnv.rollout_lanes

    def plant_features(fmap, contexts):
        block = build_features(fmap, contexts)
        block.reshape(15, 2, *block.shape[1:])[7, 1, 1, 2] = np.nan  # step 7 of lane 1
        return block

    def plant_rewards(self, rngs, n_steps):
        rollout = roll(self, rngs, n_steps)
        rollout.potential_rewards[7, 1, 1] = np.nan  # step 7 of lane 1, arm 1
        return rollout

    if planted == "features":
        monkeypatch.setattr(harness, "phi_batch", plant_features)
    else:
        monkeypatch.setattr(SyntheticEnv, "rollout_lanes", plant_rewards)
    with pytest.raises(InputError, match="non-finite"):
        run_experiment(ExperimentConfig(tiny_raw(horizon=15)), out_dir=str(tmp_path))
    assert calls == []


@pytest.mark.parametrize("planted", ["history", "dry_run"])
def test_a_non_finite_pretraining_context_fails_before_any_decision(
    tmp_path, monkeypatch, planted
):
    # pretraining reads the realized contexts without building features or
    # arm means from them, so it checks them itself: a NaN in the history
    # or in the dry run is an EnvError before any agent decides
    from pulsebandit import EnvError
    from pulsebandit.environments import SyntheticEnv
    from pulsebandit.harness import FEAT_NORM_DRY_RUN_STEPS
    calls = _count_decisions(monkeypatch)
    lane_contexts = SyntheticEnv._lane_contexts
    steps = {"history": 20, "dry_run": FEAT_NORM_DRY_RUN_STEPS}[planted]

    def plant(self, rngs, n_lanes, n_steps, states=None):
        contexts, eta, ends = lane_contexts(self, rngs, n_lanes, n_steps, states)
        if n_steps == steps:  # pretrain.t0 or the dry run, not the trials' 15 steps
            contexts[0, 13, n_lanes - 1, 1] = np.nan  # W at step 13 of the last lane
        return contexts, eta, ends

    monkeypatch.setattr(SyntheticEnv, "_lane_contexts", plant)
    with pytest.raises(EnvError, match="non-finite contexts"):
        run_experiment(ExperimentConfig(tiny_raw(horizon=15)), out_dir=str(tmp_path))
    assert calls == []


@pytest.mark.parametrize(
    "environment",
    [
        {"kind": "synthetic", "nonlinearity": "linear"},
        {"kind": "synthetic", "nonlinearity": 1.0},
        {"kind": "lower_bound", "d_lin": 3, "d_non": 2},
    ],
    ids=["linear", "rho", "lower_bound"],
)
def test_the_dry_run_reads_its_rollouts_realized_contexts_bit_for_bit(environment):
    # B and its diagnostics come from the realized contexts alone; they are
    # those of the full one-lane rollout's full_context, bit for bit
    from pulsebandit import calibrate_feat_norm_bound
    from pulsebandit.environments import realized_contexts
    from pulsebandit.harness import FEAT_NORM_DRY_RUN_STEPS, FEAT_NORM_QUANTILE
    config = ExperimentConfig(tiny_raw(environment=environment, imputer={"kind": "oracle"}))
    pre = pretrain(config)
    env = config.make_env()
    seed = config.pretrain["seed"]
    rollout = env.rollout_lanes([substream(seed, "feat-norm")], FEAT_NORM_DRY_RUN_STEPS)
    full = rollout.full_context[:, 0]
    contexts = realized_contexts(env, [substream(seed, "feat-norm")], 1, FEAT_NORM_DRY_RUN_STEPS)
    assert contexts.shape == rollout.full_context.shape
    assert contexts.tobytes() == rollout.full_context.tobytes()
    bound, diagnostics = calibrate_feat_norm_bound(env.feature_map, full, FEAT_NORM_QUANTILE)
    assert np.float64(pre["feat_norm_bound"]).tobytes() == np.float64(bound).tobytes()
    assert pre["feat_norm_diagnostics"] == {**diagnostics, "source": "dry_run"}
    assert diagnostics["n_steps"] == FEAT_NORM_DRY_RUN_STEPS


def test_pretraining_calibration_demo_peaks_below_3_mib():
    # the band bootstraps in cache-sized blocks and the dry run builds no
    # rollout, so pretraining the shipped plug-in config (20,000 history
    # pairs, 200 bootstrap draws, a 10,000-step dry run) holds little at once
    import importlib.resources as ir
    import tracemalloc

    import pulsebandit.configs as configs
    config = load_config(str(ir.files(configs) / "calibration_demo.json"))
    pretrain(config)  # a first call may import or cache what later ones reuse
    tracemalloc.start()
    try:
        pretrain(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, f"pretraining peaked at {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("planted", ["charge", "plug_in_dt"])
def test_simulate_checks_divergence_charges_before_the_first_decision(monkeypatch, planted):
    # a lockstep observe does not check its dt_value, so a negative oracle
    # charge in one trial, or a missing, non-finite or negative plug-in
    # value, fails before any agent decides, naming the agent
    import pulsebandit.harness as harness
    calls = _count_decisions(monkeypatch)
    original = harness._oracle_charges

    def plant(rollout, means, sd):
        charges = original(rollout, means, sd)
        if sd is not None:  # pulse_ucb's, not oful_full's zeros
            charges[7, 1] = -1e-3  # step 7 of lane 1
        return charges

    if planted == "charge":
        monkeypatch.setattr(harness, "_oracle_charges", plant)
    raw = tiny_raw(horizon=15)
    raw["agents"].append({"name": "pulse_plug_in", "kind": "pulse_ucb", "dt_source": "plug_in"})
    config = ExperimentConfig(raw)
    imputer, plug_in_dt, bound = fitted(config)
    if planted == "charge":
        cases = [(plug_in_dt, "'pulse_ucb' divergence charges contain negative")]
    else:
        cases = [(value, f"'pulse_plug_in' divergence charges contain {what}")
                 for value, what in ((None, "non-finite"), (float("nan"), "non-finite"),
                                     (-1.0, "negative"))]
    for value, match in cases:
        with pytest.raises(InputError, match=match):
            harness.run_trials(config, range(2), imputer, value, bound)
    assert calls == []


def _recorded_charges(monkeypatch):
    """Each seat's charge block, by agent name, as the harness builds it."""
    import pulsebandit.harness as harness
    blocks = {}
    original = harness._charge_block

    def recorded(spec, *args, **kwargs):
        blocks[spec["name"]] = block = original(spec, *args, **kwargs)
        return block

    monkeypatch.setattr(harness, "_charge_block", recorded)
    return blocks


@pytest.mark.parametrize("command, source", [
    ("simulate", "zero"), ("simulate", "constant"), ("simulate", "plug_in"),
    ("simulate", "oracle"), ("replay", "zero"), ("replay", "constant"),
])
def test_final_dt_cumsum_sums_the_seats_charge_block(tmp_path, monkeypatch, command, source):
    # each step adds its row of the seat's (T, trials) block of D_tau, so
    # the recorded sum of each trial is the left-to-right float sum of its
    # column; the block holds 0, constant_dt, plug_in_dt or the oracle charges
    blocks = _recorded_charges(monkeypatch)
    agents = [{"name": "pulse", "kind": "pulse_ucb", "dt_source": source, "constant_dt": 0.003},
              {"name": "uniform_random", "kind": "uniform_random"}]
    if command == "simulate":
        res = run_experiment(ExperimentConfig(tiny_raw(horizon=15, trials=3, agents=agents)),
                             out_dir=str(tmp_path))
    else:
        res = run_replay(ExperimentConfig(replay_raw(tmp_path, horizon=15, trials=3,
                                                     agents=agents)), out_dir=str(tmp_path))
    run = json.load(open(res["metadata_path"]))["run"]
    block = blocks.pop("pulse")
    assert blocks == {} and block.shape == (15, 3)
    if source == "oracle":
        assert (block > 0).all() and len(set(block.ravel().tolist())) == block.size
    else:
        constant = {"zero": 0.0, "constant": 0.003, "plug_in": run.get("plug_in_dt")}[source]
        assert constant is not None and (block == constant).all()
    sums = []
    for column in block.T.tolist():
        total = 0.0
        for value in column:
            total += value
        sums.append(total)
    assert run["final_dt_cumsum"] == {"pulse": sums, "uniform_random": [None] * 3}


@pytest.mark.parametrize("planted", ["features", "rewards"])
def test_replay_checks_its_blocks_before_the_first_decision(tmp_path, monkeypatch, planted):
    # a NaN in the full features or the reward of one online row, far past
    # the horizon, fails before any agent decides
    calls = _count_decisions(monkeypatch)
    raw = replay_raw(tmp_path, horizon=12)
    lines = open(raw["environment"]["path"]).read().splitlines()
    cells = lines[1000].split(",")
    cells[-1 if planted == "features" else 2] = "nan"
    lines[1000] = ",".join(cells)
    log_path = tmp_path / "log.csv"
    log_path.write_text("\n".join(lines) + "\n")
    raw["environment"]["path"] = str(log_path)
    with pytest.raises(InputError):
        run_replay(ExperimentConfig(raw), out_dir=str(tmp_path / "out"))
    assert calls == []


def test_replay_trial_rows_do_not_depend_on_the_trial_count(tmp_path):
    # lockstep trials each draw from their own candidate and choice streams
    def rows_by_trial(trials):
        res = run_replay(ExperimentConfig(replay_raw(tmp_path, trials=trials)),
                         out_dir=str(tmp_path / f"t{trials}"))
        by_trial = {}
        with open(res["raw_path"]) as fh:
            next(fh)
            for line in fh:
                by_trial.setdefault(line.split(",")[0], []).append(line)
        return by_trial

    alone, three = rows_by_trial(1), rows_by_trial(3)
    assert list(alone) == ["0"] and list(three) == ["0", "1", "2"]
    assert three["0"] == alone["0"]
    strip = [[line.split(",", 1)[1] for line in three[t]] for t in ("0", "1", "2")]
    assert strip[0] != strip[1] and strip[1] != strip[2]


def test_replay_agent_rows_do_not_depend_on_other_agents(tmp_path):
    # each replay agent has its own candidate and choice streams, which is
    # what lets the loop run the agents one after another
    both = run_replay(ExperimentConfig(replay_raw(tmp_path)), out_dir=str(tmp_path / "all"))
    raw = replay_raw(tmp_path)
    raw["agents"] = [{"name": "pulse_ucb", "kind": "pulse_ucb"}]
    alone = run_replay(ExperimentConfig(raw), out_dir=str(tmp_path / "alone"))

    def rows(path):
        with open(path) as fh:
            return [line for line in fh if line.split(",")[2] == "pulse_ucb"]

    assert rows(both["raw_path"]) == rows(alone["raw_path"])
    assert len(rows(alone["raw_path"])) == 2 * 50


def test_replay_uses_config_feat_norm_bound(tmp_path):
    unset = run_replay(ExperimentConfig(replay_raw(tmp_path)),
                       out_dir=str(tmp_path / "unset"))
    raw = replay_raw(tmp_path)
    raw["schedule"]["feat_norm_bound"] = 1.0
    pinned = run_replay(ExperimentConfig(raw), out_dir=str(tmp_path / "pinned"))
    meta_unset = json.loads(open(unset["metadata_path"]).read())["run"]
    meta_pinned = json.loads(open(pinned["metadata_path"]).read())["run"]
    assert meta_unset["feat_norm_diagnostics"] == {"source": "per_agent_view"}
    assert all(b > 1.0 for b in meta_unset["feat_norm_bounds"].values())
    assert meta_pinned["feat_norm_diagnostics"] == {"source": "config"}
    assert meta_pinned["feat_norm_bounds"] == {"oful_full": 1.0, "pulse_ucb": 1.0}
    assert not filecmp.cmp(unset["raw_path"], pinned["raw_path"], shallow=False)


def test_final_dt_cumsum_reports_every_trial(tmp_path):
    cfg = ExperimentConfig(tiny_raw(trials=2))
    res = run_experiment(cfg, out_dir=str(tmp_path / "dt"))
    sums = json.loads(open(res["metadata_path"]).read())["run"]["final_dt_cumsum"]
    imputer, plug_in_dt, bound = fitted(cfg)
    for trial in range(2):
        out = run_trial(cfg, trial, imputer, plug_in_dt, bound)
        for name, (value,) in out["final_dt_cumsum"].items():
            assert sums[name][trial] == value
    assert sums["oracle_best"] == [None, None]
    assert sums["pulse_ucb"][0] != sums["pulse_ucb"][1]


def test_final_gamma_reports_every_trial(tmp_path):
    from pulsebandit import GammaSchedule, gamma_at

    cfg = ExperimentConfig(tiny_raw(trials=3))
    res = run_experiment(cfg, out_dir=str(tmp_path / "sim"))
    meta = json.loads(open(res["metadata_path"]).read())
    gammas = meta["run"]["final_gamma"]
    imputer, plug_in_dt, bound = fitted(cfg)
    for trial in range(3):
        out = run_trial(cfg, trial, imputer, plug_in_dt, bound)
        assert {name: values[trial:trial + 1] for name, values in gammas.items()} == (
            out["final_gamma"]
        )
        # the radius after the last observation: gamma_T with the trial's divergence sum
        schedule = GammaSchedule(lam=1.0, sigma_eta=0.05, delta=0.1, feat_norm_bound=bound,
                                 dim=4, sigma_eps=1.0, scale=0.02,
                                 dt_cumsum=out["final_dt_cumsum"]["pulse_ucb"][0])
        assert out["final_gamma"]["pulse_ucb"][0] == gamma_at(schedule, 40)
    assert gammas["oracle_best"] == gammas["uniform_random"] == [None] * 3
    assert len(set(gammas["pulse_ucb"])) == 3  # oracle charges differ by trial
    assert "final_gamma" not in meta["config"]

    # replay records the same per-trial facts, and each agent's final
    # cumulative CTR, which is its last raw row in every trial
    raw = replay_raw(tmp_path)
    raw["agents"].append({"name": "oful_observed", "kind": "oful_observed",
                          "dt_source": "constant", "constant_dt": 0.001})
    replayed = run_replay(ExperimentConfig(raw), out_dir=str(tmp_path / "rep"))
    meta = json.loads(open(replayed["metadata_path"]).read())
    gammas = meta["run"]["final_gamma"]
    assert set(gammas) == {"oful_full", "pulse_ucb", "uniform_random", "oful_observed"}
    assert gammas["uniform_random"] == [None, None]
    assert all(isinstance(g, float) and g > 0 for g in gammas["pulse_ucb"])
    sums = meta["run"]["final_dt_cumsum"]
    constant_sum = 0.0
    for _ in range(50):  # the horizon
        constant_sum += 0.001
    assert sums == {"oful_full": [0.0, 0.0], "pulse_ucb": [0.0, 0.0],
                    "uniform_random": [None, None], "oful_observed": [constant_sum] * 2}
    last = {}
    with open(replayed["raw_path"], encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        for line in fh:
            row = dict(zip(header, line.rstrip("\n").split(",")))
            if row["t"] == "50":
                last[row["agent"], int(row["trial"])] = float(row["cum_ctr"])
    assert len(last) == 2 * 4
    ctr = {name: [last[name, trial] for trial in range(2)] for name in gammas}
    assert meta["run"]["final_cum_ctr"] == replayed["final_cum_ctr"] == ctr
    assert not {"final_dt_cumsum", "final_cum_ctr"} & set(meta["config"])


def test_final_cum_regret_is_the_last_raw_row(tmp_path):
    cfg = ExperimentConfig(tiny_raw(trials=3))
    res = run_experiment(cfg, out_dir=str(tmp_path / "sim"))
    last = {}
    with open(res["raw_path"], encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        for line in fh:
            row = dict(zip(header, line.rstrip("\n").split(",")))
            if row["t"] == "40":
                last[row["agent"], int(row["trial"])] = float(row["cum_regret"])
    assert len(last) == 3 * 4
    expected = {name: [last[name, trial] for trial in range(3)] for name, _ in last}
    assert res["final_cum_regret"] == expected
    meta = json.loads(open(res["metadata_path"]).read())
    assert meta["run"]["final_cum_regret"] == expected
    assert "final_cum_regret" not in meta["config"]
    assert expected["oracle_best"] == [0.0] * 3
    assert len(set(expected["pulse_ucb"])) == 3


@pytest.mark.parametrize("arma", [[1.5, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
def test_nonstationary_arma_is_a_config_error(arma):
    raw = tiny_raw()
    raw["environment"]["arma"] = arma
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert err.value.field == "environment.arma"


def test_metadata_records_stage_timings_and_versions(tmp_path):
    cfg = ExperimentConfig(tiny_raw(horizon=10, trials=1))
    simulated = run_experiment(cfg, out_dir=str(tmp_path / "sim"))
    replayed = run_replay(
        ExperimentConfig(replay_raw(tmp_path, horizon=10, trials=1)),
        out_dir=str(tmp_path / "rep"),
    )
    # every key each command reports, so that a dropped or renamed one fails
    shared_run = {
        "config_sha256", "package_version", "feat_norm_diagnostics", "final_dt_cumsum",
        "final_gamma", "summary", "overrides", "timestamp_utc", "timings_s",
        "stage_peak_rss_mib", "peak_rss_mib", "versions",
    }
    run_keys = {
        "simulate": shared_run | {
            "regret_flavor", "gamma_scale", "feat_norm_bound", "plug_in_dt", "plug_in_band",
            "realized_max_abs_reward", "imputer", "final_cum_regret",
        },
        "replay": shared_run | {
            "protocol", "k", "n_pretrain_rows", "n_online_rows", "horizon", "feat_norm_bounds",
            "final_cum_ctr",
        },
    }
    shared_result = {"raw_path", "aggregate_path", "metadata_path", "summary", "finals"}
    result_keys = {
        "simulate": shared_result | {"conditional_path", "max_abs_reward", "final_cum_regret"},
        "replay": shared_result | {"final_cum_ctr"},
    }
    for command, result in (("simulate", simulated), ("replay", replayed)):
        assert set(result) == result_keys[command]
        with open(result["metadata_path"]) as fh:
            meta = json.load(fh)
        assert set(meta["run"]) == run_keys[command]
        headline = result["final_cum_regret" if command == "simulate" else "final_cum_ctr"]
        assert set(result["finals"]) == set(headline) == set(meta["run"]["summary"])
        timings = meta["run"]["timings_s"]
        assert set(timings) == {"pretrain", "trials", "write"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert set(meta["run"]["versions"]) == {"python", "numpy", "scipy"}
        # read from scipy's version.py, without importing scipy
        assert meta["run"]["versions"]["scipy"] == scipy.__version__
        assert "timings_s" not in meta["config"] and "versions" not in meta["config"]
        # the process has run numpy at least, so its peak is megabytes
        assert isinstance(meta["run"]["peak_rss_mib"], float)
        assert 1.0 < meta["run"]["peak_rss_mib"] < 1e5
        assert "peak_rss_mib" not in meta["config"]
        # the peak at each stage's end, which can only grow from stage to stage
        stage_rss = meta["run"]["stage_peak_rss_mib"]
        assert list(stage_rss) == ["pretrain", "trials", "write"]
        assert all(isinstance(v, float) and v > 1.0 for v in stage_rss.values())
        assert stage_rss["pretrain"] <= stage_rss["trials"] <= stage_rss["write"]
        assert stage_rss["write"] <= meta["run"]["peak_rss_mib"]
        assert "stage_peak_rss_mib" not in meta["config"]
        # the hash is the config's own: rebuilding it from the metadata agrees
        assert meta["run"]["config_sha256"] == load_config(meta).config_hash()
    rerun = run_experiment(cfg, out_dir=str(tmp_path / "sim2"))
    hashes = [
        json.load(open(r["metadata_path"]))["run"]["config_sha256"] for r in (simulated, rerun)
    ]
    assert hashes[0] == hashes[1]
    # no agent charges plug_in, so no band was estimated
    assert json.load(open(simulated["metadata_path"]))["run"]["plug_in_band"] is None


def test_metadata_records_the_plug_in_band(tmp_path):
    agents = [{"name": "pulse_ucb", "kind": "pulse_ucb", "dt_source": "plug_in"}]
    cfg = ExperimentConfig(tiny_raw(horizon=10, trials=1, agents=agents))
    with open(run_experiment(cfg, out_dir=str(tmp_path))["metadata_path"]) as fh:
        run = json.load(fh)["run"]
    band = pretrain(cfg)["plug_in_band"]
    assert run["plug_in_band"] == band
    assert band["bootstrap_draws"] == 200
    assert band["n_reference"] + band["n_target"] == 60 * 20
    assert band["grid_size"] >= 9
    assert 0 <= band["grid_points_without_support"] < band["grid_size"]
    assert band["bandwidth"] > 0.0 and band["max_cross_term"] >= 0.0
    assert run["plug_in_dt"] > 0.0


def test_oracle_imputer_trial_matches_a_per_step_reference():
    # no golden config uses the oracle imputer; pin its trial against a
    # loop of the public one-trial agent over one rollout
    from pulsebandit import (
        AgentKind, GammaSchedule, GaussianConditional, arm_feature_matrix,
        gaussian_dt, make_agent, observe, select_arm, substream,
    )
    raw = tiny_raw(horizon=60, trials=1)
    raw["imputer"] = {"kind": "oracle"}
    raw["schedule"]["feat_norm_bound"] = 2.0
    raw["agents"] = [{"name": "pulse", "kind": "pulse_ucb", "dt_source": "oracle"}]
    cfg = ExperimentConfig(raw)
    out = run_trial(cfg, 0, None, None, 2.0)["agents"]["pulse"]
    assert out["arm"].shape == (1, 60)

    env = cfg.make_env()
    rng_env = substream(123, "trial", 0, "env")
    env.reset(rng_env)
    schedule = GammaSchedule(lam=1.0, sigma_eta=0.05, delta=0.1, feat_norm_bound=2.0, dim=4,
                             sigma_eps=1.0, scale=0.02)
    agent = make_agent("pulse", AgentKind.PULSE_UCB, 2, dim=4, schedule=schedule)
    rollout = env.rollout(rng_env, 60)
    arms, rewards = [], []
    for i in range(60):
        # the oracle's features and model law are the step's true law of W
        feats = arm_feature_matrix(
            env.feature_map, np.concatenate([rollout.observed[i], rollout.cond_mean_w[i]])
        )
        arm = select_arm(agent, feats)
        reward = float(rollout.potential_rewards[i, arm])
        truth = GaussianConditional(float(rollout.cond_mean_w[i, 0]), rollout.cond_sd_w)
        dt = gaussian_dt(truth, truth)
        observe(agent, feats[arm], reward, dt_value=dt)
        arms.append(arm)
        rewards.append(reward)
    assert out["arm"][0].tolist() == arms
    assert out["reward"][0].tolist() == rewards
    assert len(set(arms)) == 2


def test_run_trial_takes_one_rollout_and_no_steps(monkeypatch):
    from pulsebandit.environments import SyntheticEnv
    cfg = ExperimentConfig(tiny_raw(horizon=30, trials=3))
    imp, plug, bound = fitted(cfg)
    rollouts = []
    original = SyntheticEnv.rollout_lanes

    def counted(self, rngs, n_steps):
        rollouts.append((len(rngs), n_steps))
        return original(self, rngs, n_steps)

    def no_step(self, rng):
        raise AssertionError("run_trial stepped the environment")

    def no_one_env_rollout(self, rng, n_steps):
        raise AssertionError("run_trial rolled out one environment at a time")

    monkeypatch.setattr(SyntheticEnv, "rollout_lanes", counted)
    monkeypatch.setattr(SyntheticEnv, "step", no_step)
    monkeypatch.setattr(SyntheticEnv, "rollout", no_one_env_rollout)
    for trial in range(3):
        run_trial(cfg, trial, imp, plug, bound)
    assert rollouts == [(1, 30)] * 3
    # the lockstep trials take one lane rollout between them
    run_trials(cfg, range(3), imp, plug, bound)
    assert rollouts == [(1, 30)] * 3 + [(3, 30)]


def test_trials_build_only_the_configured_views(monkeypatch):
    # one block over all trials per configured view kind: pulse_ucb's at
    # the imputed means and oful_full's at the realized W, and none for the
    # observed view
    import pulsebandit.harness as harness
    raw = tiny_raw(horizon=20, trials=3)
    raw["agents"] = [
        {"name": "pulse_ucb", "kind": "pulse_ucb", "dt_source": "oracle"},
        {"name": "oful_full", "kind": "oful_full", "dt_source": "oracle"},
    ]
    cfg = ExperimentConfig(raw)
    imp, plug, bound = fitted(cfg)
    calls = []
    original = harness.phi_batch

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(harness, "phi_batch", counted)
    harness.run_trials(cfg, range(3), imp, plug, bound)
    assert len(calls) == 2


def test_null_imputer_with_oracle_pulse_is_a_config_error():
    raw = tiny_raw()
    raw["imputer"] = {"kind": "null"}
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert err.value.field == "agents[2].dt_source"
    raw["agents"][2]["dt_source"] = "zero"
    ExperimentConfig(raw)


@pytest.mark.parametrize(
    "imputer",
    [{"kind": "oracle"}, {"kind": "null"}, {"kind": "linear_ar", "path": "imputer.json"}],
)
def test_plug_in_without_a_fitted_imputer_is_a_config_error(imputer):
    # the plug-in band is estimated on the pretraining history, which an
    # oracle, null or loaded imputer never generates
    raw = tiny_raw()
    raw["imputer"] = imputer
    raw["agents"][2]["dt_source"] = "zero"
    raw["agents"][1]["dt_source"] = "plug_in"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert err.value.field == "agents[1].dt_source"
    raw["agents"][1]["dt_source"] = "zero"
    ExperimentConfig(raw)


def test_null_imputer_keeps_its_config(tmp_path):
    from pulsebandit.harness import _pretrain_replay
    null = {"kind": "null"}
    raw = tiny_raw(horizon=10, trials=1)
    raw["imputer"] = dict(null)
    raw["agents"][2]["dt_source"] = "zero"
    cfg = ExperimentConfig(raw)
    assert cfg.imputer["kind"] == "null" and raw["imputer"] == null
    imputer = pretrain(cfg)["imputer"]
    assert (imputer.kind, imputer.d_s, imputer.d_w) == ("null", 1, 1)
    res = run_experiment(cfg, out_dir=str(tmp_path / "sim"))
    saved = json.loads(open(tmp_path / "sim" / "imputer.json").read())
    assert (saved["kind"], saved["params"]) == ("null", {})
    assert res["summary"]

    raw = replay_raw(tmp_path)
    raw["imputer"] = dict(null)
    imputer = _pretrain_replay(ExperimentConfig(raw))["imputer"]
    assert imputer.kind == "null"


@pytest.mark.parametrize(
    "layout, kind",
    [((2, 1), "null"), ((1, 2), "null"), ((1, 1), "linear_ar"), ((1, 1), "oracle")],
    ids=["d_s_2", "d_w_2", "null_as_linear_ar", "null_as_oracle"],
)
def test_loaded_imputer_layout_must_match_the_environment(tmp_path, layout, kind):
    # a loaded file must also hold the configured kind: an oracle run reads
    # no file, and a null one is no linear-AR model
    from pulsebandit import null_imputer, save_imputer
    path = tmp_path / "imputer.json"
    save_imputer(null_imputer(*layout), str(path))
    raw = tiny_raw(horizon=10, trials=1)
    raw["imputer"] = {"kind": kind, "path": str(path)}
    raw["agents"][2]["dt_source"] = "zero"
    with pytest.raises(ConfigError) as err:
        pretrain(ExperimentConfig(raw))
    assert err.value.field == "imputer.path"
    if layout == (1, 1):
        assert "'null'" in str(err.value) and repr(kind) in str(err.value)
    else:
        assert f"{layout}" in str(err.value) and "(1, 1)" in str(err.value)

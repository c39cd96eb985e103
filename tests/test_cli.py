import filecmp
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pulsebandit
from pulsebandit.cli import main


def write_tiny(tmp_path, **over):
    raw = {
        "schema_version": 1,
        "name": "cli_tiny",
        "base_seed": 555,
        "horizon": 30,
        "trials": 2,
        "gamma_scale": 0.02,
        "environment": {"kind": "synthetic", "nonlinearity": "linear"},
        "schedule": {"lambda": 1.0, "delta": 0.1, "sigma_eta": 0.05,
                     "sigma_eps": 1.0},
        "imputer": {"kind": "linear_ar", "lag": 1},
        "pretrain": {"n": 50, "t0": 15, "seed": 3},
        "agents": [
            {"name": "oful_full", "kind": "oful_full", "dt_source": "oracle"},
            {"name": "pulse_ucb", "kind": "pulse_ucb", "dt_source": "oracle"},
        ],
    }
    raw.update(over)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    return str(p)


def test_validate_config_ok(tmp_path, capsys):
    cfg = write_tiny(tmp_path)
    assert main(["validate-config", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower()


def test_validate_config_bad_field_exits_1(tmp_path, capsys):
    cfg = write_tiny(tmp_path, trials=0)
    assert main(["validate-config", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "trials" in err


def test_missing_file_is_an_error(tmp_path, capsys):
    rc = main(["validate-config", "--config", str(tmp_path / "nope.json")])
    assert rc != 0
    assert "error" in capsys.readouterr().err.lower()


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = write_tiny(tmp_path)
    out = tmp_path / "run"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    for fname in ("raw_records.csv", "aggregate.csv", "metadata.json"):
        assert (out / fname).exists()


def test_set_and_trials_flags_apply(tmp_path):
    cfg = write_tiny(tmp_path)
    out = tmp_path / "run2"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--quiet",
               "--trials", "3", "--set", "horizon=12"])
    assert rc == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["trials"] == 3
    assert meta["config"]["horizon"] == 12
    raw = (out / "raw_records.csv").read_text().strip().splitlines()
    assert len(raw) == 1 + 3 * 12 * 2  # header + trials * steps * agents


def test_metadata_rerun_matches_bit_for_bit(tmp_path):
    cfg = write_tiny(tmp_path)
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(first), "--quiet"]) == 0
    assert main(["simulate", "--config", str(first / "metadata.json"),
                 "--out", str(second), "--quiet"]) == 0
    assert filecmp.cmp(first / "raw_records.csv", second / "raw_records.csv",
                       shallow=False)


def test_pretrain_saves_imputer(tmp_path):
    cfg = write_tiny(tmp_path)
    out = tmp_path / "pre"
    assert main(["pretrain", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    files = os.listdir(out)
    assert any(f.endswith(".json") for f in files)


def test_sweep_emits_summary_table(tmp_path):
    cfg = write_tiny(tmp_path)
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", cfg, "--out", str(out), "--quiet",
               "--param", "gamma_scale=[0.01, 0.05]"])
    assert rc == 0
    table = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert table[0] == "param,value,agent,mean_final_cum_regret,se_final_cum_regret"
    assert len(table) == 1 + 2 * 2  # two values x two agents
    assert (out / "gamma_scale=0.01" / "metadata.json").exists()


def test_replay_sweep_names_its_cum_ctr_columns(tmp_path, capsys):
    # a replay child's headline is its cumulative CTR, and the table says so
    import pulsebandit.configs as configs
    import importlib.resources as ir
    cfg = write_tiny(
        tmp_path,
        environment={"kind": "replay", "k": 10,
                     "path": str(ir.files(configs) / "replay_demo_log.csv")},
        imputer={"kind": "linear_ar"},
        pretrain={"fraction": 0.2},
        agents=[{"name": "oful_full", "kind": "oful_full"}],
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--param", "environment.k=[5, 10]"]) == 0
    table = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert table[0] == "param,value,agent,mean_final_cum_ctr,se_final_cum_ctr"
    assert [line.split(",")[:3] for line in table[1:]] == [
        ["environment.k", "5", "oful_full"], ["environment.k", "10", "oful_full"]]
    printed = capsys.readouterr().out.splitlines()
    mean, se = (float(cell) for cell in table[1].split(",")[3:])
    assert printed[0] == f"environment.k=5 oful_full: final mean {mean:.4f} +/- {se:.4f}"


@pytest.mark.parametrize("command", ["validate-config", "simulate"])
def test_an_oversized_count_is_a_config_error(tmp_path, capsys, command):
    # a size field past numpy's largest array dimension is refused by name,
    # before any array is built; a seed takes any nonnegative integer
    cfg = write_tiny(tmp_path)
    huge = str(10**30)
    out = ["--out", str(tmp_path / "run")] if command == "simulate" else []
    assert main([command, "--config", cfg, "--quiet", *out, "--set", f"horizon={huge}"]) == 1
    err = capsys.readouterr().err
    assert "config field 'horizon'" in err and huge in err
    assert not (tmp_path / "run").exists()
    assert main(["validate-config", "--config", cfg, "--quiet", "--set", f"base_seed={huge}"]) == 0


@pytest.mark.parametrize(
    "config, items, field",
    [
        ("lower_bound_dgp.json", ["environment.bump_beta=2"], "environment.bump_beta"),
        ("lower_bound_dgp.json", ["imputer.beta=2"], "imputer.beta"),
        ("calibration_demo.json", ["environment.beta_star=[1,2,3]"], "environment.beta_star"),
        ("calibration_demo.json", ["environment.theta_star=[1,2]"], "environment.theta_star"),
        ("calibration_demo.json", ["imputer.lag=60"], "imputer.lag"),
        ("calibration_demo.json", ["pretrain.n=2", "pretrain.t0=3"], "pretrain.n"),
    ],
)
def test_validate_config_refuses_what_a_run_would_fail_on(tmp_path, capsys, config, items, field):
    path = os.path.join(os.path.dirname(pulsebandit.__file__), "configs", config)
    sets = [arg for item in items for arg in ("--set", item)]
    assert main(["validate-config", "--config", path, "--quiet", *sets]) == 1
    assert f"config field '{field}'" in capsys.readouterr().err
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", path, "--quiet", "--out", out, *sets]) == 1
    assert not os.path.exists(out)


def test_calibrate_needs_ten_historical_pairs(tmp_path, capsys):
    # without a plug_in agent the config is valid; calibrate's band is not
    cfg = write_tiny(tmp_path, pretrain={"n": 3, "t0": 3, "seed": 3})
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "cal")]) == 1
    assert "config field 'pretrain.n'" in capsys.readouterr().err
    for n, t0 in ((2, 5), (1, 10)):
        cfg = write_tiny(tmp_path, pretrain={"n": n, "t0": t0, "seed": 3})
        out = tmp_path / f"cal_{n}"
        assert main(["calibrate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert (out / "band.json").exists()


def test_sweep_rejects_malformed_param(tmp_path, capsys):
    cfg = write_tiny(tmp_path)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "x"),
               "--param", "gamma_scale=oops", "--quiet"])
    assert rc == 1
    assert "param" in capsys.readouterr().err.lower()


def test_calibrate_writes_band(tmp_path):
    cfg = write_tiny(
        tmp_path,
        environment={"kind": "synthetic", "nonlinearity": 1.0},
        pretrain={"n": 200, "t0": 30, "seed": 11},
        calibration={"alpha": 0.1, "bootstrap_draws": 40, "grid_points": 9},
    )
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    band = json.loads((out / "band.json").read_text())
    assert band["dhat"] >= 0.0
    assert band["alpha"] == 0.1
    rows = np.genfromtxt(out / "band.csv", delimiter=",", names=True)
    assert rows.shape[0] == 9
    assert np.all(rows["half_width_0"] >= 0.0)
    assert hashlib.sha256((out / "band.csv").read_bytes()).hexdigest() == (
        "4c636a9e7d8b571112cf73e622dde7a6d417b50824ff620c82b24830eaa2f1f5"
    )


def test_calibrate_rejects_lower_bound_by_field(tmp_path, capsys):
    # the band needs d_S = 1; lower_bound has d_S = d_lin + d_non
    cfg = write_tiny(tmp_path, environment={"kind": "lower_bound", "d_lin": 1, "d_non": 1})
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "cal")]) == 1
    assert "environment.kind" in capsys.readouterr().err


def test_replay_cli_roundtrip(tmp_path):
    import importlib.resources as ir
    import pulsebandit.configs as configs
    log_path = str(ir.files(configs) / "replay_demo_log.csv")
    raw = {
        "schema_version": 1,
        "name": "cli_replay",
        "base_seed": 9,
        "horizon": 25,
        "trials": 2,
        "gamma_scale": 0.05,
        "environment": {"kind": "replay", "path": log_path, "k": 8},
        "schedule": {"lambda": 1.0, "delta": 0.1, "sigma_eta": 0.5,
                     "sigma_eps": 1.0},
        "imputer": {"kind": "linear_ar", "lag": 0},
        "pretrain": {"fraction": 0.2},
        "agents": [
            {"name": "oful_full", "kind": "oful_full"},
            {"name": "uniform_random", "kind": "uniform_random"},
        ],
    }
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "rep"
    dump = tmp_path / "replay.prof"
    assert main(["replay", "--config", str(cfg), "--out", str(out), "--quiet",
                 "--profile", str(dump)]) == 0
    assert (out / "raw_replay.csv").exists()
    assert (out / "aggregate_replay.csv").exists()
    import pstats
    assert "run_replay" in {name for _, _, name in pstats.Stats(str(dump)).stats}


def test_replay_with_an_unreadable_log_names_its_field(tmp_path, capsys):
    import importlib.resources as ir
    import pulsebandit.configs as configs
    cfg = str(ir.files(configs) / "replay_demo.json")
    missing = json.dumps(str(tmp_path / "nonexistent.csv"))
    rc = main(["replay", "--config", cfg, "--out", str(tmp_path / "rep"), "--quiet",
               "--set", f"environment.path={missing}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "environment.path" in err and "nonexistent.csv" in err


@pytest.mark.parametrize(
    "read_as, status, names",
    [
        ("config", 1, "config field ''"),
        ("environment.path", 1, "config field 'environment.path'"),
        ("imputer.path", 2, "cannot parse imputer file"),
    ],
    ids=["config", "environment.path", "imputer.path"],
)
def test_a_file_that_is_not_utf8_fails_with_a_message(tmp_path, capsys, read_as, status, names):
    import importlib.resources as ir
    import pulsebandit.configs as configs
    binary = tmp_path / "binary"
    binary.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x01, 0x80, 0x81]))
    out = ["--out", str(tmp_path / "out"), "--quiet"]
    if read_as == "config":
        argv = ["validate-config", "--config", str(binary)]
    elif read_as == "environment.path":
        argv = ["replay", "--config", str(ir.files(configs) / "replay_demo.json"), *out,
                "--set", f"environment.path={json.dumps(str(binary))}"]
    else:
        cfg = write_tiny(tmp_path, imputer={"kind": "linear_ar", "lag": 1, "path": str(binary)})
        argv = ["simulate", "--config", cfg, *out]
    assert main(argv) == status
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert names in err and "codec can't decode" in err


@pytest.mark.parametrize(
    "reader, status, names",
    [
        ("config", 1, "config field ''"),
        ("--set", 1, "config field 'horizon'"),
        ("imputer.path", 2, "cannot parse imputer file"),
        ("--param", 1, "config field '--param'"),
    ],
)
def test_an_integer_past_the_digit_limit_fails_naming_its_file_or_field(
    tmp_path, capsys, reader, status, names
):
    # Python refuses to parse an integer of more than 4,300 digits by default
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001:
        pytest.skip("this Python parses a 5,001-digit integer")
    huge = "1" + "0" * 5000
    cfg = write_tiny(tmp_path)
    out = ["--out", str(tmp_path / "out"), "--quiet"]
    named = names
    if reader == "config":
        bad = tmp_path / "huge.json"
        bad.write_text(open(cfg).read().replace('"horizon": 30', f'"horizon": {huge}'))
        argv, named = ["validate-config", "--config", str(bad)], str(bad)
    elif reader == "--set":
        argv = ["validate-config", "--config", cfg, "--set", f"horizon={huge}"]
    elif reader == "imputer.path":
        bad = tmp_path / "imputer.json"
        bad.write_text(f'{{"format_version": {huge}}}')
        cfg = write_tiny(tmp_path, imputer={"kind": "linear_ar", "lag": 1, "path": str(bad)})
        argv, named = ["simulate", "--config", cfg, *out], str(bad)
    else:
        argv = ["sweep", "--config", cfg, *out, "--param", f"gamma_scale=[{huge}]"]
    assert main(argv) == status
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert names in err and named in err and "5001 digits" in err


@pytest.mark.parametrize("given_in", ["--set", "config", "list"])
@pytest.mark.parametrize(
    "key, value",
    [("horizon", "1e400"), ("trials", "Infinity"), ("horizon", "NaN"), ("gamma_scale", "1" + "0" * 400)],
    ids=["horizon=1e400", "trials=Infinity", "horizon=NaN", "gamma_scale=10^400"],
)
def test_a_non_finite_or_oversized_number_fails_naming_its_field(
    tmp_path, capsys, key, value, given_in
):
    # JSON reads 1e400 as inf; 10^400 is an int that no float holds
    cfg = write_tiny(tmp_path)
    if given_in == "--set":
        argv = ["validate-config", "--config", cfg, "--set", f"{key}={value}"]
    else:
        raw = json.loads(open(cfg).read())
        if given_in == "config":
            raw[key] = "VALUE"
        else:
            key = "environment.arma"
            raw["environment"]["arma"] = [0.75, "VALUE", 0.65, 0.35]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw).replace('"VALUE"', value))
        argv = ["validate-config", "--config", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{key}': must be")


def test_profile_flag_writes_a_pstats_dump(tmp_path):
    import pstats

    cfg = write_tiny(tmp_path)
    plain, profiled = tmp_path / "plain", tmp_path / "profiled"
    dump = tmp_path / "run.prof"
    assert main(["simulate", "--config", cfg, "--out", str(plain), "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(profiled), "--quiet",
                 "--profile", str(dump)]) == 0
    funcs = {name for _, _, name in pstats.Stats(str(dump)).stats}
    assert {"run_experiment", "run_trials", "stack_rank_one_update"} <= funcs
    assert filecmp.cmp(plain / "raw_records.csv", profiled / "raw_records.csv",
                       shallow=False)
    hashes = [json.loads((d / "metadata.json").read_text())["run"]["config_sha256"]
              for d in (plain, profiled)]
    assert hashes[0] == hashes[1]


def test_cli_import_leaves_scipy_linalg_unloaded():
    # the ridge kernel is numpy only: importing scipy.linalg would add
    # about 0.35 s to the start of every command (2-CPU VM measurement)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pulsebandit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, pulsebandit.cli, pulsebandit.linalg as linalg; "
        "print('scipy.linalg' in sys.modules, hasattr(linalg, 'dtrtrs'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]


def test_a_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.quantile and np.unique import numpy.ma, about 10 ms of a run's
    # setup; simulate (dry run, band and all) and replay use neither
    src = os.path.dirname(os.path.dirname(os.path.abspath(pulsebandit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    configs = os.path.join(os.path.dirname(pulsebandit.__file__), "configs")
    code = (
        "import sys\n"
        "from pulsebandit.cli import main\n"
        "configs, out = sys.argv[1:]\n"
        "for command, name in (('simulate', 'calibration_demo'), ('replay', 'replay_demo')):\n"
        "    main([command, '--config', f'{configs}/{name}.json', '--out', f'{out}/{name}'])\n"
        "    print('numpy.ma loaded:', 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, configs, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = [line for line in out.stdout.splitlines() if line.startswith("numpy.ma")]
    assert loaded == ["numpy.ma loaded: False"] * 2

"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Run from the repository root.
"""

import json
import os
import re
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from check import check_raw_csv, sha256_file  # noqa: E402
from spans import SpanRecorder, layer_metrics, self_times  # noqa: E402
from workloads import SEED_FIELDS, WORKLOADS, seeded_config  # noqa: E402

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class FakeClock:
    """Advances one second per reading, so each span's bounds are known."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_nested_children():
    rec = SpanRecorder(clock=FakeClock())
    leaf = rec.wrap("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    outer = rec.wrap("outer", rec.wrap("middle", middle))
    outer()
    # outer [1, 8], middle [2, 7], leaf [3, 4] and [5, 6]
    spans = rec.spans()
    assert spans == [
        ("outer", 1.0, 8.0, -1),
        ("middle", 2.0, 7.0, 0),
        ("leaf", 3.0, 4.0, 1),
        ("leaf", 5.0, 6.0, 1),
    ]
    assert self_times(spans) == [2.0, 3.0, 1.0, 1.0]


def test_layer_metrics_from_spans():
    spans = [
        ("harness.run_trial", 0.0, 10.0, -1),
        ("agents.select_arm", 1.0, 4.0, 0),
        ("linalg.quadratic_form_inv", 2.0, 3.0, 1),
        ("agents.observe", 5.0, 7.0, 0),
        ("imputation.fit", 11.0, 13.0, -1),
        ("imputation.fit", 11.5, 12.0, 4),
    ]
    out = layer_metrics(spans, main_end=20.0, distinct_queries=3)
    assert out["harness.run_trial.calls"] == 1
    assert out["harness.run_trial.self_s"] == 5.0
    assert out["agents.select_arm.self_s"] == 2.0
    assert out["linalg.quadratic_form_inv.calls"] == 1
    assert out["imputation.fit.s"] == 2.0  # the nested fit is not counted twice
    assert out["harness.write_s"] == 13.0
    assert out["imputation.conditional_mean.distinct_ratio"] == 0.0
    assert out["environments.step.calls"] == 0


def test_seed_to_config_mapping_is_deterministic():
    for workload in WORKLOADS.values():
        first = seeded_config(workload, 7, "out", root=ROOT)
        assert first == seeded_config(workload, 7, "out", root=ROOT)
        assert first != seeded_config(workload, 8, "out", root=ROOT)
        for path in SEED_FIELDS:
            node = first
            for key in path:
                node = node[key]
            assert node == 7
        assert first["trials"] == workload.trials
        assert first["horizon"] == workload.horizon
        assert len(first["agents"]) == workload.agents
        assert first.get("workers", 1) == 1
        if "path" in first["environment"]:
            assert os.path.isfile(first["environment"]["path"])


def test_metric_names_and_units():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    for metric in bench["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"]), metric["name"]


def test_per_layer_list_matches_trace_and_layer_map():
    bench = _benchmark()
    listed = {m["name"] for m in bench["per_layer"]}
    traced = set(layer_metrics([], 0.0, 0)) | {"cli.startup_s", "trace.overhead_ratio"}
    assert listed == traced
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["metrics"]
    assert set(layer_map) == listed
    workloads = {w["name"] for w in bench["workloads"]}
    assert workloads == set(WORKLOADS)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for name, entry in layer_map.items():
        assert set(entry["moves"]) <= end_to_end, name
        assert set(entry["heavy_on"]) | set(entry["light_on"]) <= workloads, name


@pytest.fixture(scope="module")
def replay_csv(tmp_path_factory):
    """Raw CSV of a shortened replay_k20 run, made in this process."""
    from pulsebandit import cli

    tmp = tmp_path_factory.mktemp("replay")
    workload = WORKLOADS["replay_k20"]
    config = seeded_config(workload, 3, str(tmp / "out"), root=ROOT)
    config["horizon"] = 20
    config["trials"] = 1
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["replay", "--config", str(path), "--quiet"]) == 0
    return tmp / "out" / workload.raw_csv, 20 * workload.agents


def test_raw_csv_passes_its_own_check(replay_csv):
    path, rows = replay_csv
    digest, errors = check_raw_csv(path, rows, pinned=sha256_file(path))
    assert errors == []
    assert digest == sha256_file(path)


def test_flipped_byte_fails_the_check(replay_csv, tmp_path):
    path, rows = replay_csv
    pinned = sha256_file(path)
    copy = tmp_path / "raw_copy.csv"
    shutil.copyfile(path, copy)
    data = bytearray(copy.read_bytes())
    offset = data.index(b"\n") + 1  # first data row
    offset += data[offset:].index(b".") + 1  # first decimal digit in it
    data[offset] = ord("7") if data[offset] != ord("7") else ord("3")
    copy.write_bytes(bytes(data))
    _, errors = check_raw_csv(copy, rows, pinned=pinned)
    assert errors and "differs from pinned" in errors[-1]


def test_invariants_reject_bad_rows(tmp_path):
    header = "trial,t,agent,arm,reward,inst_regret,cum_regret,ma_reward_100\n"
    good = "0,1,pulse_ucb,1,0.5,0.1,0.1,0.5\n"
    cases = {
        "0,1,pulse_ucb,1,0.5,-0.1,0.1,0.5\n": "negative inst_regret",
        "0,1,pulse_ucb,1,nan,0.1,0.1,0.5\n": "non-finite",
        "0,1,oracle_best,1,0.5,0.2,0.2,0.5\n": "oracle_best",
    }
    path = tmp_path / "raw.csv"
    path.write_text(header + good)
    assert check_raw_csv(path, 1)[1] == []
    assert "rows, expected 2" in check_raw_csv(path, 2)[1][0]
    for row, reason in cases.items():
        path.write_text(header + good + row)
        assert reason in check_raw_csv(path, 2)[1][0]
    replay = tmp_path / "raw_replay.csv"
    replay.write_text("trial,t,agent,choice,reward,cum_ctr\n0,1,pulse_ucb,3,1.0,1.5\n")
    assert "cum_ctr outside" in check_raw_csv(replay, 1)[1][0]

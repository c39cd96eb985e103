"""The benchmark's `setup_s` ends at the first agent decision, which
`perfbench/child.py` marks with a one-shot hook swapped in for
`harness.select_arm`.  A decision loop that bypassed `harness.select_arm`
would leave the mark unset and break the benchmark while every other test
stays green, so both commands run through the child here."""

import importlib.resources
import json
import os
import sys

import pytest

import pulsebandit.configs
from pulsebandit import harness

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import child  # noqa: E402

SIMULATE = {
    "schema_version": 1,
    "horizon": 12,
    "trials": 3,
    "gamma_scale": 0.02,
    "environment": {"kind": "synthetic"},
    "imputer": {"kind": "oracle"},
    "schedule": {"feat_norm_bound": 2.0},
    "agents": [{"kind": "pulse_ucb"}, {"kind": "uniform_random"}],
}
REPLAY = {
    "schema_version": 1,
    "horizon": 12,
    "trials": 2,
    "gamma_scale": 0.05,
    "environment": {
        "kind": "replay",
        "path": str(importlib.resources.files(pulsebandit.configs) / "replay_demo_log.csv"),
        "k": 5,
    },
    "imputer": {"kind": "linear_ar"},
    "agents": [{"kind": "pulse_ucb"}, {"kind": "uniform_random"}],
}


@pytest.fixture
def restore_select_arm():
    original = harness.select_arm
    yield
    harness.select_arm = original


@pytest.mark.parametrize("command, raw", [("simulate", SIMULATE), ("replay", REPLAY)])
def test_child_marks_the_first_decision(tmp_path, restore_select_arm, command, raw):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    timing = tmp_path / "timing.json"
    args = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]
    assert child.main([str(timing), "0", "--", *args]) == 0
    doc = json.loads(timing.read_text())
    assert isinstance(doc["first_decision"], float)
    assert doc["import_done"] <= doc["first_decision"] <= doc["main_end"]

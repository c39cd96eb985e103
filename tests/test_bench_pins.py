"""The benchmark pins each workload's raw CSV at its default seed
(`perfbench/workloads.py`, `Workload.digest`) and refuses a run whose CSV
differs.  Each workload runs once here, as the benchmark runs it, so a
change that moves a pinned output fails the suite, not only the benchmark."""

import hashlib
import json
import os
import sys

import pytest

from pulsebandit import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS, seeded_config  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_raw_csv_matches_its_pinned_digest(tmp_path, name):
    workload = WORKLOADS[name]
    out_dir = str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(seeded_config(workload, DEFAULT_SEED, out_dir, root=REPO)))
    assert cli.main([workload.command, "--config", str(config), "--quiet"]) == 0
    with open(os.path.join(out_dir, workload.raw_csv), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == workload.digest

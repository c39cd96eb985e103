"""Pinned outputs of every shipped config.

Each shipped config runs in process, writing under `tmp_path`.  The sha256
of every CSV it writes (raw, aggregate and conditional) and of
`imputer.json` is pinned, and so is the digest of one canonical JSON, with
sorted keys, of the run's `final_gamma`, `final_dt_cumsum` and
`plug_in_dt` metadata.  Timestamps, paths and timings stay out.  A change
that alters the numerics on purpose re-pins these digests next to the
golden ones and says why in CHANGES.md, as `tests/test_golden.py` asks.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import pulsebandit
from pulsebandit import load_config, run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(pulsebandit.__file__), "configs")
METADATA_KEYS = ("final_gamma", "final_dt_cumsum", "plug_in_dt")

# config -> {output file or "metadata": sha256}
PINNED = {
    "calibration_demo.json": {
        "aggregate.csv": "1e9bd112e8c22050520f550779aefb665a480862a471ea3dc06b5db45461a86a",
        "conditional_regret.csv": "253c122542a8b42ae4cc918f01397d64e3d33bb06095bed77975f3f44e54e76a",
        "imputer.json": "5c72add08c16a60743dbb2752055fefafc4e9b8b1d46ae337ff86b769066cf2a",
        "metadata": "5b7e7aa93f8fafc39164cee08cb823c6595e200b509e0b33eb9a314b645dbcdc",
        "raw_records.csv": "4590bc047b0aa58afc8afb4a2f5776681a98fb14effda4116ac34cc4aeba51e3",
    },
    "lower_bound_dgp.json": {
        "aggregate.csv": "46a6b7902f5034a25bd6b275768d19c8d1d7c3fd3e6a5be0bf6a83194b37a0e7",
        "conditional_regret.csv": "9ceb9e668420345f5ec1dac7bd205b0cf741eb457b4cfb6de5e18895709214c8",
        "imputer.json": "db502af328ef7098eb82f841c29bdfbaa809400457a1f5ac15fdd167da042a65",
        "metadata": "04feb6154a2aae88f6727a50e63c1df38bc2118a36f3692ff70d7c6ce5eb1763",
        "raw_records.csv": "98f56a33a6d051ecc92659b14c7d0f7ca6ab4b707b2c5bcc97e79195997cc1d8",
    },
    "replay_demo.json": {
        "aggregate_replay.csv": "a72130991efc766cb61a1f68f12de989ef72e7f50baca58a7d45969d580f0495",
        "metadata": "e3a6d20f81464cf88861ae27a3f51b193bce3ac167c67151b0e57f7d8e6c0b08",
        "raw_replay.csv": "3208ce9e908f66c36c3ebf056b895f86d087a264a1fd4f7ed4e4103ff47d8fd1",
    },
    "synthetic_linear.json": {
        "aggregate.csv": "2e52f530fe88e22d1c58e717d1e6d9b22a4c2eaf9acf8f3c4eeb78e4b0520d8f",
        "conditional_regret.csv": "23301c00a3b9dbad4aef8579a59fc7634871fe87c7fdfde005853edf50aab831",
        "imputer.json": "679cb4ab7b0fb1edc51592946ab4c530cbe8fcdfa0c2f77037f75ee1471c2860",
        "metadata": "6989fa82c8bce4cfa00bcd5b5a88723f24446809bbe231fd080a39cf3e85e9d2",
        "raw_records.csv": "8c2ae0e7279073f8795a0317f156a0fb82f2ffc583e92127c262ff02df391e36",
    },
    "synthetic_nonlinear_rho0.1.json": {
        "aggregate.csv": "eb389fcc936eaf8f9ef33650953310b5822d4bcaa766c0b7659f43aa3429c0a4",
        "conditional_regret.csv": "fa7f6ad02f025c076fdfb0e270c4120fafedd248be0c5b9f74a8db2accf2b7b0",
        "imputer.json": "ecb67929271c5370cf9a3cf87b2cf0c91379aa3f03a683aeac6358b304bfda09",
        "metadata": "dd17c5d5dac2af366ae38895977e1d5b3f38c32106200f39375ba6739738ead4",
        "raw_records.csv": "4bb0df46449a4e00be366b2ad172994c77a75f76cdfd946ed9788e79acb00e81",
    },
    "synthetic_nonlinear_rho1.json": {
        "aggregate.csv": "60846846de0db5b225c6be89688027c7621c9925d12f7fe2f6d8d2cf626fbdc5",
        "conditional_regret.csv": "9c910bb9efe208173bf8f101f54544e7bf3c4fdfa7ab3c5305a3474480b7ff61",
        "imputer.json": "1c7814d670d9c8f49fdaed0e75d239bf1908efb0994e459597b9c9f5401af8b9",
        "metadata": "598eb5093e2f5103f6d2542aa4bd265529b58c743fec9c774ab5e5467667b9a0",
        "raw_records.csv": "1b55fe8031766952d1dd2c06507518a56d30a2dfdaca6ffcd95d062ccda83692",
    },
    "synthetic_nonlinear_rho10.json": {
        "aggregate.csv": "bae305f9d37fc6dd46f3b8d9d762c21daaa0478f50cbb31d49e2b10361e5a35b",
        "conditional_regret.csv": "8860da8d248de7c5cbcb181879f883cb53fa61893e5bdc650def2db951dceb36",
        "imputer.json": "d7b96a2d29fc53b3e37c3f5bdb79b1a565036df93e712f441f40f57733c71104",
        "metadata": "c0d48d921dab7e502ee151335152f3e6e883b7cd1ae53e72c85c11330e9f7740",
        "raw_records.csv": "278864dffc150c2c8a11940650b67ac8210f001e778798ab42a7d33e2d3e7bf1",
    },
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _digests(out_dir):
    """sha256 of each pinned output file in out_dir, and of the canonical
    JSON of the run's pinned metadata keys."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv") or name == "imputer.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = _sha256(fh.read())
    with open(os.path.join(out_dir, "metadata.json"), encoding="utf-8") as fh:
        run = json.load(fh)["run"]
    facts = {key: run[key] for key in METADATA_KEYS if key in run}
    digests["metadata"] = _sha256(json.dumps(facts, sort_keys=True).encode("utf-8"))
    return digests


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shipped_config_outputs_are_pinned(name, tmp_path):
    config = load_config(os.path.join(CONFIG_DIR, name))
    run_experiment(config, out_dir=str(tmp_path))
    assert _digests(str(tmp_path)) == PINNED[name]


def test_every_shipped_config_is_pinned():
    shipped = {name for name in os.listdir(CONFIG_DIR) if name.endswith(".json")}
    assert set(PINNED) == shipped


def test_matmul_outputs_hold_their_pins_on_two_blas_threads(tmp_path):
    # the lockstep closed form scores through matmul, which BLAS may spread
    # over threads; replay_demo and calibration_demo, run in a process
    # with two OpenBLAS threads, write exactly their pinned outputs
    names = ("replay_demo.json", "calibration_demo.json")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pulsebandit.__file__)))
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="2",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    code = (
        "import os, sys\n"
        "from pulsebandit import load_config, run_experiment\n"
        "for name in sys.argv[2:]:\n"
        "    config = load_config(os.path.join(sys.argv[1], name))\n"
        "    run_experiment(config, out_dir=name)\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, CONFIG_DIR, *names], env=env, cwd=tmp_path, check=True
    )
    for name in names:
        assert _digests(str(tmp_path / name)) == PINNED[name], name

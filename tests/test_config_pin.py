"""Pinned resolved configs.

For every shipped config and every `tests/test_golden.py` config, the
sha256 of `json.dumps(to_dict())` (key order included) and the
`config_hash()` are pinned, so a change to how configs are parsed cannot
move a default, a type or a key without failing here.  The golden replay
config's log path is replaced by a fixed name, which keeps the pins
independent of where the package lives.
"""

import copy
import hashlib
import json
import os

import pytest

import pulsebandit
import test_golden
from pulsebandit import ExperimentConfig, load_config

CONFIG_DIR = os.path.join(os.path.dirname(pulsebandit.__file__), "configs")

# name -> (sha256 of json.dumps(to_dict()), config_hash())
PINNED = {
    "calibration_demo.json": (
        "a0253cf7f75113e292e9c9dd858b29bbc16b8668d66bab214bb782979b696614",
        "b71637bcdfa7abd2cb8cdef5772c29e8083c09bce8efc22d3632d10914fce1a0",
    ),
    "lower_bound_dgp.json": (
        "7bf0e6d16d4903ae0e5a4cf0869f847bb3c6c75e8fbc299847975c2efa0a632b",
        "8bb690f8dfefe68f6d36d06d1384538188f8cf24accdc7562278166795494282",
    ),
    "replay_demo.json": (
        "0b672de9305efe714a21076b16083b8667ece30e9e5f48ce3ad176cf582ea380",
        "72e4a198549524eeafbe07a1190cbdfd3e03ce2326bf04d1b2bbfebf4ba96f80",
    ),
    "synthetic_linear.json": (
        "7a77e5b88a7781f853a727a71e41f6a6ddb367ac757919c23013ca911cec1b44",
        "ed957848ae86862226916609fd43cc5a64cacf8dfaa9639cddd8b6c7b12a4d16",
    ),
    "synthetic_nonlinear_rho0.1.json": (
        "bde161e046855768a69a2cdbea2413c2ecc31cb9512b064d5b2d8af1c4b2d14a",
        "fcf2984a61092197360054ddebe0256f7b452e24cbf770f0cb3825712af288ee",
    ),
    "synthetic_nonlinear_rho1.json": (
        "b613f25764d53e787fe067e248d1319fcb44c037abbdb544228abceea1763cb8",
        "72c9eb4d9ec45a767380f7449bafb9046f15f92e974f46e24e493676c9d4115f",
    ),
    "synthetic_nonlinear_rho10.json": (
        "39b039a85fcc91dd928bcb80e442ea03b062554352316706737f625495525be5",
        "c27236aa11bf065b4823bf7c7a19c4a95fda4dd139b109cf9fc601c2f581494e",
    ),
    "SYNTHETIC": (
        "7bef4e2ec784713cd338e764d6f373bb28d2999f9aec04e565f8e5863eb8cbf2",
        "36b07538c042a81d979552fc9286850f72f4808bad13addc9c63a521dc3a36ad",
    ),
    "LOWER_BOUND": (
        "d72f57c8086122872551292093ae262b799be545bfa65c3c2208ba25e8323c25",
        "85a1d1a05d95cc2a0ac80dbb7ea2e802193d86e881ba5fac2a3304f3ca665fdb",
    ),
    "LONG": (
        "c4629b44e1c81e59c7552212b532fb9c8049efa8a0e5142bc9b964973c5c1669",
        "7bca2ce0632b7a872d4ec44c6f6e01b6cd69e71dc3c991decec7d31eab15839b",
    ),
    "REPLAY": (
        "8a93cf91cf2e1681db6ed2a25c1620d7edc4c3b513bd474a7d868daae64f0e16",
        "8e2dd55b7421b9104764ac80d92691993a36d58d502d8e2cb4c8a8aaa38446af",
    ),
    "LONG_REPLAY": (
        "84d4ceaf11197f9291a5a9ec5e37c485192fe824aa12459a8bd5b2aef3845cef",
        "d2bb5ada6edcf435d68b608368081ce2f0861ae7827ab5d7ff3a4da34f127467",
    ),
}


def _raw(name):
    if name.endswith(".json"):
        with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
            return json.load(fh)
    raw = copy.deepcopy(getattr(test_golden, name))
    if "path" in raw["environment"]:
        raw["environment"]["path"] = "replay_demo_log.csv"
    return raw


@pytest.mark.parametrize("name", sorted(PINNED))
def test_resolved_config_and_hash_are_pinned(name):
    cfg = ExperimentConfig(_raw(name))
    digest = hashlib.sha256(json.dumps(cfg.to_dict()).encode("utf-8")).hexdigest()
    assert (digest, cfg.config_hash()) == PINNED[name]


@pytest.mark.parametrize("name", sorted(n for n in PINNED if n.endswith(".json")))
def test_load_config_only_resolves_data_paths(name):
    # a shipped config read from its file differs from the same dict only
    # in data paths, which resolve against the config's directory
    expected = ExperimentConfig(_raw(name)).to_dict()
    for section in ("environment", "imputer"):
        if isinstance(expected[section].get("path"), str):
            expected[section]["path"] = os.path.join(CONFIG_DIR, expected[section]["path"])
    assert load_config(os.path.join(CONFIG_DIR, name)).to_dict() == expected

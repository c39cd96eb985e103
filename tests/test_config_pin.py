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
        "337619b436ea1ba44b5c96b3b2f82a068d51f88f21df8c301b06bf2d99ec39a1",
        "b71637bcdfa7abd2cb8cdef5772c29e8083c09bce8efc22d3632d10914fce1a0",
    ),
    "lower_bound_dgp.json": (
        "2f727b42ebd583a71f9617648afa56c6b03bf1359a2ee6524aab8be6fd451175",
        "8bb690f8dfefe68f6d36d06d1384538188f8cf24accdc7562278166795494282",
    ),
    "replay_demo.json": (
        "6459fe5655f01df44a33969449dc6884cb87cf81b6487c1700ccc780da8cf3b8",
        "72e4a198549524eeafbe07a1190cbdfd3e03ce2326bf04d1b2bbfebf4ba96f80",
    ),
    "synthetic_linear.json": (
        "113539bdc588692095f4be925a34cda2498b9a9b34c227c32fbb95dcb211795f",
        "ed957848ae86862226916609fd43cc5a64cacf8dfaa9639cddd8b6c7b12a4d16",
    ),
    "synthetic_nonlinear_rho0.1.json": (
        "6bf3d7d779bc2e0dedec1b28017ab2802e231c69ef5261b7b83c9dea330669e5",
        "fcf2984a61092197360054ddebe0256f7b452e24cbf770f0cb3825712af288ee",
    ),
    "synthetic_nonlinear_rho1.json": (
        "e69c8624cd5c8050219fcfbc90bdac8f6f846bff9fe2b8c06e3c7af2db69280e",
        "72c9eb4d9ec45a767380f7449bafb9046f15f92e974f46e24e493676c9d4115f",
    ),
    "synthetic_nonlinear_rho10.json": (
        "e5a591ce94e1a1521e35a4cb43ecec70e95eb944ba62dac37874538c19ba1809",
        "c27236aa11bf065b4823bf7c7a19c4a95fda4dd139b109cf9fc601c2f581494e",
    ),
    "SYNTHETIC": (
        "44015bda7b716d3c64dedf897e2c5f425741d56fc220244405562298ce0cb9c4",
        "36b07538c042a81d979552fc9286850f72f4808bad13addc9c63a521dc3a36ad",
    ),
    "LOWER_BOUND": (
        "046bb1f45b8cb2c10f1ce8922852a70690caede98a4108362f75c9081286929c",
        "85a1d1a05d95cc2a0ac80dbb7ea2e802193d86e881ba5fac2a3304f3ca665fdb",
    ),
    "REPLAY": (
        "a73eb55b3ec2887375d1fa683882a0e06aaf6f7f0b19089ce197bd54df42a0a0",
        "8e2dd55b7421b9104764ac80d92691993a36d58d502d8e2cb4c8a8aaa38446af",
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

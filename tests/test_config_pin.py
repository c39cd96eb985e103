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
        "bb080abbb8a75e35a7dae6d96d810c479bbe7ac5a25bf0316d8d00e6266a85d7",
        "8092b329d3f95168b266da29a14bb7f940961c54670e200bb56dc01772f261d2",
    ),
    "lower_bound_dgp.json": (
        "e0e1fb6e6a7c766152cbd878660d124cc023b89bbd6f15d2642c4a6e2fa35169",
        "ca091a05c8f37d1a7a0c204d9d858181e82f6291e9786d2938598e8840301fce",
    ),
    "replay_demo.json": (
        "72ff1234322e0d629280d83d965171d46957a1e79a4e9c5f1935716dc7a81582",
        "0a84012f46c8cd78e6a6ed3d0d024941be397318da599894dd9e05f52623aed5",
    ),
    "synthetic_linear.json": (
        "640f9e67b5eace83a2d030571635ea3bab66a5bbcd36f33b985aabb26dd8096c",
        "219099ecb8838e34a3c2b0b3c17db84a3c31fd164a5c194f9b03b8b848e65499",
    ),
    "synthetic_nonlinear_rho0.1.json": (
        "5a85fcf3e49e1e474c8c3d98857a75a69bb475046e972866340cb04640eda5b8",
        "2988028342a8be5b910adf9475d9f07a4187aa5cf6ab1f3a87b199d3c5b3942c",
    ),
    "synthetic_nonlinear_rho1.json": (
        "37aa9defe5523c44e7777e7b3d93f29ca03472728bb74b62c6414007da0a71c3",
        "ace0e1888e2b98349495524461d0d6f1ba8cacc6e1b15095033bf1d120853862",
    ),
    "synthetic_nonlinear_rho10.json": (
        "5f3cf3c095345b086486c2db19b5c0c7c47725b7e2ed45e170e0c2eb54277a2b",
        "dee6058e413ff94c64866e482c73a7a6691a5d7bc64d44f0200894ad9b9c933e",
    ),
    "SYNTHETIC": (
        "4c754c373fd778e5fb9539604dc53dad1d9b5f57dae4d855e20934d8973abd7f",
        "eae171a1c29e61d1dd545d61f463deb69417bb4b45fdd1157843400e753723ef",
    ),
    "LOWER_BOUND": (
        "6ce376befcc05ab863df63f027c72c0ab80a1326d518f110d0daa65a32d50371",
        "3f3b2583054431979844a9a61cef9e1c97d926060f99562d1a068f5f178f7823",
    ),
    "LONG": (
        "cd08fe4324980566129bb233dd6ade450573a10fd16c99c63b919313fbd81e6f",
        "dd3fdf19e15e37ae06b2abe0718fec0b75229fe9b5cca1f701771ccfcf9f47f8",
    ),
    "REPLAY": (
        "0c85f4b54d2e5951a617773af2b8a4883af0079422bbf6923d065546f98c124e",
        "66756e30e7c0655e51aff6135df7f1d6b75cee7d61ce98fff455b9755f15da60",
    ),
    "LONG_REPLAY": (
        "46ff542b826f335474d7147078bd4de097fc14d5bffa119115c66d946b2221e1",
        "9eec6b785810c93690546f6851bd0b32f1221cbe91c782a969b1bc97d57b99dc",
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

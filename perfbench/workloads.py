"""The benchmark's workloads and the config each seed gives them.

Every workload is a shipped config run through the CLI with `workers` at 1.
The benchmark seed is written into every seed field of the config, so the
program receives only the resulting config file.
"""

import json
import os
from dataclasses import dataclass

CONFIG_DIR = os.path.join("src", "pulsebandit", "configs")
DEFAULT_SEED = 1
SEED_FIELDS = (("base_seed",), ("pretrain", "seed"), ("calibration", "split_seed"))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # pulsebandit subcommand
    config: str  # file name under CONFIG_DIR
    trials: int
    horizon: int
    agents: int
    raw_csv: str  # the raw per-decision CSV the command writes
    digest: str  # sha256 of raw_csv at DEFAULT_SEED

    @property
    def decisions(self):
        return self.trials * self.horizon * self.agents


# Digests pin the raw CSVs at DEFAULT_SEED.  A change that alters the
# numerics on purpose re-pins them in a separate benchmark change.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "replay_k20", "replay", "replay_demo.json",
            trials=3, horizon=400, agents=4, raw_csv="raw_replay.csv",
            digest="0b96ef53c40f559db20dff118dfe9dd516c785a2c3e17ff2ba3b5941807bd967",
        ),
        Workload(
            "calibration_plugin", "simulate", "calibration_demo.json",
            trials=20, horizon=200, agents=2, raw_csv="raw_records.csv",
            digest="e874cd6df1f6f4bd74e615de062aa837276a6d74fef8c7077e9785c129341cf6",
        ),
    )
}


def seeded_config(workload, seed, out_dir, root="."):
    """The config document `workload` runs at benchmark seed `seed`."""
    config_dir = os.path.join(root, CONFIG_DIR)
    with open(os.path.join(config_dir, workload.config), encoding="utf-8") as fh:
        doc = json.load(fh)
    for path in SEED_FIELDS:
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = seed
    doc["trials"] = workload.trials
    doc["horizon"] = workload.horizon
    doc["output"] = {"dir": out_dir}
    env = doc["environment"]
    if "path" in env:
        # the written config lives elsewhere, so anchor the log path here
        env["path"] = os.path.abspath(os.path.join(config_dir, env["path"]))
    return doc

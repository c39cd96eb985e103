"""One measured run: `pulsebandit <command> ...` in this process.

    python3 child.py TIMING_JSON TRACE -- <pulsebandit CLI arguments>

Writes TIMING_JSON with clock readings on the system-wide monotonic clock
(so the launching process can subtract its own launch time), the command's
exit status and the library versions.  With TRACE 0 the first agent
decision is marked by a one-shot hook that puts the original function back
on its first call, so the decision loop runs unwrapped.  With TRACE 1 the
public functions of every module are wrapped where their callers look them
up, spans are kept in memory, written next to TIMING_JSON when the command
returns, and reduced to the per-layer figures.
"""

import json
import os
import sys
import time

import pulsebandit.cli as cli

IMPORT_DONE = time.monotonic()

import numpy as np  # noqa: E402  (already loaded by the package)
import scipy  # noqa: E402
from pulsebandit import (  # noqa: E402
    agents,
    environments,
    features,
    harness,
    imputation,
    rng,
)

from spans import SpanRecorder, layer_metrics  # noqa: E402

# (module or class, attribute its callers look up, span name)
TRACED = [
    (cli, "run_experiment", "harness.run_experiment"),
    (cli, "run_replay", "harness.run_replay"),
    (harness, "pretrain", "harness.pretrain"),
    (harness, "_pretrain_replay", "harness.pretrain"),
    (harness, "run_trial", "harness.run_trial"),
    (harness, "run_replay", "harness.run_replay"),
    (harness, "substream", "rng.substream"),
    (rng, "substream", "rng.substream"),
    (harness, "generate_history", "environments.generate_history"),
    (harness, "load_replay_log", "environments.load_replay_log"),
    (environments.SyntheticEnv, "step", "environments.step"),
    (environments.LowerBoundEnv, "step", "environments.step"),
    (environments.ReplayStream, "step", "environments.replay_stream_step"),
    (harness, "arm_feature_matrix", "features.arm_feature_matrix"),
    (environments, "arm_feature_matrix", "features.arm_feature_matrix"),
    (features, "arm_feature_matrix", "features.arm_feature_matrix"),
    (features, "phi", "features.phi"),
    (imputation, "phi", "features.phi"),
    (harness, "calibrate_feat_norm_bound", "features.calibrate_feat_norm_bound"),
    (harness, "expected_feature_matrix", "imputation.expected_feature_matrix"),
    (harness, "fit_linear_ar", "imputation.fit"),
    (harness, "fit_kernel", "imputation.fit"),
    (harness, "estimate_dt_band", "calibration.estimate_dt_band"),
    (harness, "select_arm", "agents.select_arm"),
    (harness, "observe", "agents.observe"),
    (agents, "quadratic_form_inv", "linalg.quadratic_form_inv"),
    (agents, "rank_one_update", "linalg.rank_one_update"),
]


def _mark_first_decision(marks):
    original = harness.select_arm

    def first_call(*args, **kwargs):
        marks["first_decision"] = time.monotonic()
        harness.select_arm = original
        return original(*args, **kwargs)

    harness.select_arm = first_call


def _install_tracer(recorder, queries):
    for owner, attr, name in TRACED:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))

    traced_mean = recorder.wrap("imputation.conditional_mean", imputation.Imputer.conditional_mean)

    def conditional_mean(self, observed_history):
        hist = np.asarray(observed_history, dtype=float)
        queries["distinct"].add((hist.shape, hist.tobytes()))
        return traced_mean(self, observed_history)

    imputation.Imputer.conditional_mean = conditional_mean


def main(argv):
    timing_path, trace = argv[0], argv[1] == "1"
    cli_args = argv[argv.index("--") + 1 :]
    marks = {}
    recorder = queries = None
    if trace:
        recorder = SpanRecorder(clock=time.monotonic)
        queries = {"distinct": set()}
        _install_tracer(recorder, queries)
    _mark_first_decision(marks)

    status = cli.main(cli_args)
    main_end = time.monotonic()

    doc = {
        "status": status,
        "import_done": IMPORT_DONE,
        "first_decision": marks.get("first_decision"),
        "main_end": main_end,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if trace:
        spans = recorder.spans()
        doc["layers"] = layer_metrics(spans, main_end, distinct_queries=len(queries["distinct"]))
        names = sorted(set(recorder.names))
        index = {name: i for i, name in enumerate(names)}
        np.savez(
            os.path.splitext(timing_path)[0] + "_spans.npz",
            names=np.array(names),
            name=np.array([index[n] for n in recorder.names], dtype=np.int32),
            start=np.array(recorder.starts),
            end=np.array(recorder.ends),
            parent=np.array(recorder.parents, dtype=np.int64),
        )
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

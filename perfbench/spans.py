"""Span recording and the per-layer metrics derived from spans.

A span is (name, start, end, parent): `parent` is the index of the
enclosing span in the same list, or -1 at the top.  The recorder keeps
spans in parallel lists, which is cheaper per call than building a tuple;
`layer_metrics` turns a finished recording into the benchmark's per-layer
figures.
"""

import time


class SpanRecorder:
    """Records spans of one single-threaded run in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = [-1]

    def wrap(self, name, fn):
        """`fn` with each call recorded as a span called `name`."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = self.clock

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))


def self_times(spans):
    """Per-span self time: its duration minus the time its children cover.

    Spans of one call stack nest and do not overlap, so the covered part is
    the sum of the direct children's durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost_total(spans, name):
    """Summed duration of the `name` spans not nested in another `name` span."""
    total = 0.0
    for index, (span_name, start, end, parent) in enumerate(spans):
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


# Metric name -> span name, grouped by how the figure is derived.
CALLS_AND_SELF = {
    "rng.substream": "rng.substream",
    "environments.step": "environments.step",
    "environments.replay_stream_step": "environments.replay_stream_step",
    "features.phi": "features.phi",
    "features.arm_feature_matrix": "features.arm_feature_matrix",
    "imputation.expected_feature_matrix": "imputation.expected_feature_matrix",
    "imputation.conditional_mean": "imputation.conditional_mean",
    "agents.select_arm": "agents.select_arm",
    "agents.observe": "agents.observe",
    "linalg.quadratic_form_inv": "linalg.quadratic_form_inv",
    "linalg.rank_one_update": "linalg.rank_one_update",
    "harness.run_trial": "harness.run_trial",
}
SELF_ONLY = {"harness.run_replay": "harness.run_replay"}
INCLUSIVE = {
    "environments.generate_history": "environments.generate_history",
    "environments.load_replay_log": "environments.load_replay_log",
    "features.calibrate_feat_norm_bound": "features.calibrate_feat_norm_bound",
    "imputation.fit": "imputation.fit",
    "calibration.estimate_dt_band": "calibration.estimate_dt_band",
    "harness.pretrain": "harness.pretrain",
}
DECISION_SPANS = ("agents.select_arm", "agents.observe")


def layer_metrics(spans, main_end, distinct_queries):
    """Per-layer figures of one traced run, keyed by metric name.

    `main_end` is the clock reading when the command returned;
    `distinct_queries` counts the distinct inputs the conditional-mean
    wrapper saw.  A layer that does not run reports 0 for each of its figures.
    """
    own = self_times(spans)
    calls = {}
    self_s = {}
    for (name, _, _, _), seconds in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + seconds

    out = {}
    for metric, name in CALLS_AND_SELF.items():
        out[f"{metric}.calls"] = calls.get(name, 0)
        out[f"{metric}.self_s"] = self_s.get(name, 0.0)
    for metric, name in SELF_ONLY.items():
        out[f"{metric}.self_s"] = self_s.get(name, 0.0)
    for metric, name in INCLUSIVE.items():
        out[f"{metric}.s"] = _outermost_total(spans, name)

    mean_calls = calls.get("imputation.conditional_mean", 0)
    out["imputation.conditional_mean.distinct_ratio"] = (
        distinct_queries / mean_calls if mean_calls else 0.0
    )
    last_decision = max(
        (end for name, _, end, _ in spans if name in DECISION_SPANS), default=None
    )
    out["harness.write_s"] = 0.0 if last_decision is None else main_end - last_decision
    return out

"""Reproducible multi-trial experiment harness.

One trial = one exogenous context stream faced by every configured agent
(common random numbers): each agent sees the same steps and the same
shared reward noise, but only its permitted view of the context.  No
choice changes the stream, so a trial takes it as one rollout: all trials
are one lane rollout of the environment, one lane per trial, and each
view's features are built for every trial and the whole horizon at once.
Then one step-major loop, shared with replay, plays every lane group: per
step each group decides for all its lanes at once, and the UCB agents
that share a selection form make one group, whose lanes are their (agent,
trial) pairs, while every other agent plays alone.
The play keeps that shape up to the CSV writers: each agent's per-step
columns are (trials, T) blocks, one row per trial, and each per-trial
figure is a list with one entry per trial.

* pulse_ucb      expected features under the configured imputer,
* oful_observed  features with the late block W forced to 0,
* oful_full      features of the realized full context,
* oracle_best    the environment's optimal arm, injected,
* uniform_random its own choice stream.

Instantaneous regret is the noiseless mean gap
theta_star . (Phi(Y_t, A*_t) - Phi(Y_t, A_t)); the shared eta_t cancels.
When the environment exposes its conditional law the harness can also
record the S-conditional regret built from conditional arm means.

Every run writes a raw per-step CSV, an aggregate CSV, and a metadata
document that embeds the fully resolved config; rerunning `simulate` on
the metadata file reproduces the raw CSV byte for byte.  Randomness is
organized as labeled substreams of (base_seed, trial): the environment
stream never depends on which agents are present, and each agent's
tie-breaking draws are isolated.
"""

import copy
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from itertools import chain

import numpy as np
import scipy
from numpy.lib.stride_tricks import sliding_window_view

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from . import __version__
from .agents import (
    DEFAULT_SIGMA_EPS,
    AgentKind,
    AgentState,
    GammaSchedule,
    SelectionForm,
    current_gamma,
    make_agent,
    observe,
    select_arm,
)
from .calibration import (
    MIN_BAND_PAIRS,
    GaussianConditional,
    estimate_dt_band,
    gaussian_dt,
    linear_quantile,
)
from .environments import (
    LowerBoundEnv,
    ReplayStream,
    SyntheticEnv,
    ar_root_moduli,
    bump_function,
    generate_history,
    load_replay_log,
    realized_contexts,
)
from .errors import ConfigError, InputError
from .features import arm_feature_matrix  # unused: views come from phi_batch; kept for tracers
from .features import calibrate_feat_norm_bound, phi_batch
from .imputation import expected_feature_matrix  # unused: see arm_feature_matrix
from .imputation import (
    HistoricalDataset,
    ImputerKind,
    fit_kernel,
    fit_linear_ar,
    load_imputer,
    null_imputer,
    save_imputer,
)
from .rng import substream

__all__ = [
    "ExperimentConfig",
    "load_config",
    "pretrain",
    "run_trial",
    "run_trials",
    "run_experiment",
    "run_replay",
    "run_sweep",
    "MA_WINDOW",
]

MA_WINDOW = 100
SCHEMA_VERSION = 1
FEAT_NORM_DRY_RUN_STEPS = 10_000
FEAT_NORM_QUANTILE = 0.999


# -- config -------------------------------------------------------------------

# A section table lists each field once as (key, default, parse).  The
# reader hands parse(value, field) the given value, or the default when the
# key is absent, with `field` the dotted name used in errors.
_REQUIRED = object()  # default of a field that must be given


def _as_int(v, field_name, minimum=None):
    # v % 1 is nan for inf and nan, which int() cannot convert
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v % 1 != 0:
        raise ConfigError(field_name, f"must be an integer, got {v!r}")
    v = int(v)
    if minimum is not None and v < minimum:
        raise ConfigError(field_name, f"must be >= {minimum}, got {v}")
    return v


def _as_float(v, field_name, positive=False, nonnegative=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(field_name, f"must be a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an int past the float range
        raise ConfigError(field_name, f"must be finite, got {v!r:.80}") from None
    if not math.isfinite(v):
        raise ConfigError(field_name, f"must be finite, got {v!r}")
    if positive and v <= 0:
        raise ConfigError(field_name, f"must be positive, got {v}")
    if nonnegative and v < 0:
        raise ConfigError(field_name, f"must be nonnegative, got {v}")
    return v


def _int(minimum):
    return lambda v, field_name: _as_int(v, field_name, minimum)


# numpy's largest array dimension: a larger count could only fail in numpy
_MAX_COUNT = int(np.iinfo(np.intp).max)


def _count(minimum):
    """A field that sizes arrays: an integer from `minimum` to _MAX_COUNT.
    Seeds are plain `_int` fields, since SeedSequence takes any one."""

    def parse(v, field_name):
        v = _as_int(v, field_name, minimum)
        if v > _MAX_COUNT:
            raise ConfigError(field_name, f"must be <= {_MAX_COUNT}, got {v}")
        return v

    return parse


def _float(positive=False, nonnegative=False):
    return lambda v, field_name: _as_float(v, field_name, positive, nonnegative)


def _unit_interval(right):
    """A number in (0, 1) or, with right = "]", in (0, 1]."""

    def parse(v, field_name):
        v = _as_float(v, field_name)
        if not (0.0 < v < 1.0 or (right == "]" and v == 1.0)):
            raise ConfigError(field_name, f"must lie in (0, 1{right}, got {v}")
        return v

    return parse


def _optional(parse):
    return lambda v, field_name: None if v is None else parse(v, field_name)


def _choice(values):
    values = tuple(values)

    def parse(v, field_name):
        if not isinstance(v, str) or v not in values:
            raise ConfigError(field_name, f"must be one of {sorted(values)}, got {v!r}")
        return v

    return parse


def _floats(length=None):
    def parse(v, field_name):
        if not isinstance(v, (list, tuple)):
            raise ConfigError(field_name, f"must be a list of numbers, got {v!r}")
        if length is not None and len(v) != length:
            raise ConfigError(field_name, f"must have {length} entries, got {len(v)}")
        return [_as_float(x, field_name) for x in v]

    return parse


def _bool(v, field_name):
    if not isinstance(v, bool):
        raise ConfigError(field_name, f"must be true or false, got {v!r}")
    return v


def _text(v, field_name):
    return str(v)


def _path(v, field_name):
    if not isinstance(v, str):
        raise ConfigError(field_name, "must be a string path")
    return v


def _schema_version(v, field_name):
    if v != SCHEMA_VERSION:
        raise ConfigError(field_name, f"must be {SCHEMA_VERSION}, got {v!r}")
    return SCHEMA_VERSION


def _nonlinearity(v, field_name):
    return v if v == "linear" else _as_float(v, field_name)


def _arma(v, field_name):
    arma = _floats(4)(v, field_name)
    ar1, ar2 = arma[:2]
    if (ar_root_moduli(ar1, ar2) <= 1.0).any():
        raise ConfigError(
            field_name,
            f"AR part ({ar1}, {ar2}) is not stationary: "
            "1 - ar1 z - ar2 z^2 has a root on or inside the unit circle",
        )
    return arma


def _section(raw, where, table):
    """The mapping `raw` parsed against `table`, as a dict in table order.

    Fields are named `where.key` in errors.  A missing required key and a
    key the table does not list are ConfigErrors.
    """
    if not isinstance(raw, dict):
        raise ConfigError(where, "must be a mapping")
    prefix = f"{where}." if where else ""
    out = {}
    for key, default, parse in table:
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(prefix + key, "is required")
        out[key] = parse(value, prefix + key)
    for key in raw:
        if key not in out:
            raise ConfigError(f"{prefix}{key}", "is not recognized")
    return out


def _table(table):
    return lambda raw, where: _section(raw, where, table)


_ENV_KIND = ("kind", _REQUIRED, _choice(("synthetic", "lower_bound", "replay")))
_ENVIRONMENTS = {
    "synthetic": (
        _ENV_KIND,
        ("nonlinearity", "linear", _nonlinearity),
        ("arma", [0.75, -0.25, 0.65, 0.35], _arma),
        ("innovation_sd", 0.1, _float(nonnegative=True)),
        ("beta_star", [0.50, -0.14], _floats(2)),
        ("theta_star", [0.65, 1.52, -0.23, -0.23], _floats(4)),
        ("xi_sd", 0.1, _float(nonnegative=True)),
        ("eta_sd", 0.05, _float(nonnegative=True)),
    ),
    "lower_bound": (
        _ENV_KIND,
        ("d_lin", _REQUIRED, _count(1)),
        ("d_non", _REQUIRED, _count(1)),
        ("bump_beta", 1.0, _unit_interval("]")),
        ("bump_amplitude", 0.5, _float(positive=True)),
        ("theta_q_magnitude", None, _optional(_float(positive=True))),
        ("scaling_horizon", 1000, _count(1)),
        ("reward_sd", 0.1, _float(nonnegative=True)),
        ("w_noise_sd", 0.0, _float(nonnegative=True)),
    ),
    "replay": (_ENV_KIND, ("path", _REQUIRED, _text), ("k", 20, _count(1))),
}


def _environment(raw, where):
    # the kind picks the table; any other kind fails on the kind field
    kind = raw.get("kind") if isinstance(raw, dict) else None
    table = _ENVIRONMENTS.get(kind) if isinstance(kind, str) else None
    return _section(raw, where, table or (_ENV_KIND,))


_SCHEDULE = (
    ("lambda", 1.0, _float(positive=True)),
    ("delta", 0.1, _unit_interval("]")),
    ("sigma_eta", 0.0, _float(nonnegative=True)),
    ("sigma_eps", DEFAULT_SIGMA_EPS, _float(nonnegative=True)),
    ("feat_norm_bound", None, _optional(_float(positive=True))),
)
_IMPUTER = (
    ("kind", ImputerKind.ORACLE, _choice(ImputerKind.ALL)),
    ("lag", 0, _count(0)),
    ("ridge_eps", 1e-10, _float(nonnegative=True)),
    ("bandwidth", None, _optional(_float(positive=True))),
    ("beta", 1.0, _unit_interval("]")),
    ("path", None, _optional(_text)),
)
# where each step's divergence charge D_tau comes from; see _charge_block
_DT_SOURCES = ("oracle", "plug_in", "constant", "zero")
# a null name or dt_source takes its default after the table pass
_AGENT = (
    ("name", None, _optional(_text)),
    ("kind", _REQUIRED, _choice(k.value for k in AgentKind)),
    ("dt_source", None, _optional(_choice(_DT_SOURCES))),
    ("constant_dt", 0.0, _float(nonnegative=True)),
    ("selection_form", "closed_form", _choice(f.value for f in SelectionForm)),
)


def _agents(raw, where):
    if not isinstance(raw, list) or not raw:
        raise ConfigError(where, "must be a nonempty list")
    return [_section(spec, f"{where}[{i}]", _AGENT) for i, spec in enumerate(raw)]


_PRETRAIN = (
    ("n", 0, _count(0)),
    ("t0", 0, _count(0)),
    ("seed", None, _optional(_int(0))),  # null: base_seed
    ("fraction", 0.2, _unit_interval(")")),
)
# grid_points is read by `pulsebandit calibrate` only; simulate's plug-in
# band uses the estimator's default grid
_CALIBRATION = (
    ("alpha", 0.1, _unit_interval(")")),
    ("bootstrap_draws", 200, _count(10)),
    ("split_seed", 0, _int(0)),
    ("bandwidth", None, _optional(_float(positive=True))),
    ("grid_points", None, _optional(_count(9))),
)
# the top level, in to_dict order; every entry is an ExperimentConfig attribute
_CONFIG = (
    ("schema_version", _REQUIRED, _schema_version),
    ("name", "experiment", _text),
    ("base_seed", 0, _int(0)),
    ("horizon", None, _optional(_count(1))),  # null: the whole log, replay only
    ("trials", 1, _count(1)),
    ("gamma_scale", 1.0, _float(positive=True)),
    ("environment", _REQUIRED, _environment),
    ("schedule", {}, _table(_SCHEDULE)),
    ("imputer", {}, _table(_IMPUTER)),
    ("agents", _REQUIRED, _agents),
    ("pretrain", {}, _table(_PRETRAIN)),
    ("calibration", {}, _table(_CALIBRATION)),
    ("output", {}, _table((("dir", None, _optional(_path)),))),
    ("record_conditional_regret", True, _bool),
)
_FITTED_IMPUTERS = (ImputerKind.LINEAR_AR, ImputerKind.KERNEL)


def _require_band_pairs(pretrain, user):
    """Refuse, on pretrain.n, a history of fewer (S, W) pairs than the
    divergence band needs."""
    n, t0 = pretrain["n"], pretrain["t0"]
    if n * t0 < MIN_BAND_PAIRS:
        raise ConfigError(
            "pretrain.n",
            f"{user} needs pretrain.n * pretrain.t0 >= {MIN_BAND_PAIRS} historical pairs, "
            f"got {n} * {t0}",
        )


class ExperimentConfig:
    """Fully resolved experiment description.

    Its attributes are the top-level config fields, sections as dicts.
    Unknown keys are rejected so typos surface as config errors instead of
    silently applied defaults.
    """

    def __init__(self, raw):
        vars(self).update(_section(_without_retired_keys(raw), "", _CONFIG))
        env_kind = self.environment["kind"]
        replay = env_kind == "replay"
        if self.horizon is None and not replay:
            raise ConfigError("horizon", "is required")
        if self.pretrain["seed"] is None:
            self.pretrain["seed"] = self.base_seed

        # the plug-in band is estimated on the pretraining history, which
        # only a fitted imputer that is not loaded generates
        fits_on_history = (
            self.imputer["kind"] in _FITTED_IMPUTERS and self.imputer["path"] is None
        )
        names = set()
        for i, agent in enumerate(self.agents):
            where = f"agents[{i}]"
            if agent["name"] is None:
                agent["name"] = agent["kind"]
            if agent["name"] in names:
                raise ConfigError(f"{where}.name", f"duplicate agent name {agent['name']!r}")
            names.add(agent["name"])
            if agent["dt_source"] is None:
                agent["dt_source"] = "oracle" if env_kind == "synthetic" else "zero"
            if (
                agent["kind"] == AgentKind.PULSE_UCB.value
                and agent["dt_source"] == "oracle"
                and self.imputer["kind"] == ImputerKind.NULL
            ):
                # a null model puts all of W's mass on 0: sd 0, so the
                # Gaussian divergence from the true law is undefined
                raise ConfigError(
                    f"{where}.dt_source",
                    "oracle divergence is undefined for a null imputer; use zero or constant",
                )
            if env_kind == "lower_bound" and agent["dt_source"] == "plug_in":
                d_s = self.environment["d_lin"] + self.environment["d_non"]
                raise ConfigError(
                    f"{where}.dt_source",
                    "plug_in divergence needs d_S = 1; this lower_bound environment has "
                    f"d_S = d_lin + d_non = {d_s}",
                )
            if (
                env_kind == "synthetic"
                and agent["dt_source"] == "plug_in"
                and not fits_on_history
            ):
                raise ConfigError(
                    f"{where}.dt_source",
                    "plug_in divergence needs a linear_ar or kernel imputer fit on "
                    "pretraining data, not an oracle, null or loaded one",
                )
            if replay:
                # a log holds only logged rewards: no optimal arm, no
                # conditional law of W for the oracle charge, and replay
                # pretraining estimates no plug-in band
                if agent["kind"] == AgentKind.ORACLE_BEST.value:
                    raise ConfigError(f"{where}.kind", "oracle_best is undefined for replay logs")
                if agent["dt_source"] in ("oracle", "plug_in"):
                    raise ConfigError(
                        f"{where}.dt_source",
                        f"{agent['dt_source']} divergence is undefined for replay logs; "
                        "use zero or constant",
                    )
                if (
                    agent["kind"] == AgentKind.PULSE_UCB.value
                    and self.imputer["kind"] == ImputerKind.ORACLE
                ):
                    raise ConfigError(
                        "imputer.kind",
                        "a replay log has no true law of W for an oracle imputer; "
                        "pulse_ucb replay needs linear_ar, kernel or null",
                    )

        if replay and self.imputer["path"] is not None:
            raise ConfigError("imputer.path", "replay fits its imputer on the log; it loads none")
        if replay and self.imputer["lag"] != 0:
            # a log row's context is one i.i.d. draw: there are no lags to fit
            raise ConfigError("imputer.lag", f"must be 0 for replay, got {self.imputer['lag']}")

        if fits_on_history and not replay:
            t0, lag = self.pretrain["t0"], self.imputer["lag"]
            if self.pretrain["n"] < 1 or t0 < 1:
                raise ConfigError(
                    "pretrain.n", "fitted imputers need pretrain.n >= 1 and pretrain.t0 >= 1"
                )
            if self.imputer["kind"] == ImputerKind.LINEAR_AR and t0 <= lag:
                raise ConfigError(
                    "imputer.lag", f"a linear_ar fit needs lag < pretrain.t0 = {t0}, got {lag}"
                )
        if any(a["dt_source"] == "plug_in" for a in self.agents):
            _require_band_pairs(self.pretrain, "a plug_in agent's band")

    # -- views ----------------------------------------------------------------

    def to_dict(self):
        return {key: copy.deepcopy(getattr(self, key)) for key, _, _ in _CONFIG}

    def config_hash(self):
        """Identity of the experiment: where its outputs go changes neither
        its results nor its hash."""
        identity = self.to_dict()
        del identity["output"]
        canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def make_env(self):
        env = self.environment
        if env["kind"] == "synthetic":
            return SyntheticEnv(
                arma=env["arma"],
                innovation_sd=env["innovation_sd"],
                beta_star=env["beta_star"],
                theta_star=env["theta_star"],
                xi_sd=env["xi_sd"],
                eta_sd=env["eta_sd"],
                nonlinearity=env["nonlinearity"],
            )
        if env["kind"] == "lower_bound":
            d_lin, d_non = env["d_lin"], env["d_non"]
            theta_q = None
            if env["theta_q_magnitude"] is not None:
                theta_q = np.full(d_lin, env["theta_q_magnitude"])
            return LowerBoundEnv(
                d_lin=d_lin,
                d_non=d_non,
                horizon_for_scaling=env["scaling_horizon"],
                f=bump_function(env["bump_beta"], env["bump_amplitude"]),
                theta_q=theta_q,
                reward_sd=env["reward_sd"],
                w_noise_sd=env["w_noise_sd"],
            )
        raise ConfigError("environment.kind", "replay configs do not build an env")


def _without_retired_keys(raw):
    """`raw`, or a copy without the retired Monte-Carlo keys of older
    files: `imputer.analytic: true` and any `imputer.mc_samples` are
    dropped, as Phi at the conditional mean is the only path left; any
    other `analytic` value is refused."""
    imputer = raw.get("imputer") if isinstance(raw, dict) else None
    if not isinstance(imputer, dict) or not {"analytic", "mc_samples"} & imputer.keys():
        return raw
    if imputer.get("analytic", True) is not True:
        raise ConfigError(
            "imputer.analytic",
            f"Monte-Carlo features are retired; only true is accepted, got {imputer['analytic']!r}",
        )
    kept = {key: value for key, value in imputer.items() if key not in ("analytic", "mc_samples")}
    return {**raw, "imputer": kept}


def _set_dotted(raw, key, value):
    """raw[a][b]...[z] = value for the dotted key "a.b. ... .z"; a missing
    or non-mapping section on the way becomes an empty mapping."""
    *sections, last = key.split(".")
    for part in sections:
        if not isinstance(raw.get(part), dict):
            raw[part] = {}
        raw = raw[part]
    raw[last] = value


def load_config(path_or_dict, overrides=()):
    """ExperimentConfig from a JSON file path or a dict, plus overrides.

    Overrides are 'dotted.key=value' strings; values parse as JSON with a
    plain-string fallback.  A run-metadata document is accepted wherever a
    config is: its embedded config is extracted, which is what makes
    bit-exact reruns from metadata possible.
    """
    base = None
    if isinstance(path_or_dict, dict):
        raw = copy.deepcopy(path_or_dict)
    else:
        try:
            with open(path_or_dict, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("", f"cannot read config: {exc}")
        except ValueError as exc:
            # malformed JSON, or an integer past Python's digit limit
            raise ConfigError("", f"cannot parse config {path_or_dict}: {exc}")
        base = os.path.dirname(os.path.abspath(path_or_dict))
    if isinstance(raw, dict) and raw.get("kind") == "run_metadata" and "config" in raw:
        # the embedded config is resolved: its data paths are absolute
        raw, base = raw["config"], None
        if isinstance(raw, dict):
            # metadata of older versions names the retired `workers` field,
            # a trial-process count that changed no result
            raw.pop("workers", None)
    if not isinstance(raw, dict):
        raise ConfigError("", "must be a mapping")
    if base is not None:
        # relative data paths are resolved against the config file
        for section in ("environment", "imputer"):
            node = raw.get(section)
            path = node.get("path") if isinstance(node, dict) else None
            if isinstance(path, str) and not os.path.isabs(path):
                node["path"] = os.path.normpath(os.path.join(base, path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError("--set", f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        except ValueError as exc:
            # JSON Python cannot hold, such as an integer past the digit limit
            raise ConfigError(key, f"cannot parse override value: {exc}")
        _set_dotted(raw, key, parsed)
    return ExperimentConfig(raw)


# -- pretraining ----------------------------------------------------------------


def pretrain(config):
    """Fit (or load) the configured imputer and calibrate B.

    The fitted imputers learn from `generate_history`'s trajectories; B,
    unless the config sets it, is a quantile of the feature norms over the
    realized contexts of a one-lane rollout of FEAT_NORM_DRY_RUN_STEPS
    steps (the dry run), whose features are built once, by
    `calibrate_feat_norm_bound`.
    Returns a dict with the fitted imputer (None for the oracle kind, whose
    trials read the true law of W from their rollouts), the feature-norm
    bound with its dry-run diagnostics, and the plug-in divergence
    surrogate with its band's metadata, grid size and largest cross term
    when some agent asks for it.  A loaded imputer must have the
    environment's layout and the configured kind.
    """
    if config.environment["kind"] == "replay":
        return _pretrain_replay(config)

    imp_cfg = config.imputer
    dataset = imputer = None
    env = config.make_env()
    if imp_cfg["path"] is not None:
        imputer = load_imputer(imp_cfg["path"])
        if (imputer.d_s, imputer.d_w) != (env.d_s, env.d_w):
            raise ConfigError(
                "imputer.path",
                f"{imp_cfg['path']} imputes for (d_S, d_W) = ({imputer.d_s}, {imputer.d_w}), "
                f"but the environment has ({env.d_s}, {env.d_w})",
            )
        if imputer.kind != imp_cfg["kind"]:
            raise ConfigError(
                "imputer.path",
                f"{imp_cfg['path']} holds a {imputer.kind!r} imputer, "
                f"but imputer.kind is {imp_cfg['kind']!r}",
            )
    elif imp_cfg["kind"] != ImputerKind.ORACLE:
        if imp_cfg["kind"] in _FITTED_IMPUTERS:
            dataset = generate_history(
                config.make_env,
                config.pretrain["n"],
                config.pretrain["t0"],
                config.pretrain["seed"],
            )
        imputer = _build_imputer(imp_cfg, env.d_s, env.d_w, dataset, lag=imp_cfg["lag"])

    # feature-norm bound B: config value, or the dry-run empirical quantile
    if config.schedule["feat_norm_bound"] is not None:
        bound = config.schedule["feat_norm_bound"]
        diagnostics = {"source": "config"}
    else:
        rng = substream(config.pretrain["seed"], "feat-norm")
        contexts = realized_contexts(env, [rng], 1, FEAT_NORM_DRY_RUN_STEPS)
        bound, diagnostics = calibrate_feat_norm_bound(
            env.feature_map, contexts[:, 0], FEAT_NORM_QUANTILE
        )
        diagnostics["source"] = "dry_run"

    plug_in_dt = plug_in_band = None
    if any(a["dt_source"] == "plug_in" for a in config.agents):
        # ExperimentConfig saw to it that the history exists
        band = _dt_band(config, dataset)
        plug_in_dt = band.dhat_sq
        plug_in_band = {
            **band.metadata,
            "grid_size": int(band.grid.shape[0]),
            "max_cross_term": float(band.cross_term.max()),
        }

    return {
        "imputer": imputer,
        "feat_norm_bound": bound,
        "feat_norm_diagnostics": diagnostics,
        "plug_in_dt": plug_in_dt,
        "plug_in_band": plug_in_band,
    }


def _build_imputer(imp_cfg, d_s, d_w, dataset=None, lag=0):
    """The configured null imputer over (d_s, d_w), or linear-AR or kernel
    imputer fit on `dataset`; `lag` is the linear-AR lag order."""
    if imp_cfg["kind"] == ImputerKind.NULL:
        return null_imputer(d_s, d_w)
    if imp_cfg["kind"] == ImputerKind.LINEAR_AR:
        return fit_linear_ar(dataset, lag=lag, ridge_eps=imp_cfg["ridge_eps"])
    return fit_kernel(dataset, bandwidth=imp_cfg["bandwidth"], beta=imp_cfg["beta"])


def _dt_band(config, dataset, query_points=None):
    """The configured divergence band on the history `dataset`, at the
    estimator's default grid or at `query_points`, auditing the configured
    imputer refit on the band's target half."""
    calibration = config.calibration
    return estimate_dt_band(
        dataset,
        query_points=query_points,
        alpha=calibration["alpha"],
        split_seed=calibration["split_seed"],
        bootstrap_draws=calibration["bootstrap_draws"],
        bandwidth=calibration["bandwidth"],
        # band data are i.i.d. pairs; a linear-AR target audits the lag-0 projection
        fit_target=lambda half: _build_imputer(config.imputer, half.d_s, half.d_w, half),
    )


def _pretrain_replay(config):
    try:
        log = load_replay_log(config.environment["path"])
    except InputError as exc:
        if not isinstance(exc.__cause__, (OSError, UnicodeDecodeError)):
            raise  # a readable log with bad rows
        raise ConfigError("environment.path", str(exc)) from exc
    n0 = int(round(config.pretrain["fraction"] * log.n_rows))
    needs_fit = config.imputer["kind"] in _FITTED_IMPUTERS
    uses_full = needs_fit or any(a["kind"] == "oful_full" for a in config.agents)
    if uses_full and log.full is None:
        raise ConfigError(
            "environment.path", "log has no full-feature columns y_* but they are needed"
        )
    imputer = dataset = None
    if needs_fit:
        if n0 < 2:
            raise ConfigError("pretrain.fraction", "too few pretraining rows")
        if log.d_full <= log.d_s:
            raise ConfigError(
                "environment.path", "full features must extend the observed features"
            )
        dataset = HistoricalDataset(
            s=log.observed[:n0][:, None, :], w=log.full[:n0, log.d_s :][:, None, :]
        )
    if needs_fit or (config.imputer["kind"] == ImputerKind.NULL and log.full is not None):
        imputer = _build_imputer(config.imputer, log.d_s, log.d_full - log.d_s, dataset)
    bound = config.schedule["feat_norm_bound"]
    return {
        "imputer": imputer,
        "log": log,
        "n_pretrain_rows": n0,
        "feat_norm_bound": bound,
        "feat_norm_diagnostics": {"source": "per_agent_view" if bound is None else "config"},
        "plug_in_dt": None,
        "plug_in_band": None,
    }


# -- the decision loop ----------------------------------------------------------


@dataclass(frozen=True)
class _View:
    """The features one agent decides on: in simulate every trial's (T,
    n_arms, dim) block, stacked as (T, trials, n_arms, dim); in replay one
    row per log row, shared by all trials.
    """

    bound: float
    features: np.ndarray


@dataclass(frozen=True)
class _Seat:
    """One lane group in the loop: the configured agents `names`, played as
    one lockstep agent of len(names) x trials lanes, member-major (lane
    m * trials + i plays trial i of member m).  The UCB agents of one
    selection form share a seat; every other agent has its own.  `views`
    holds each member's view, zero-padded on the right to the widest
    member's dim (None for the kinds without one), `rng` each lane's choice
    stream (uniform_random only) and, for UCB members, `charges` the (T,
    lanes) divergence charges, the D_tau that each step adds to a lane's
    divergence sum.  `lanes` is the seat's slice of the loop's lanes, which
    run seat after seat."""

    agent: AgentState
    names: tuple
    views: tuple
    rng: object
    charges: np.ndarray
    lanes: slice


def _require_finite(block, what, nonnegative=False):
    """Check a whole block before the first decision: the per-step kernels
    that read its slices do not scan them again."""
    if not np.isfinite(block).all():
        raise InputError(f"{what} contain non-finite entries")
    if nonnegative and not (np.asarray(block) >= 0).all():
        raise InputError(f"{what} contain negative entries")


def _charge_block(spec, shape, plug_in_dt=None, oracle=None):
    """The (T, trials) divergence charges D_tau of the UCB agent of config
    `spec`, one per step and trial, from its dt_source: 0 for zero, its
    constant_dt for constant, `plug_in_dt` for plug_in, and the block that
    `oracle()` returns for oracle.  The block is checked here, once, before
    the first decision, naming the agent."""
    source = spec["dt_source"]
    if source == "oracle":
        block = oracle()
    else:
        value = {"zero": 0.0, "constant": spec["constant_dt"], "plug_in": plug_in_dt}[source]
        block = np.full(shape, value, dtype=float)  # a missing plug_in_dt is nan
    _require_finite(block, f"agent {spec['name']!r} divergence charges", nonnegative=True)
    return block


def _seat_agents(config, trials, arm_count, view_for, charges_for):
    """Seat every configured agent, each to play the listed trials in
    lockstep: one seat per lane group (see `_Seat`), in the config order of
    each group's first member.

    `view_for(kind)` returns an agent's view, or None for the kinds that
    decide without features (oracle_best, uniform_random), and
    `charges_for(spec)` a UCB agent's block of divergence charges (see
    `_charge_block`).  A group's agent has its first member's kind, as the
    UCB kinds differ only in their views, and one feature-norm bound and
    one dim per member, which its radius reads per lane.  Its ridge stack
    has the widest member's dim; a narrower member's view is zero-padded on
    the right here, once (see `agents`: the padded coordinates stay
    decoupled, so the member plays as at its own dim).
    """
    groups = {}
    for spec in config.agents:
        view = view_for(AgentKind(spec["kind"]))
        key = spec["name"] if view is None else SelectionForm(spec["selection_form"])
        groups.setdefault(key, []).append((spec, view))
    seats, start = [], 0
    for members in groups.values():
        specs = [spec for spec, _ in members]
        names = tuple(spec["name"] for spec in specs)
        views = dim = schedule = charges = None
        if members[0][1] is not None:
            dims = tuple(view.features.shape[-1] for _, view in members)
            dim = max(dims)
            views = tuple(_padded(view, dim) for _, view in members)
            schedule = GammaSchedule(
                lam=config.schedule["lambda"],
                sigma_eta=config.schedule["sigma_eta"],
                delta=config.schedule["delta"],
                feat_norm_bound=tuple(view.bound for view in views),
                dim=dims,
                sigma_eps=config.schedule["sigma_eps"],
                scale=config.gamma_scale,
            )
            charges = np.concatenate([charges_for(spec) for spec in specs], axis=1)
        agent = make_agent(
            name="+".join(names),
            kind=specs[0]["kind"],
            arm_count=arm_count,
            dim=dim,
            schedule=schedule,
            selection_form=SelectionForm(specs[0]["selection_form"]),
            trials=len(names) * len(trials),
        )
        rngs = None
        if agent.kind is AgentKind.UNIFORM_RANDOM:
            rngs = [substream(config.base_seed, "trial", i, "agent", names[0]) for i in trials]
        lanes, start = slice(start, start + agent.trials), start + agent.trials
        seats.append(_Seat(agent, names, views, rngs, charges, lanes))
    return seats


def _padded(view, width):
    """`view` with its features zero-padded on the right to `width`."""
    pad = width - view.features.shape[-1]
    if not pad:
        return view
    features = np.pad(view.features, [(0, 0)] * (view.features.ndim - 1) + [(0, pad)])
    return _View(view.bound, features)


def _play_trials(config, seats, horizon, steps, columns):
    """The decision loop of simulate and replay alike: every seat over all
    its lanes, step-major.

    At each step every seat chooses an arm for each of its lanes through
    `select_arm`, one `pay` call pays every lane, and every UCB seat folds
    its lanes' rewards in through `observe(arms=...)`, which reuses the
    Sigma^{-1} x its selection formed.  `steps` yields, per decision, each
    seat's (lanes, n_arms, dim) features (None for the kinds without a
    view), the optimal arm per trial (None when unknown) and `pay(arms)`,
    which takes every lane's chosen arm and returns their rewards, in lane
    order.  Step i's row of a UCB seat's charge block goes to its observe.

    `columns(arms)` gives the extra per-step columns of one agent's (trials,
    T) block of chosen arms.  Returns each agent's (trials, T) columns,
    running ones included, under "agents", and each agent's divergence sum
    and radius after its last observation, one per trial (None for the
    kinds without a confidence schedule), under "final_dt_cumsum" and
    "final_gamma", each in config order.
    """
    arms = np.empty((seats[-1].lanes.stop, horizon), dtype=int)
    rewards = np.empty(arms.shape)
    learners = [seat for seat in seats if seat.views is not None]
    for i, (feats, optimal_arm, pay) in zip(range(horizon), steps):
        chosen = arms[:, i]
        for seat, seat_feats in zip(seats, feats):
            chosen[seat.lanes] = select_arm(seat.agent, seat_feats, optimal_arm, seat.rng)
        reward = rewards[:, i] = pay(chosen)
        for seat in learners:
            lanes = seat.lanes
            observe(seat.agent, None, reward[lanes], dt_value=seat.charges[i], arms=chosen[lanes])

    agents, final_dt_cumsum, final_gamma = {}, {}, {}
    for seat in seats:
        agent, lanes = seat.agent, seat.lanes
        dt_cumsum = gamma = [None] * agent.trials
        if agent.is_ucb:
            dt_cumsum, gamma = agent.schedule.dt_cumsum.tolist(), current_gamma(agent).tolist()
        trials = agent.trials // len(seat.names)
        for m, name in enumerate(seat.names):
            own = slice(m * trials, (m + 1) * trials)
            block = slice(lanes.start + own.start, lanes.start + own.stop)
            cols = {"arm": arms[block], "reward": rewards[block], **columns(arms[block])}
            agents[name] = _add_running_columns(cols)
            final_dt_cumsum[name], final_gamma[name] = dt_cumsum[own], gamma[own]
    order = [spec["name"] for spec in config.agents]
    return {
        "agents": {name: agents[name] for name in order},
        "final_dt_cumsum": {name: final_dt_cumsum[name] for name in order},
        "final_gamma": {name: final_gamma[name] for name in order},
    }


def _add_running_columns(cols):
    """Derive an agent's running (trials, T) columns from its per-step ones,
    in place, along each trial's row: cumulative regret (both flavors) and
    the moving-average reward where regret is known, the cumulative
    click-through rate where it is not."""
    reward = cols["reward"]
    horizon = reward.shape[1]
    if "inst_regret" in cols:
        cols["cum_regret"] = np.cumsum(cols["inst_regret"], axis=1)
        cols["cond_cum"] = np.cumsum(cols["cond_inst"], axis=1)
        # rows before the first full window average the prefix; each mean
        # sums its own window, as a slice mean would, not a running sum
        window = min(MA_WINDOW, horizon)
        ma = np.empty_like(reward)
        for i in range(window - 1):
            ma[:, i] = reward[:, : i + 1].mean(axis=1)
        ma[:, window - 1 :] = sliding_window_view(reward, window, axis=1).mean(axis=2)
        cols["ma_reward"] = ma
    else:
        cols["cum_ctr"] = np.cumsum(reward, axis=1) / np.arange(1, horizon + 1)
    return cols


# -- simulate -----------------------------------------------------------------------


def _oracle_charges(rollout, means, sd):
    """(T, trials) divergence between the true conditional law of W at each
    step of each lane of the stacked `rollout` and an agent's model of it,
    N(means (T, trials, d_W), sd (d_W,)), the Gaussian closed form summed
    over the coordinates of W; zero for an agent that sees W itself (sd
    None).  Every entry is its own step's charge."""
    truth = rollout.cond_mean_w
    truth_sd = float(rollout.cond_sd_w)
    # a degenerate truth (sd 0) is at divergence 0 from an exact model only
    if sd is None or (truth_sd == 0.0 and np.array_equal(means, truth)):
        return np.zeros(truth.shape[:-1])
    if truth_sd == 0.0:
        raise ConfigError(
            "agents.dt_source",
            "oracle divergence is undefined for a degenerate conditional law",
        )
    # one closed form per coordinate over all steps, summed in coordinate order
    charges = np.zeros(truth.shape[:-1])
    for j, sd_hat in enumerate(sd.tolist()):
        charges += gaussian_dt(
            GaussianConditional(truth[..., j], truth_sd),
            GaussianConditional(means[..., j], sd_hat),
        )
    return charges


def run_trials(config, trial_indices, fitted_imputer, plug_in_dt, feat_norm_bound):
    """All configured agents over the given trials, played in lockstep.

    The trials are one lane rollout of the environment, lane j on trial
    trial_indices[j]'s own substream, read as (T, trials, ...) blocks.
    Each configured view kind's features are Phi at [observed | its W
    block], one phi_batch call over all lanes for all agents of the kind:
    the realized W for oful_full, zeros for oful_observed and, for
    pulse_ucb, the true conditional means under the oracle imputer, else
    the fitted model's, each lane's from its own lag history.  The oracle
    divergence charges come from the same W blocks; a plug_in agent's
    charge is `plug_in_dt` at every step.  Then `_play_trials` plays every
    lane group (see `_Seat`) over all the trials, step-major, so the loop's
    Python overhead is paid once per (group, step), not per (trial, agent,
    step), and one fancy index pays every lane of a step.
    Returns `_play_trials`'s result, whose lanes follow the order given,
    plus each trial's kernel-imputer fallback count ("kernel_fallbacks")
    and largest |potential reward| ("max_abs_reward"), one per lane.  Lane
    j holds exactly what trial_indices[j] gives when run alone.
    """
    trial_indices = list(trial_indices)
    env = config.make_env()
    rngs = [substream(config.base_seed, "trial", i, "env") for i in trial_indices]
    rollout = env.rollout_lanes(rngs, config.horizon)
    horizon, trials = rollout.optimal_arm.shape
    lanes = np.arange(trials)
    potential = rollout.potential_rewards
    _require_finite(potential, "potential rewards")

    # each configured view kind's (W block (T, trials, d_W), sd (d_W,)) of
    # its model of the law of W; sd None for the view that sees W itself
    kinds = {AgentKind(spec["kind"]) for spec in config.agents}
    truth_sd = np.full(env.d_w, float(rollout.cond_sd_w))
    w_blocks = {}
    fallbacks = np.zeros((horizon, trials), dtype=bool)
    if AgentKind.OFUL_FULL in kinds:
        w_blocks[AgentKind.OFUL_FULL] = (rollout.full_context[..., env.d_s :], None)
    if AgentKind.OFUL_OBSERVED in kinds:
        # the observed view zeroes W and models it as N(0, true sd)
        w_blocks[AgentKind.OFUL_OBSERVED] = (np.zeros_like(rollout.cond_mean_w), truth_sd)
    if AgentKind.PULSE_UCB in kinds:
        if config.imputer["kind"] == ImputerKind.ORACLE:
            w_blocks[AgentKind.PULSE_UCB] = (rollout.cond_mean_w, truth_sd)
        else:
            means, fallbacks = fitted_imputer.conditional_means(rollout.observed)
            w_blocks[AgentKind.PULSE_UCB] = (means, fitted_imputer.conditional_sd())
    features = {}
    for kind, (w, _) in w_blocks.items():
        contexts = np.concatenate([rollout.observed, w], axis=2)
        block = phi_batch(env.feature_map, contexts.reshape(horizon * trials, -1))
        features[kind] = block.reshape((horizon, trials) + block.shape[1:])
        _require_finite(features[kind], f"{kind.value} view features")

    def view_for(kind):
        return _View(feat_norm_bound, features[kind]) if kind in features else None

    def charges_for(spec):
        oracle = partial(_oracle_charges, rollout, *w_blocks[AgentKind(spec["kind"])])
        return _charge_block(spec, (horizon, trials), plug_in_dt, oracle)

    seats = _seat_agents(config, trial_indices, env.feature_map.arm_count, view_for, charges_for)
    blocks = [
        None if seat.views is None else np.concatenate([v.features for v in seat.views], axis=1)
        for seat in seats
    ]
    # each step pays every lane's chosen arm at its trial's step
    trial = np.tile(lanes, sum(len(seat.names) for seat in seats))
    steps = (
        ([None if b is None else b[i] for b in blocks], optimal, lambda a, p=pay: p[trial, a])
        for i, (optimal, pay) in enumerate(zip(rollout.optimal_arm, potential))
    )

    best_cond_means = rollout.cond_arm_means.max(axis=2)

    def regret_columns(arms):
        chosen = arms.T[:, :, None]

        def gap(best, means):
            # C-ordered (trials, T) rows, so that the aggregate's mean over
            # trials sums them in the same order as ever
            return (best - np.take_along_axis(means, chosen, 2)[:, :, 0]).T.copy()

        return {
            "inst_regret": gap(rollout.optimal_mean, rollout.arm_means),
            "cond_inst": gap(best_cond_means, rollout.cond_arm_means),
        }

    results = _play_trials(config, seats, horizon, steps, regret_columns)
    results["max_abs_reward"] = np.abs(potential).max(axis=(0, 2)).tolist()
    results["kernel_fallbacks"] = fallbacks.sum(axis=0).tolist()
    return results


def run_trial(config, trial_index, fitted_imputer, plug_in_dt, feat_norm_bound):
    """All configured agents over one exogenous context stream: the
    one-trial case of run_trials, in the same layout with one lane."""
    return run_trials(config, [trial_index], fitted_imputer, plug_in_dt, feat_norm_bound)


# -- outputs ----------------------------------------------------------------------

# (CSV header, per-agent column) of each per-decision output
_RAW_COLUMNS = (
    ("arm", "arm"),
    ("reward", "reward"),
    ("inst_regret", "inst_regret"),
    ("cum_regret", "cum_regret"),
    ("ma_reward_100", "ma_reward"),
)
_CONDITIONAL_COLUMNS = (("cond_inst_regret", "cond_inst"), ("cond_cum_regret", "cond_cum"))
_REPLAY_COLUMNS = (("choice", "arm"), ("reward", "reward"), ("cum_ctr", "cum_ctr"))


def _fmt(v):
    return repr(float(v))


def _cells(values):
    fmt = str if values.dtype.kind in "iu" else repr
    return [fmt(v) for v in values.tolist()]


def _write_rows(path, agents, columns):
    """One CSV row per (trial, t, agent) holding the given columns of each
    agent's (trials, T) blocks in `agents`.

    Integers print as such and floats in shortest round-trip form.  Each
    trial's rows go out in one write.
    """
    trials, horizon = next(iter(agents.values()))["arm"].shape
    # the ",t,agent," of each row of a trial, in row order
    heads = [f",{t},{name}," for t in range(1, horizon + 1) for name in agents]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["trial", "t", "agent"] + [h for h, _ in columns]) + "\n")
        for lane in range(trials):
            # each agent's lines in turn, so that one agent's cells live at a time
            lines = [
                [",".join(row) for row in zip(*(_cells(cols[key][lane]) for _, key in columns))]
                for cols in agents.values()
            ]
            trial = str(lane)
            # step after step, each agent's line
            rows = zip(heads, chain.from_iterable(zip(*lines)))
            fh.write("".join([trial + head + line + "\n" for head, line in rows]))


def _se(values):
    if values.shape[0] < 2:
        return np.zeros(values.shape[1:])
    return values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])


def _write_aggregate_csv(path, agents, keys):
    """Per (agent, t) mean and standard error over the trial axis of each
    (trials, T) column.  Returns each agent's final (mean, se) of the first
    column.
    """
    finals = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("agent,t," + ",".join(f"mean_{key},se_{key}" for key in keys) + "\n")
        for name, cols in agents.items():
            stats = []
            for key in keys:
                stats += [cols[key].mean(axis=0).tolist(), _se(cols[key]).tolist()]
            rows = enumerate(zip(*stats), start=1)
            fh.writelines(f"{name},{t}," + ",".join(map(repr, row)) + "\n" for t, row in rows)
            finals[name] = (stats[0][-1], stats[1][-1])
    return finals


def _write_json(path, doc):
    """Write `doc` to `path` as indented JSON with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _write_metadata(out_dir, config, overrides_echo, facts, timings, stage_rss):
    """metadata.json: the resolved config plus the run's facts.

    The config hash covers the resolved config (see config_hash);
    timestamps, stage wall times (`timings`, seconds), the process's peak
    resident memory at the end of each stage (`stage_rss`) and so far (MiB;
    None where `resource` is missing), library versions and other
    environment-dependent run facts stay outside it.
    """
    metadata = {
        "schema_version": SCHEMA_VERSION,
        "kind": "run_metadata",
        "config": config.to_dict(),
        "run": {
            "config_sha256": config.config_hash(),
            "package_version": __version__,
            **facts,
            "overrides": list(overrides_echo),
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "timings_s": timings,
            "stage_peak_rss_mib": stage_rss,
            "peak_rss_mib": _peak_rss_mib(),
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        },
    }
    path = os.path.join(out_dir, "metadata.json")
    _write_json(path, metadata)
    return path


def _peak_rss_mib():
    if resource is None:
        return None
    # ru_maxrss counts KiB on Linux and bytes on macOS
    scale = 2**20 if sys.platform == "darwin" else 2**10
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def _save_imputer(imputer, out_dir):
    """Write the run's imputer to out_dir/imputer.json; the path, or None
    when there is nothing to save."""
    if imputer is None:
        return None
    path = os.path.join(out_dir, "imputer.json")
    save_imputer(imputer, path)
    return path


# -- the run driver -----------------------------------------------------------------


@dataclass(frozen=True)
class _FileSpec:
    """A command's outputs for the run driver: the raw CSV's name and
    (header, column) pairs, the aggregate CSV's name and columns (the first
    is the headline) and the command's result entries."""

    raw: tuple
    aggregate: tuple
    extra: dict


def _run(config, out_dir, overrides_echo, play):
    """Play one command and write its raw and aggregate CSVs and metadata.

    `play(config, out_dir, lap)` calls lap("pretrain") and lap("trials") as
    those stages end, then writes its own files; it returns `_play_trials`'s
    result, its metadata facts and its `_FileSpec`.  Each lap records the
    stage's wall time and the process's peak resident memory at its end.
    The result adds each agent's final headline (mean, se) under "finals".
    """
    out_dir = out_dir or config.output["dir"]
    if out_dir is None:
        raise ConfigError("output.dir", "no output directory configured")
    os.makedirs(out_dir, exist_ok=True)
    timings, stage_rss, start = {}, {}, time.perf_counter()

    def lap(stage):
        nonlocal start
        now = time.perf_counter()
        timings[stage], start = now - start, now
        stage_rss[stage] = _peak_rss_mib()

    played, facts, files = play(config, out_dir, lap)
    agents = played["agents"]
    (raw_name, raw_columns), (agg_name, agg_keys) = files.raw, files.aggregate
    raw_path = os.path.join(out_dir, raw_name)
    _write_rows(raw_path, agents, raw_columns)
    agg_path = os.path.join(out_dir, agg_name)
    finals = _write_aggregate_csv(agg_path, agents, agg_keys)
    headline = agg_keys[0]
    ends = {name: cols[headline][:, -1].tolist() for name, cols in agents.items()}
    summary_keys = (f"mean_final_{headline}", f"se_final_{headline}")
    summary = {name: dict(zip(summary_keys, final)) for name, final in finals.items()}
    lap("write")
    meta_path = _write_metadata(
        out_dir,
        config,
        overrides_echo,
        {
            **facts,
            "final_dt_cumsum": played["final_dt_cumsum"],
            "final_gamma": played["final_gamma"],
            f"final_{headline}": ends,
            "summary": summary,
        },
        timings,
        stage_rss,
    )
    return {
        "raw_path": raw_path,
        "aggregate_path": agg_path,
        "metadata_path": meta_path,
        "summary": summary,
        "finals": finals,
        f"final_{headline}": ends,
        **files.extra,
    }


# -- experiment -------------------------------------------------------------------


def run_experiment(config, out_dir=None, overrides_echo=()):
    """Pretrain, run all trials, and write raw/aggregate/metadata files.

    Returns a summary dict with output paths, final mean regrets and each
    agent's final cumulative regret per trial, in trial order; a replay
    config runs `run_replay`'s protocol.
    """
    play = _play_replay if config.environment["kind"] == "replay" else _play_simulate
    return _run(config, out_dir, overrides_echo, play)


def _play_simulate(config, out_dir, lap):
    pre = pretrain(config)
    lap("pretrain")
    bound = pre["feat_norm_bound"]
    imputer = pre["imputer"]
    played = run_trials(config, range(config.trials), imputer, pre["plug_in_dt"], bound)
    lap("trials")

    cond_path = None
    if config.record_conditional_regret:
        cond_path = os.path.join(out_dir, "conditional_regret.csv")
        _write_rows(cond_path, played["agents"], _CONDITIONAL_COLUMNS)

    imputer_path = _save_imputer(imputer, out_dir)
    imputer_sha = None
    if imputer_path is not None:
        with open(imputer_path, "rb") as fh:
            imputer_sha = hashlib.sha256(fh.read()).hexdigest()

    max_abs_reward = max(played["max_abs_reward"])
    facts = {
        "regret_flavor": "realized_mean_gap",
        "gamma_scale": config.gamma_scale,
        "feat_norm_bound": bound,
        "feat_norm_diagnostics": pre["feat_norm_diagnostics"],
        "plug_in_dt": pre["plug_in_dt"],
        "plug_in_band": pre["plug_in_band"],
        "realized_max_abs_reward": max_abs_reward,
        "imputer": {
            "kind": config.imputer["kind"],
            "saved_to": "imputer.json" if imputer_path else None,
            "sha256": imputer_sha,
            "kernel_fallbacks": None if imputer is None else sum(played["kernel_fallbacks"]),
        },
    }
    return played, facts, _FileSpec(
        raw=("raw_records.csv", _RAW_COLUMNS),
        aggregate=("aggregate.csv", ("cum_regret", "ma_reward")),
        extra={"conditional_path": cond_path, "max_abs_reward": max_abs_reward},
    )


# -- replay -----------------------------------------------------------------------


def _replay_views(config, observed, full, imputer):
    """The feature view of each configured UCB kind over the online rows,
    whose observed and full features are `observed` and `full`.

    A view's features are rows of one table built once per log: the full
    features, the observed ones, or the observed ones followed by the
    imputed conditional mean of W.  Its feature-norm bound is
    `schedule.feat_norm_bound` when the config sets one, else a quantile of
    the table's row norms (no rng involved).
    """
    bound = config.schedule["feat_norm_bound"]
    kinds = {AgentKind(spec["kind"]) for spec in config.agents}
    tables = {}
    if AgentKind.OFUL_FULL in kinds:
        tables[AgentKind.OFUL_FULL] = full
    if AgentKind.OFUL_OBSERVED in kinds:
        tables[AgentKind.OFUL_OBSERVED] = observed
    if AgentKind.PULSE_UCB in kinds:
        if imputer is None:
            raise ConfigError("imputer.kind", "pulse_ucb replay needs a fitted imputer")
        mus, _ = imputer.conditional_means(observed)
        tables[AgentKind.PULSE_UCB] = np.concatenate([observed, mus], axis=1)
    for kind, table in tables.items():
        _require_finite(table, f"{kind.value} replay features")
    return {
        kind: _View(
            bound=(
                float(linear_quantile(np.linalg.norm(table, axis=1), FEAT_NORM_QUANTILE))
                if bound is None
                else bound
            ),
            features=table,
        )
        for kind, table in tables.items()
    }


def _replay_steps(config, seats, rewards, k, horizon):
    """What `_play_trials` takes per decision of a replay: k candidates per
    lane from one lockstep stream of `horizon` steps over the online rows,
    whose logged rewards are `rewards`, each (agent, trial) lane drawing
    from its own generator, and the stream's reveal, which pays every
    lane's chosen arm.  A lane's features are rows of its member's view."""
    stream = ReplayStream(
        rewards,
        [
            substream(config.base_seed, "trial", i, "replay", name)
            for seat in seats
            for name in seat.names
            for i in range(config.trials)
        ],
        k,
        horizon,
    )

    def rows_of(seat):
        # the members' views one after another, and where each lane's begins
        table = np.concatenate([view.features for view in seat.views])
        first = np.repeat(np.arange(len(seat.names)) * len(rewards), config.trials)[:, None]
        return lambda candidates: table.take(first + candidates[seat.lanes], axis=0)

    rows = [None if seat.views is None else rows_of(seat) for seat in seats]
    while True:
        candidates, reveal = stream.step()
        yield [None if of is None else of(candidates) for of in rows], None, reveal


def run_replay(config, out_dir=None, overrides_echo=()):
    """Offline replay: per step, k logged candidates, the chosen row's
    reward revealed, cumulative click-through rate tracked per agent.

    Every lane group (see `_Seat`) replays the online portion on one
    candidate stream, which serves all their lanes in lockstep, each (agent,
    trial) lane drawing from its own generator, so an agent's rows do not
    depend on which other agents or trials run.  A config of another
    environment kind is a ConfigError.
    """
    if config.environment["kind"] != "replay":
        raise ConfigError(
            "environment.kind", f"replay needs a replay config, got {config.environment['kind']!r}"
        )
    return _run(config, out_dir, overrides_echo, _play_replay)


def _play_replay(config, out_dir, lap):
    pre = _pretrain_replay(config)
    log = pre["log"]
    n0 = pre["n_pretrain_rows"]
    k = config.environment["k"]

    n_online = log.n_rows - n0
    if n_online < k:
        raise ConfigError("environment.k", "online portion smaller than k")
    # each step consumes one row, so this many steps never exhaust the log
    max_steps = n_online - k + 1
    horizon = max_steps if config.horizon is None else min(config.horizon, max_steps)
    full = None if log.full is None else log.full[n0:]
    views = _replay_views(config, log.observed[n0:], full, pre["imputer"])
    rewards = log.rewards[n0:]  # binary, as a ReplayLog holds them: no check needed
    lap("pretrain")

    charges_for = partial(_charge_block, shape=(horizon, config.trials))
    seats = _seat_agents(config, list(range(config.trials)), k, views.get, charges_for)
    steps = _replay_steps(config, seats, rewards, k, horizon)
    played = _play_trials(config, seats, horizon, steps, lambda arms: {})
    lap("trials")

    facts = {
        "protocol": "k_candidate_replay",
        "k": k,
        "n_pretrain_rows": n0,
        "n_online_rows": n_online,
        "horizon": horizon,
        "feat_norm_bounds": {
            spec["name"]: views[AgentKind(spec["kind"])].bound
            for spec in config.agents
            if AgentKind(spec["kind"]) in views
        },
        "feat_norm_diagnostics": pre["feat_norm_diagnostics"],
    }
    return played, facts, _FileSpec(
        raw=("raw_replay.csv", _REPLAY_COLUMNS),
        aggregate=("aggregate_replay.csv", ("cum_ctr",)),
        extra={},
    )


# -- sweeps -----------------------------------------------------------------------


def run_sweep(config, param_key, values, out_dir, overrides_echo=()):
    """Expand a list-valued parameter into child experiments sharing the
    base seed, then tabulate each child's final headline mean and standard
    error, ordered by the given values: the cumulative regret of simulate
    children, the cumulative CTR of replay ones."""
    if not values:
        raise ConfigError(param_key, "sweep needs at least one value")
    headline = "cum_ctr" if config.environment["kind"] == "replay" else "cum_regret"
    mean_key, se_key = f"mean_final_{headline}", f"se_final_{headline}"
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    child_summaries = []
    for value in values:
        child_raw = config.to_dict()
        _set_dotted(child_raw, param_key, value)
        leaf = param_key.rsplit(".", 1)[-1]
        child_raw["name"] = f"{config.name}__{leaf}={value}"
        child_dir = os.path.join(out_dir, f"{leaf}={value}")
        child_raw["output"] = {"dir": child_dir}
        child = ExperimentConfig(child_raw)
        result = run_experiment(child, out_dir=child_dir, overrides_echo=overrides_echo)
        child_summaries.append((value, result))
        for agent_name, (mean, se) in result["finals"].items():
            rows.append(
                {"param": param_key, "value": value, "agent": agent_name, mean_key: mean, se_key: se}
            )

    table_path = os.path.join(out_dir, "sweep_summary.csv")
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"param,value,agent,{mean_key},{se_key}\n")
        for row in rows:
            param, value, agent, mean, se = row.values()
            fh.write(f"{param},{value},{agent},{_fmt(mean)},{_fmt(se)}\n")
    return {"table_path": table_path, "rows": rows, "children": child_summaries}

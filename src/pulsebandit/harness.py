"""Reproducible multi-trial experiment harness.

One trial = one exogenous context stream faced by every configured agent
simultaneously (common random numbers): each agent sees the same steps and
the same shared reward noise, but only its permitted view of the context.

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
Monte-Carlo and tie-breaking draws are isolated.
"""

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .agents import (
    AgentKind,
    AgentState,
    DtSource,
    GammaSchedule,
    SelectionForm,
    make_agent,
    observe,
    select_arm,
)
from .calibration import GaussianConditional, estimate_dt_band, gaussian_dt
from .environments import LowerBoundEnv, ReplayStream, SyntheticEnv, bump_function, generate_history, load_replay_log
from .errors import ConfigError
from .features import arm_feature_matrix, calibrate_feat_norm_bound
from .imputation import (
    ImputerKind,
    expected_feature_matrix,
    fit_kernel,
    fit_linear_ar,
    load_imputer,
    null_imputer,
    oracle_imputer,
    save_imputer,
)
from .rng import substream

__all__ = [
    "ExperimentConfig",
    "load_config",
    "pretrain",
    "run_trial",
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


def _req(d, key, where):
    if key not in d:
        raise ConfigError(f"{where}{key}", "is required")
    return d[key]


def _as_int(v, field_name, minimum=None):
    if isinstance(v, bool) or not isinstance(v, (int, float)) or int(v) != v:
        raise ConfigError(field_name, f"must be an integer, got {v!r}")
    v = int(v)
    if minimum is not None and v < minimum:
        raise ConfigError(field_name, f"must be >= {minimum}, got {v}")
    return v


def _as_float(v, field_name, positive=False, nonnegative=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(field_name, f"must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(field_name, f"must be finite, got {v!r}")
    if positive and v <= 0:
        raise ConfigError(field_name, f"must be positive, got {v}")
    if nonnegative and v < 0:
        raise ConfigError(field_name, f"must be nonnegative, got {v}")
    return v


_AGENT_KINDS = {k.value for k in AgentKind}
_DT_SOURCES = {s.value for s in DtSource}
_SELECTION_FORMS = {f.value for f in SelectionForm}
_IMPUTER_KINDS = set(ImputerKind.ALL) - {ImputerKind.FULL_OBSERVER}
_ENV_KINDS = {"synthetic", "lower_bound", "replay"}


class ExperimentConfig:
    """Fully resolved experiment description.

    Built from a plain dict (see load_config); unknown keys are rejected so
    typos surface as config errors instead of silently applied defaults.
    """

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("", "config must be a mapping")
        raw = copy.deepcopy(raw)
        # metadata documents embed the config they were produced from
        if raw.get("kind") == "run_metadata" and "config" in raw:
            raw = raw["config"]

        known = {
            "schema_version",
            "name",
            "base_seed",
            "horizon",
            "trials",
            "gamma_scale",
            "environment",
            "schedule",
            "imputer",
            "agents",
            "pretrain",
            "calibration",
            "output",
            "record_conditional_regret",
            "workers",
        }
        for key in raw:
            if key not in known:
                raise ConfigError(key, "is not a recognized config entry")

        version = _req(raw, "schema_version", "")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                "schema_version", f"must be {SCHEMA_VERSION}, got {version!r}"
            )
        self.name = str(raw.get("name", "experiment"))
        self.base_seed = _as_int(raw.get("base_seed", 0), "base_seed", minimum=0)
        self.trials = _as_int(raw.get("trials", 1), "trials", minimum=1)
        self.gamma_scale = _as_float(
            raw.get("gamma_scale", 1.0), "gamma_scale", positive=True
        )
        self.workers = _as_int(raw.get("workers", 1), "workers", minimum=1)
        self.record_conditional_regret = bool(
            raw.get("record_conditional_regret", True)
        )

        env = _req(raw, "environment", "")
        if not isinstance(env, dict):
            raise ConfigError("environment", "must be a mapping")
        kind = _req(env, "kind", "environment.")
        if kind not in _ENV_KINDS:
            raise ConfigError(
                "environment.kind", f"must be one of {sorted(_ENV_KINDS)}, got {kind!r}"
            )
        self.environment = self._resolve_environment(env)

        if kind == "replay":
            self.horizon = (
                None
                if raw.get("horizon") is None
                else _as_int(raw["horizon"], "horizon", minimum=1)
            )
        else:
            self.horizon = _as_int(_req(raw, "horizon", ""), "horizon", minimum=1)

        self.schedule = self._resolve_schedule(raw.get("schedule", {}))
        self.imputer = self._resolve_imputer(raw.get("imputer", {}))
        self.agents = self._resolve_agents(_req(raw, "agents", ""))
        self.pretrain = self._resolve_pretrain(raw.get("pretrain", {}))
        self.calibration = self._resolve_calibration(raw.get("calibration", {}))

        out = raw.get("output", {})
        if not isinstance(out, dict):
            raise ConfigError("output", "must be a mapping")
        self.output_dir = out.get("dir")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError("output.dir", "must be a string path")

    # -- section resolvers --------------------------------------------------

    @staticmethod
    def _resolve_environment(env):
        kind = env["kind"]
        known = {
            "synthetic": {
                "kind",
                "nonlinearity",
                "arma",
                "innovation_sd",
                "beta_star",
                "theta_star",
                "xi_sd",
                "eta_sd",
            },
            "lower_bound": {
                "kind",
                "d_lin",
                "d_non",
                "bump_beta",
                "bump_amplitude",
                "theta_q_magnitude",
                "reward_sd",
                "w_noise_sd",
                "scaling_horizon",
            },
            "replay": {"kind", "path", "k"},
        }[kind]
        for key in env:
            if key not in known:
                raise ConfigError(f"environment.{key}", "is not recognized")
        resolved = {"kind": kind}
        if kind == "synthetic":
            nl = env.get("nonlinearity", "linear")
            if nl != "linear":
                nl = _as_float(nl, "environment.nonlinearity")
            resolved["nonlinearity"] = nl
            resolved["arma"] = [
                _as_float(v, "environment.arma")
                for v in env.get("arma", [0.75, -0.25, 0.65, 0.35])
            ]
            if len(resolved["arma"]) != 4:
                raise ConfigError("environment.arma", "must have four entries")
            resolved["innovation_sd"] = _as_float(
                env.get("innovation_sd", 0.1), "environment.innovation_sd", nonnegative=True
            )
            resolved["beta_star"] = [
                _as_float(v, "environment.beta_star")
                for v in env.get("beta_star", [0.50, -0.14])
            ]
            resolved["theta_star"] = [
                _as_float(v, "environment.theta_star")
                for v in env.get("theta_star", [0.65, 1.52, -0.23, -0.23])
            ]
            resolved["xi_sd"] = _as_float(
                env.get("xi_sd", 0.1), "environment.xi_sd", nonnegative=True
            )
            resolved["eta_sd"] = _as_float(
                env.get("eta_sd", 0.05), "environment.eta_sd", nonnegative=True
            )
        elif kind == "lower_bound":
            resolved["d_lin"] = _as_int(_req(env, "d_lin", "environment."), "environment.d_lin", 1)
            resolved["d_non"] = _as_int(_req(env, "d_non", "environment."), "environment.d_non", 1)
            resolved["bump_beta"] = _as_float(
                env.get("bump_beta", 1.0), "environment.bump_beta", positive=True
            )
            resolved["bump_amplitude"] = _as_float(
                env.get("bump_amplitude", 0.5), "environment.bump_amplitude", positive=True
            )
            resolved["theta_q_magnitude"] = (
                None
                if env.get("theta_q_magnitude") is None
                else _as_float(
                    env["theta_q_magnitude"], "environment.theta_q_magnitude", positive=True
                )
            )
            resolved["scaling_horizon"] = _as_int(
                env.get("scaling_horizon", 1000), "environment.scaling_horizon", 1
            )
            resolved["reward_sd"] = _as_float(
                env.get("reward_sd", 0.1), "environment.reward_sd", nonnegative=True
            )
            resolved["w_noise_sd"] = _as_float(
                env.get("w_noise_sd", 0.0), "environment.w_noise_sd", nonnegative=True
            )
        else:
            resolved["path"] = str(_req(env, "path", "environment."))
            resolved["k"] = _as_int(env.get("k", 20), "environment.k", minimum=1)
        return resolved

    @staticmethod
    def _resolve_schedule(sched):
        if not isinstance(sched, dict):
            raise ConfigError("schedule", "must be a mapping")
        known = {"lambda", "delta", "sigma_eta", "sigma_eps", "feat_norm_bound"}
        for key in sched:
            if key not in known:
                raise ConfigError(f"schedule.{key}", "is not recognized")
        out = {
            "lambda": _as_float(sched.get("lambda", 1.0), "schedule.lambda", positive=True),
            "delta": _as_float(sched.get("delta", 0.1), "schedule.delta"),
            "sigma_eta": _as_float(
                sched.get("sigma_eta", 0.0), "schedule.sigma_eta", nonnegative=True
            ),
            "sigma_eps": _as_float(
                sched.get("sigma_eps", 2.0), "schedule.sigma_eps", nonnegative=True
            ),
            "feat_norm_bound": None
            if sched.get("feat_norm_bound") is None
            else _as_float(
                sched["feat_norm_bound"], "schedule.feat_norm_bound", positive=True
            ),
        }
        if not 0.0 < out["delta"] <= 1.0:
            raise ConfigError("schedule.delta", f"must lie in (0, 1], got {out['delta']}")
        return out

    @staticmethod
    def _resolve_imputer(imp):
        if not isinstance(imp, dict):
            raise ConfigError("imputer", "must be a mapping")
        known = {
            "kind",
            "lag",
            "ridge_eps",
            "bandwidth",
            "beta",
            "mc_samples",
            "analytic",
            "path",
        }
        for key in imp:
            if key not in known:
                raise ConfigError(f"imputer.{key}", "is not recognized")
        kind = imp.get("kind", "oracle")
        if kind not in _IMPUTER_KINDS:
            raise ConfigError(
                "imputer.kind", f"must be one of {sorted(_IMPUTER_KINDS)}, got {kind!r}"
            )
        return {
            "kind": kind,
            "lag": _as_int(imp.get("lag", 0), "imputer.lag", minimum=0),
            "ridge_eps": _as_float(
                imp.get("ridge_eps", 1e-10), "imputer.ridge_eps", nonnegative=True
            ),
            "bandwidth": None
            if imp.get("bandwidth") is None
            else _as_float(imp["bandwidth"], "imputer.bandwidth", positive=True),
            "beta": _as_float(imp.get("beta", 1.0), "imputer.beta", positive=True),
            "mc_samples": _as_int(imp.get("mc_samples", 64), "imputer.mc_samples", 1),
            "analytic": bool(imp.get("analytic", True)),
            "path": None if imp.get("path") is None else str(imp["path"]),
        }

    def _resolve_agents(self, agents):
        if not isinstance(agents, list) or not agents:
            raise ConfigError("agents", "must be a nonempty list")
        default_dt = "oracle" if self.environment["kind"] == "synthetic" else "zero"
        resolved = []
        names = set()
        for i, spec in enumerate(agents):
            where = f"agents[{i}]"
            if not isinstance(spec, dict):
                raise ConfigError(where, "must be a mapping")
            known = {"name", "kind", "dt_source", "constant_dt", "selection_form"}
            for key in spec:
                if key not in known:
                    raise ConfigError(f"{where}.{key}", "is not recognized")
            kind = _req(spec, "kind", where + ".")
            if kind not in _AGENT_KINDS:
                raise ConfigError(
                    f"{where}.kind",
                    f"must be one of {sorted(_AGENT_KINDS)}, got {kind!r}",
                )
            name = str(spec.get("name", kind))
            if name in names:
                raise ConfigError(f"{where}.name", f"duplicate agent name {name!r}")
            names.add(name)
            dt_source = spec.get("dt_source", default_dt)
            if dt_source not in _DT_SOURCES:
                raise ConfigError(
                    f"{where}.dt_source",
                    f"must be one of {sorted(_DT_SOURCES)}, got {dt_source!r}",
                )
            if self.environment["kind"] == "replay":
                # a log holds only logged rewards: no optimal arm, no
                # conditional law of W for the oracle charge, and replay
                # pretraining estimates no plug-in band
                if AgentKind(kind) is AgentKind.ORACLE_BEST:
                    raise ConfigError(f"{where}.kind", "oracle_best is undefined for replay logs")
                if DtSource(dt_source) in (DtSource.ORACLE, DtSource.PLUG_IN):
                    raise ConfigError(
                        f"{where}.dt_source",
                        f"{dt_source} divergence is undefined for replay logs; "
                        "use zero or constant",
                    )
            form = spec.get("selection_form", "closed_form")
            if form not in _SELECTION_FORMS:
                raise ConfigError(
                    f"{where}.selection_form",
                    f"must be one of {sorted(_SELECTION_FORMS)}, got {form!r}",
                )
            resolved.append(
                {
                    "name": name,
                    "kind": kind,
                    "dt_source": dt_source,
                    "constant_dt": _as_float(
                        spec.get("constant_dt", 0.0),
                        f"{where}.constant_dt",
                        nonnegative=True,
                    ),
                    "selection_form": form,
                }
            )
        return resolved

    def _resolve_pretrain(self, pre):
        if not isinstance(pre, dict):
            raise ConfigError("pretrain", "must be a mapping")
        known = {"n", "t0", "seed", "fraction"}
        for key in pre:
            if key not in known:
                raise ConfigError(f"pretrain.{key}", "is not recognized")
        out = {
            "n": _as_int(pre.get("n", 0), "pretrain.n", minimum=0),
            "t0": _as_int(pre.get("t0", 0), "pretrain.t0", minimum=0),
            "seed": _as_int(pre.get("seed", self.base_seed), "pretrain.seed", minimum=0),
            "fraction": _as_float(pre.get("fraction", 0.2), "pretrain.fraction"),
        }
        if not 0.0 < out["fraction"] < 1.0:
            raise ConfigError(
                "pretrain.fraction", f"must lie in (0, 1), got {out['fraction']}"
            )
        needs_fit = self.imputer["kind"] in (ImputerKind.LINEAR_AR, ImputerKind.KERNEL)
        if (
            needs_fit
            and self.environment["kind"] != "replay"
            and self.imputer["path"] is None
            and (out["n"] < 1 or out["t0"] < 1)
        ):
            raise ConfigError(
                "pretrain.n", "fitted imputers need pretrain.n >= 1 and pretrain.t0 >= 1"
            )
        return out

    @staticmethod
    def _resolve_calibration(cal):
        if not isinstance(cal, dict):
            raise ConfigError("calibration", "must be a mapping")
        known = {"alpha", "bootstrap_draws", "split_seed", "bandwidth", "grid_points"}
        for key in cal:
            if key not in known:
                raise ConfigError(f"calibration.{key}", "is not recognized")
        alpha = _as_float(cal.get("alpha", 0.1), "calibration.alpha")
        if not 0.0 < alpha < 1.0:
            raise ConfigError("calibration.alpha", f"must lie in (0, 1), got {alpha}")
        return {
            "alpha": alpha,
            "bootstrap_draws": _as_int(
                cal.get("bootstrap_draws", 200), "calibration.bootstrap_draws", 10
            ),
            "split_seed": _as_int(cal.get("split_seed", 0), "calibration.split_seed", 0),
            "bandwidth": None
            if cal.get("bandwidth") is None
            else _as_float(cal["bandwidth"], "calibration.bandwidth", positive=True),
            "grid_points": None
            if cal.get("grid_points") is None
            else _as_int(cal["grid_points"], "calibration.grid_points", 9),
        }

    # -- views ----------------------------------------------------------------

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "base_seed": self.base_seed,
            "horizon": self.horizon,
            "trials": self.trials,
            "gamma_scale": self.gamma_scale,
            "environment": copy.deepcopy(self.environment),
            "schedule": copy.deepcopy(self.schedule),
            "imputer": copy.deepcopy(self.imputer),
            "agents": copy.deepcopy(self.agents),
            "pretrain": copy.deepcopy(self.pretrain),
            "calibration": copy.deepcopy(self.calibration),
            "output": {"dir": self.output_dir},
            "record_conditional_regret": self.record_conditional_regret,
            "workers": self.workers,
        }

    def config_hash(self):
        """Identity of the experiment: where its outputs go and how many
        processes compute them change neither its results nor its hash."""
        identity = self.to_dict()
        del identity["output"], identity["workers"]
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


def load_config(path_or_dict, overrides=()):
    """ExperimentConfig from a JSON file path or a dict, plus overrides.

    Overrides are 'dotted.key=value' strings; values parse as JSON with a
    plain-string fallback.  A run-metadata document is accepted wherever a
    config is: its embedded config is extracted, which is what makes
    bit-exact reruns from metadata possible.
    """
    if isinstance(path_or_dict, dict):
        raw = copy.deepcopy(path_or_dict)
    else:
        try:
            with open(path_or_dict, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("", f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"config is not valid JSON: {exc}")
        if raw.get("kind") == "run_metadata" and "config" in raw:
            raw = raw["config"]
        else:
            # relative data paths are resolved against the config file
            base = os.path.dirname(os.path.abspath(path_or_dict))

            def _resolve(section, key):
                node = raw.get(section)
                if (
                    isinstance(node, dict)
                    and isinstance(node.get(key), str)
                    and not os.path.isabs(node[key])
                ):
                    node[key] = os.path.normpath(os.path.join(base, node[key]))

            _resolve("environment", "path")
            _resolve("imputer", "path")
    for item in overrides:
        if "=" not in item:
            raise ConfigError("--set", f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = parsed
    return ExperimentConfig(raw)


# -- pretraining ----------------------------------------------------------------


def pretrain(config):
    """Fit (or load, or wire) the configured imputer and calibrate B.

    Returns a dict with the fitted imputer (None for oracle kind, which is
    wired per trial), the historical dataset (None when not needed), the
    feature-norm bound with its dry-run diagnostics, and the plug-in
    divergence surrogate when some agent asks for it.
    """
    imp_cfg = config.imputer
    env_kind = config.environment["kind"]
    dataset = None
    imputer = None

    if env_kind == "replay":
        return _pretrain_replay(config)

    probe = config.make_env()
    if imp_cfg["path"] is not None:
        imputer = load_imputer(imp_cfg["path"])
    elif imp_cfg["kind"] == ImputerKind.NULL:
        imputer = null_imputer(probe.d_s, probe.d_w, mc_samples=imp_cfg["mc_samples"])
    elif imp_cfg["kind"] in (ImputerKind.LINEAR_AR, ImputerKind.KERNEL):
        dataset = generate_history(
            config.make_env,
            config.pretrain["n"],
            config.pretrain["t0"],
            config.pretrain["seed"],
        )
        if imp_cfg["kind"] == ImputerKind.LINEAR_AR:
            imputer = fit_linear_ar(
                dataset,
                lag=imp_cfg["lag"],
                ridge_eps=imp_cfg["ridge_eps"],
                mc_samples=imp_cfg["mc_samples"],
            )
        else:
            imputer = fit_kernel(
                dataset,
                bandwidth=imp_cfg["bandwidth"],
                beta=imp_cfg["beta"],
                mc_samples=imp_cfg["mc_samples"],
            )
        imputer.analytic = imp_cfg["analytic"]

    # feature-norm bound B: config value, or the dry-run empirical quantile
    if config.schedule["feat_norm_bound"] is not None:
        bound = config.schedule["feat_norm_bound"]
        diagnostics = {"source": "config"}
    else:
        env = config.make_env()
        rng = substream(config.pretrain["seed"], "feat-norm")
        env.reset(rng)

        def step_fn():
            step = env.step(rng)
            return step.full_context, step.observed

        bound, diagnostics = calibrate_feat_norm_bound(
            env.feature_map,
            step_fn,
            n_steps=FEAT_NORM_DRY_RUN_STEPS,
            quantile=FEAT_NORM_QUANTILE,
        )
        diagnostics["source"] = "dry_run"

    plug_in_dt = None
    if any(a["dt_source"] == "plug_in" for a in config.agents):
        if dataset is None:
            raise ConfigError(
                "agents.dt_source",
                "plug_in divergence needs a fitted imputer with pretraining data",
            )
        band = estimate_dt_band(
            dataset,
            alpha=config.calibration["alpha"],
            split_seed=config.calibration["split_seed"],
            bootstrap_draws=config.calibration["bootstrap_draws"],
            bandwidth=config.calibration["bandwidth"],
            fit_target=_band_target_fitter(config),
        )
        plug_in_dt = band.dhat_sq

    return {
        "imputer": imputer,
        "dataset": dataset,
        "feat_norm_bound": bound,
        "feat_norm_diagnostics": diagnostics,
        "plug_in_dt": plug_in_dt,
    }


def _band_target_fitter(config):
    imp_cfg = config.imputer

    def fit(dataset_half):
        if imp_cfg["kind"] == ImputerKind.LINEAR_AR:
            # band data are i.i.d. pairs; audit the lag-0 projection
            return fit_linear_ar(dataset_half, lag=0, ridge_eps=imp_cfg["ridge_eps"])
        return fit_kernel(
            dataset_half, bandwidth=imp_cfg["bandwidth"], beta=imp_cfg["beta"]
        )

    return fit


def _pretrain_replay(config):
    log = load_replay_log(config.environment["path"])
    n0 = int(round(config.pretrain["fraction"] * log.n_rows))
    needs_fit = config.imputer["kind"] in (ImputerKind.LINEAR_AR, ImputerKind.KERNEL)
    uses_full = needs_fit or any(a["kind"] == "oful_full" for a in config.agents)
    if uses_full and log.full is None:
        raise ConfigError(
            "environment.path", "log has no full-feature columns y_* but they are needed"
        )
    imputer = None
    if needs_fit:
        if n0 < 2:
            raise ConfigError("pretrain.fraction", "too few pretraining rows")
        d_s = log.d_s
        d_w = log.d_full - d_s
        if d_w < 1:
            raise ConfigError(
                "environment.path", "full features must extend the observed features"
            )
        from .imputation import HistoricalDataset

        dataset = HistoricalDataset(
            s=log.observed[:n0][:, None, :], w=log.full[:n0, d_s:][:, None, :]
        )
        if config.imputer["kind"] == ImputerKind.LINEAR_AR:
            imputer = fit_linear_ar(
                dataset,
                lag=0,
                ridge_eps=config.imputer["ridge_eps"],
                mc_samples=config.imputer["mc_samples"],
            )
        else:
            imputer = fit_kernel(
                dataset,
                bandwidth=config.imputer["bandwidth"],
                beta=config.imputer["beta"],
                mc_samples=config.imputer["mc_samples"],
            )
        imputer.analytic = config.imputer["analytic"]
    elif config.imputer["kind"] == ImputerKind.NULL and log.full is not None:
        imputer = null_imputer(log.d_s, log.d_full - log.d_s)
    return {
        "imputer": imputer,
        "log": log,
        "n_pretrain_rows": n0,
        "feat_norm_bound": None,
        "feat_norm_diagnostics": {"source": "per_agent_view"},
        "plug_in_dt": None,
    }


# -- the decision loop ----------------------------------------------------------


@dataclass(frozen=True)
class _View:
    """The features one agent decides on.

    `features(ctx)` is the (n_arms, dim) feature matrix of a step's
    context and `oracle_dt(ctx)` the divergence between the true
    conditional law of W there and the agent's model of it (simulate only:
    replay logs expose no such law).
    """

    dim: int
    bound: float
    features: object
    imputer: object = None
    oracle_dt: object = None


@dataclass(frozen=True)
class _Seat:
    """One configured agent in the loop: its state, view, choice stream, and
    the per-step divergence `charge(ctx)` that its observe receives."""

    agent: AgentState
    view: _View
    rng: object
    charge: object


def _seat_agents(config, trial_index, arm_count, view_for, plug_in_dt):
    """Build every configured agent, in config order, with its view.

    `view_for(kind, name)` returns the agent's view, or None for the kinds
    that decide without features (oracle_best, uniform_random).
    """
    seats = []
    for spec in config.agents:
        name = spec["name"]
        kind = AgentKind(spec["kind"])
        view = view_for(kind, name)
        schedule = charge = None
        if view is not None:
            dt_source = DtSource(spec["dt_source"])
            schedule = GammaSchedule(
                lam=config.schedule["lambda"],
                sigma_eta=config.schedule["sigma_eta"],
                delta=config.schedule["delta"],
                feat_norm_bound=view.bound,
                dim=view.dim,
                dt_source=dt_source,
                constant_dt=spec["constant_dt"],
                sigma_eps=config.schedule["sigma_eps"],
                scale=config.gamma_scale,
            )
            if dt_source is DtSource.ORACLE:
                charge = view.oracle_dt
            elif dt_source is DtSource.PLUG_IN:
                charge = lambda ctx: plug_in_dt
            else:  # ZERO ignores the value, CONSTANT adds its own
                charge = lambda ctx: None
        agent = make_agent(
            name=name,
            kind=kind,
            arm_count=arm_count,
            dim=None if view is None else view.dim,
            schedule=schedule,
            imputer=None if view is None else view.imputer,
            selection_form=SelectionForm(spec["selection_form"]),
        )
        rng = substream(config.base_seed, "trial", trial_index, "agent", name)
        seats.append(_Seat(agent, view, rng, charge))
    return seats


def _decide(seats, horizon, contexts):
    """The decision loop of simulate and replay, step-major.

    `contexts(i)` gives, for each seat in order, the context of step i that
    its view reads, the optimal arm (None when unknown) and `pay(arm)`,
    which returns the chosen arm's reward.  Simulate hands every seat the
    same environment step; replay hands each seat its own k candidates.
    Returns (arms, rewards), one row per seat.
    """
    arms = np.empty((len(seats), horizon), dtype=int)
    rewards = np.empty((len(seats), horizon))
    for i in range(horizon):
        for j, (seat, (ctx, optimal_arm, pay)) in enumerate(zip(seats, contexts(i))):
            feats = None if seat.view is None else seat.view.features(ctx)
            arm = select_arm(seat.agent, feats, optimal_arm=optimal_arm, rng=seat.rng)
            reward = pay(arm)
            if seat.view is not None:
                observe(seat.agent, feats[arm], reward, dt_value=seat.charge(ctx))
            arms[j, i] = arm
            rewards[j, i] = reward
    return arms, rewards


def _add_running_columns(cols):
    """Derive an agent's running columns from its per-step ones, in place:
    cumulative regret (both flavors) and the moving-average reward where
    regret is known, the cumulative click-through rate where it is not."""
    reward = cols["reward"]
    if "inst_regret" in cols:
        cols["cum_regret"] = np.cumsum(cols["inst_regret"])
        cols["cond_cum"] = np.cumsum(cols["cond_inst"])
        cols["ma_reward"] = np.array(
            [reward[max(0, i + 1 - MA_WINDOW) : i + 1].mean() for i in range(len(reward))]
        )
    else:
        cols["cum_ctr"] = np.cumsum(reward) / np.arange(1, len(reward) + 1)
    return cols


# -- simulate -----------------------------------------------------------------------


def _dt_value(step, imputer, hist_window):
    """Per-step divergence between the true conditional law of W and the
    agent's model of it, Gaussian closed form.  An agent without an imputer
    sees the observed features only and models W as N(0, true sd)."""
    if step.cond_mean_w is None or step.cond_sd_w is None:
        raise ConfigError(
            "agents.dt_source", "oracle divergence needs an environment conditional law"
        )
    truth_sd = float(step.cond_sd_w)
    truth_mean = np.asarray(step.cond_mean_w, dtype=float)
    if imputer is None:
        model_mean = np.zeros_like(truth_mean)
        model_sd = np.full(truth_mean.shape, truth_sd)
    else:
        model_mean = np.asarray(imputer.conditional_mean(hist_window), dtype=float)
        model_sd = np.asarray(imputer.conditional_sd(), dtype=float)
    if truth_sd == 0.0:
        if np.array_equal(model_mean, truth_mean):
            return 0.0
        raise ConfigError(
            "agents.dt_source",
            "oracle divergence is undefined for a degenerate conditional law",
        )
    total = 0.0
    for k in range(truth_mean.shape[0]):
        total += gaussian_dt(
            GaussianConditional(float(truth_mean[k]), truth_sd),
            GaussianConditional(float(model_mean[k]), float(model_sd[k])),
        )
    return total


def run_trial(config, trial_index, fitted_imputer, plug_in_dt, feat_norm_bound):
    """All configured agents over one exogenous context stream.

    Returns {agent_name: arrays} plus trial-level diagnostics.  The
    environment stream is a pure function of (base_seed, trial_index); each
    agent draws only from its own labeled substreams.
    """
    env = config.make_env()
    rng_env = substream(config.base_seed, "trial", trial_index, "env")
    env.reset(rng_env)
    fmap = env.feature_map
    horizon = config.horizon
    fallbacks_before = 0 if fitted_imputer is None else fitted_imputer.fallback_count

    if config.imputer["kind"] == ImputerKind.ORACLE:
        imputer = oracle_imputer(env, mc_samples=config.imputer["mc_samples"])
        imputer.analytic = config.imputer["analytic"]
    else:
        imputer = fitted_imputer
    lagged = imputer is not None and imputer.kind == ImputerKind.LINEAR_AR
    window = imputer.params["lag"] + 1 if lagged else 1
    zeros_w = np.zeros(env.d_w)

    # a step context is (environment step, observed history window)
    full_view = _View(
        dim=fmap.output_dim,
        bound=feat_norm_bound,
        features=lambda ctx: arm_feature_matrix(fmap, ctx[0].full_context, ctx[0].observed),
        oracle_dt=lambda ctx: 0.0,  # the agent sees W itself
    )
    observed_view = _View(
        dim=fmap.output_dim,
        bound=feat_norm_bound,
        features=lambda ctx: arm_feature_matrix(
            fmap, fmap.assemble_context(ctx[0].observed, zeros_w), ctx[0].observed
        ),
        oracle_dt=lambda ctx: _dt_value(ctx[0], None, None),
    )

    def view_for(kind, name):
        if kind is AgentKind.OFUL_FULL:
            return full_view
        if kind is AgentKind.OFUL_OBSERVED:
            return observed_view
        if kind is not AgentKind.PULSE_UCB:
            return None
        mc_rng = substream(config.base_seed, "trial", trial_index, "mc", name)
        return _View(
            dim=fmap.output_dim,
            bound=feat_norm_bound,
            features=lambda ctx: expected_feature_matrix(imputer, fmap, ctx[1], rng=mc_rng),
            imputer=imputer,
            oracle_dt=lambda ctx: _dt_value(ctx[0], imputer, ctx[1]),
        )

    seats = _seat_agents(config, trial_index, fmap.arm_count, view_for, plug_in_dt)
    history = np.empty((horizon, env.d_s))
    steps = []

    def contexts(i):
        step = env.step(rng_env)
        history[i] = step.observed
        steps.append(step)
        ctx = (step, history[max(0, i + 1 - window) : i + 1])

        def pay(arm):
            return float(step.potential_rewards[arm])

        return [(ctx, step.optimal_arm, pay)] * len(seats)

    arms, rewards = _decide(seats, horizon, contexts)

    rows = np.arange(horizon)
    arm_means = np.stack([s.arm_means for s in steps])
    optimal_means = np.array([s.optimal_mean for s in steps])
    has_cond = all(s.cond_arm_means is not None for s in steps)
    if has_cond:
        cond_means = np.stack([s.cond_arm_means for s in steps])
    out = {}
    for j, seat in enumerate(seats):
        cols = {
            "arm": arms[j],
            "reward": rewards[j],
            "inst_regret": optimal_means - arm_means[rows, arms[j]],
            "cond_inst": (
                cond_means.max(axis=1) - cond_means[rows, arms[j]]
                if has_cond
                else np.full(horizon, np.nan)
            ),
        }
        out[seat.agent.name] = _add_running_columns(cols)

    return {
        "agents": out,
        "names": list(out),
        "has_conditional": has_cond,
        "max_abs_reward": float(np.abs(np.stack([s.potential_rewards for s in steps])).max()),
        "final_dt_cumsum": {
            seat.agent.name: (seat.agent.schedule.dt_cumsum if seat.agent.schedule else None)
            for seat in seats
        },
        "kernel_fallbacks": (
            0 if fitted_imputer is None else fitted_imputer.fallback_count - fallbacks_before
        ),
    }


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


def _write_rows(path, results, columns):
    """One CSV row per (trial, t, agent) holding the given columns.

    Integers print as such and floats in shortest round-trip form.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["trial", "t", "agent"] + [h for h, _ in columns]) + "\n")
        for trial_index in sorted(results):
            res = results[trial_index]
            lines = {
                name: [
                    ",".join(cells)
                    for cells in zip(*(_cells(res["agents"][name][key]) for _, key in columns))
                ]
                for name in res["names"]
            }
            for i in range(len(lines[res["names"][0]])):
                for name in res["names"]:
                    fh.write(f"{trial_index},{i + 1},{name},{lines[name][i]}\n")


def _se(values):
    values = np.asarray(values)
    if values.shape[0] < 2:
        return np.zeros(values.shape[1:])
    return values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])


def _write_aggregate_csv(path, results, keys):
    """Per (agent, t) mean and standard error over trials of each column.

    Trials enter in index order, so the aggregate is invariant to the
    scheduling order in which trials were computed.  Returns each agent's
    final {column: (mean, se)}.
    """
    trials = sorted(results)
    finals = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("agent,t," + ",".join(f"mean_{key},se_{key}" for key in keys) + "\n")
        for name in results[trials[0]]["names"]:
            stats = []
            for key in keys:
                values = np.stack([results[tr]["agents"][name][key] for tr in trials])
                stats += [values.mean(axis=0), _se(values)]
            for i in range(len(stats[0])):
                fh.write(f"{name},{i + 1}," + ",".join(_fmt(s[i]) for s in stats) + "\n")
            finals[name] = {
                key: (float(stats[2 * j][-1]), float(stats[2 * j + 1][-1]))
                for j, key in enumerate(keys)
            }
    return finals


def _write_metadata(out_dir, config, overrides_echo, facts):
    """metadata.json: the resolved config plus the run's facts.

    The config hash covers the resolved config (see config_hash);
    timestamps and environment-dependent run facts stay outside it.
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
        },
    }
    path = os.path.join(out_dir, "metadata.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=1)
        fh.write("\n")
    return path


def _output_dir(config, out_dir):
    out_dir = out_dir or config.output_dir
    if out_dir is None:
        raise ConfigError("output.dir", "no output directory configured")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


# -- experiment -------------------------------------------------------------------


def _trial_task(args):
    config_dict, trial_index, imputer, plug_in_dt, bound = args
    config = ExperimentConfig(config_dict)
    return trial_index, run_trial(config, trial_index, imputer, plug_in_dt, bound)


def run_experiment(config, out_dir=None, overrides_echo=()):
    """Pretrain, run all trials, and write raw/aggregate/metadata files.

    Returns a summary dict with output paths and final mean regrets.
    """
    if config.environment["kind"] == "replay":
        return run_replay(config, out_dir=out_dir, overrides_echo=overrides_echo)
    out_dir = _output_dir(config, out_dir)

    pre = pretrain(config)
    bound = pre["feat_norm_bound"]
    imputer = pre["imputer"]
    pretrain_fallbacks = None if imputer is None else imputer.fallback_count

    results = {}
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        tasks = [
            (config.to_dict(), tr, imputer, pre["plug_in_dt"], bound)
            for tr in range(config.trials)
        ]
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for trial_index, res in pool.map(_trial_task, tasks):
                results[trial_index] = res
    else:
        for tr in range(config.trials):
            results[tr] = run_trial(config, tr, imputer, pre["plug_in_dt"], bound)

    raw_path = os.path.join(out_dir, "raw_records.csv")
    agg_path = os.path.join(out_dir, "aggregate.csv")
    _write_rows(raw_path, results, _RAW_COLUMNS)
    finals = _write_aggregate_csv(agg_path, results, ("cum_regret", "ma_reward"))
    summary = {
        name: {
            "mean_final_cum_regret": final["cum_regret"][0],
            "se_final_cum_regret": final["cum_regret"][1],
        }
        for name, final in finals.items()
    }

    cond_path = None
    if config.record_conditional_regret and all(
        results[tr]["has_conditional"] for tr in results
    ):
        cond_path = os.path.join(out_dir, "conditional_regret.csv")
        _write_rows(cond_path, results, _CONDITIONAL_COLUMNS)

    imputer_path = None
    imputer_sha = None
    if imputer is not None and imputer.kind in (
        ImputerKind.LINEAR_AR,
        ImputerKind.KERNEL,
        ImputerKind.NULL,
    ):
        imputer_path = os.path.join(out_dir, "imputer.json")
        save_imputer(imputer, imputer_path)
        with open(imputer_path, "rb") as fh:
            imputer_sha = hashlib.sha256(fh.read()).hexdigest()

    max_abs_reward = max(results[tr]["max_abs_reward"] for tr in results)
    meta_path = _write_metadata(
        out_dir,
        config,
        overrides_echo,
        {
            "regret_flavor": "realized_mean_gap",
            "gamma_scale": config.gamma_scale,
            "feat_norm_bound": bound,
            "feat_norm_diagnostics": pre["feat_norm_diagnostics"],
            "plug_in_dt": pre["plug_in_dt"],
            "realized_max_abs_reward": max_abs_reward,
            "imputer": {
                "kind": config.imputer["kind"],
                "saved_to": "imputer.json" if imputer_path else None,
                "sha256": imputer_sha,
                # pretrain's queries plus each trial's own, whichever
                # process ran the trial
                "kernel_fallbacks": (
                    None
                    if imputer is None
                    else pretrain_fallbacks
                    + sum(results[tr]["kernel_fallbacks"] for tr in results)
                ),
            },
            "final_dt_cumsum_trial0": results[0]["final_dt_cumsum"],
            "summary": summary,
        },
    )

    return {
        "raw_path": raw_path,
        "aggregate_path": agg_path,
        "conditional_path": cond_path,
        "metadata_path": meta_path,
        "summary": summary,
        "max_abs_reward": max_abs_reward,
    }


# -- replay -----------------------------------------------------------------------


def _replay_views(config, log, imputer):
    """The feature view of each configured UCB kind over the online rows.

    A view's features are rows of one table built once per log: the full
    features, the observed ones, or the observed ones followed by the
    imputed conditional mean of W.  Its feature-norm bound is a quantile of
    the table's row norms (no rng involved).
    """
    kinds = {AgentKind(spec["kind"]) for spec in config.agents}
    tables = {}
    if AgentKind.OFUL_FULL in kinds:
        tables[AgentKind.OFUL_FULL] = log.full
    if AgentKind.OFUL_OBSERVED in kinds:
        tables[AgentKind.OFUL_OBSERVED] = log.observed
    if AgentKind.PULSE_UCB in kinds:
        if imputer is None:
            raise ConfigError("imputer.kind", "pulse_ucb replay needs a fitted imputer")
        mus = np.stack(
            [imputer.conditional_mean(log.observed[j][None, :]) for j in range(log.n_rows)]
        )
        tables[AgentKind.PULSE_UCB] = np.concatenate([log.observed, mus], axis=1)
    return {
        kind: _View(
            dim=table.shape[1],
            bound=float(np.quantile(np.linalg.norm(table, axis=1), FEAT_NORM_QUANTILE)),
            features=lambda candidates, table=table: table[candidates],
            imputer=imputer if kind is AgentKind.PULSE_UCB else None,
        )
        for kind, table in tables.items()
    }


def run_replay(config, out_dir=None, overrides_echo=()):
    """Offline replay: per step, k logged candidates, the chosen row's
    reward revealed, cumulative click-through rate tracked per agent.

    Each agent replays the online portion on its own candidate stream, so
    its rows do not depend on which other agents run; trials are
    independent seeds.
    """
    out_dir = _output_dir(config, out_dir)

    pre = _pretrain_replay(config)
    log = pre["log"]
    n0 = pre["n_pretrain_rows"]
    k = config.environment["k"]

    online = np.arange(n0, log.n_rows)
    if online.shape[0] < k:
        raise ConfigError("environment.k", "online portion smaller than k")
    from .environments import ReplayLog

    online_log = ReplayLog(
        observed=log.observed[online],
        rewards=log.rewards[online],
        full=None if log.full is None else log.full[online],
        pool_ids=log.pool_ids[online],
        row_ids=log.row_ids[online],
    )
    # each step consumes one row, so this many steps never exhaust the log
    max_steps = online_log.n_rows - k + 1
    horizon = max_steps if config.horizon is None else min(config.horizon, max_steps)
    views = _replay_views(config, online_log, pre["imputer"])

    results = {}
    for trial_index in range(config.trials):
        seats = _seat_agents(
            config, trial_index, k, lambda kind, name: views.get(kind), pre["plug_in_dt"]
        )
        streams = [
            ReplayStream(
                online_log,
                substream(config.base_seed, "trial", trial_index, "replay", seat.agent.name),
            )
            for seat in seats
        ]

        def contexts(i):
            for stream in streams:
                candidates, reveal = stream.step(k)
                yield candidates, None, reveal

        arms, rewards = _decide(seats, horizon, contexts)
        agents = {
            seat.agent.name: _add_running_columns({"arm": arms[j], "reward": rewards[j]})
            for j, seat in enumerate(seats)
        }
        results[trial_index] = {"agents": agents, "names": list(agents)}

    raw_path = os.path.join(out_dir, "raw_replay.csv")
    _write_rows(raw_path, results, _REPLAY_COLUMNS)
    agg_path = os.path.join(out_dir, "aggregate_replay.csv")
    finals = _write_aggregate_csv(agg_path, results, ("cum_ctr",))
    summary = {
        name: {"final_mean_cum_ctr": final["cum_ctr"][0]} for name, final in finals.items()
    }
    meta_path = _write_metadata(
        out_dir,
        config,
        overrides_echo,
        {
            "protocol": "k_candidate_replay",
            "k": k,
            "n_pretrain_rows": n0,
            "n_online_rows": int(online_log.n_rows),
            "horizon": horizon,
            "feat_norm_bounds": {
                seat.agent.name: seat.view.bound for seat in seats if seat.view is not None
            },
            "summary": summary,
        },
    )

    return {
        "raw_path": raw_path,
        "aggregate_path": agg_path,
        "metadata_path": meta_path,
        "summary": summary,
    }


# -- sweeps -----------------------------------------------------------------------


def run_sweep(config, param_key, values, out_dir, overrides_echo=()):
    """Expand a list-valued parameter into child experiments sharing the
    base seed, then tabulate final mean regret ordered by the given values."""
    if not values:
        raise ConfigError(param_key, "sweep needs at least one value")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    child_summaries = []
    for value in values:
        child_raw = config.to_dict()
        node = child_raw
        parts = param_key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(param_key, f"no section {part!r} in the config")
            node = node[part]
        node[parts[-1]] = value
        child_raw["name"] = f"{config.name}__{parts[-1]}={value}"
        child_dir = os.path.join(out_dir, f"{parts[-1]}={value}")
        child_raw["output"] = {"dir": child_dir}
        child = ExperimentConfig(child_raw)
        result = run_experiment(child, out_dir=child_dir, overrides_echo=overrides_echo)
        child_summaries.append((value, result))
        for agent_name, stats in result["summary"].items():
            rows.append(
                {
                    "param": param_key,
                    "value": value,
                    "agent": agent_name,
                    # replay children report CTR instead of regret
                    "mean_final_regret": stats.get(
                        "mean_final_cum_regret", stats.get("final_mean_cum_ctr")
                    ),
                    "se_final_regret": stats.get("se_final_cum_regret", 0.0),
                }
            )

    table_path = os.path.join(out_dir, "sweep_summary.csv")
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("param,value,agent,mean_final_regret,se_final_regret\n")
        for row in rows:
            fh.write(
                f"{row['param']},{row['value']},{row['agent']},"
                f"{_fmt(row['mean_final_regret'])},{_fmt(row['se_final_regret'])}\n"
            )
    return {"table_path": table_path, "rows": rows, "children": child_summaries}

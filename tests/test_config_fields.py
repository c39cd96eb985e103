"""Field-level checks of the config reader.

Every field of every section table has at least one case here: a
wrong-typed or out-of-range value must raise ConfigError naming the field
by its dotted name, and an unknown key must name `section.key`.  A
hypothesis property checks that valid configs round-trip through
`to_dict` and ExperimentConfig unchanged.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsebandit import ConfigError, ExperimentConfig, harness, load_config

ENVIRONMENTS = {
    "synthetic": {"kind": "synthetic"},
    "lower_bound": {"kind": "lower_bound", "d_lin": 1, "d_non": 1},
    "replay": {"kind": "replay", "path": "log.csv"},
}


def base(env_kind="synthetic"):
    raw = {
        "schema_version": 1,
        "horizon": 10,
        "environment": dict(ENVIRONMENTS[env_kind]),
        "agents": [{"kind": "oful_full"}],
    }
    if env_kind == "replay":
        # a pulse_ucb agent on a fitted imputer, whose kind replay checks
        raw["imputer"] = {"kind": "linear_ar"}
        raw["agents"] = [{"kind": "pulse_ucb"}]
    return raw


class _Missing:
    def __repr__(self):
        return "MISSING"


MISSING = _Missing()  # the key is left out


def keys(field):
    """The keys of a dotted field; `agents[0].x` is the first agent's x."""
    parts = field.replace("agents[0]", "agents.0").split(".")
    return [int(part) if part.isdigit() else part for part in parts]


def with_value(raw, field, value):
    """`raw` with `field` set to `value`, or left out for MISSING."""
    node = raw
    *sections, last = keys(field)
    for key in sections:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    if value is MISSING:
        node.pop(last, None)
    else:
        node[last] = value
    return raw


# one past numpy's largest array dimension, which no size field takes
TOO_BIG = int(np.iinfo(np.intp).max) + 1
# the fields that size arrays; every other integer field is a seed
SIZES = [
    ("synthetic", "horizon"),
    ("synthetic", "trials"),
    ("synthetic", "imputer.lag"),
    ("synthetic", "pretrain.n"),
    ("synthetic", "pretrain.t0"),
    ("synthetic", "calibration.bootstrap_draws"),
    ("synthetic", "calibration.grid_points"),
    ("lower_bound", "environment.d_lin"),
    ("lower_bound", "environment.d_non"),
    ("lower_bound", "environment.scaling_horizon"),
    ("replay", "environment.k"),
]
SEEDS = ["base_seed", "pretrain.seed", "calibration.split_seed"]

# (environment kind, dotted field) -> values that must be rejected
BAD = {
    ("synthetic", "schema_version"): [2, "1", MISSING],
    ("synthetic", "base_seed"): [-1, 1.5, "3", True],
    ("synthetic", "horizon"): [0, 2.5, "10", None, MISSING],
    ("synthetic", "trials"): [0, "2", None],
    ("synthetic", "gamma_scale"): [0.0, -1.0, "x", float("inf")],
    ("synthetic", "environment"): ["synthetic", None, MISSING],
    ("synthetic", "schedule"): [[], None],
    ("synthetic", "imputer"): [5],
    ("synthetic", "agents"): [[], {}, None, MISSING],
    ("synthetic", "pretrain"): ["x"],
    ("synthetic", "calibration"): [3],
    ("synthetic", "output"): ["dir"],
    ("synthetic", "record_conditional_regret"): ["no", "False", 1, None],
    ("synthetic", "schedule.lambda"): [0.0, "1"],
    ("synthetic", "schedule.delta"): [0.0, 1.5, -0.1],
    ("synthetic", "schedule.sigma_eta"): [-0.1, "x"],
    ("synthetic", "schedule.sigma_eps"): [-1.0, None],
    ("synthetic", "schedule.feat_norm_bound"): [0.0, "big"],
    ("synthetic", "imputer.kind"): ["gaussian", ["oracle"], "full_observer"],
    ("synthetic", "imputer.lag"): [-1, 0.5],
    ("synthetic", "imputer.ridge_eps"): [-1e-3],
    ("synthetic", "imputer.bandwidth"): [0.0, "wide"],
    ("synthetic", "imputer.beta"): [0.0, 2.0],
    # a retired key: only its exact-path value, true, still loads
    ("synthetic", "imputer.analytic"): ["False", 0, "yes", False],
    ("synthetic", "agents[0]"): ["oful_full", None],
    ("synthetic", "agents[0].kind"): ["robot", ["oful_full"], MISSING],
    # plug_in needs a fitted imputer; the default imputer is the oracle
    ("synthetic", "agents[0].dt_source"): ["psychic", "plug_in"],
    ("synthetic", "agents[0].constant_dt"): [-1.0, "x"],
    ("synthetic", "agents[0].selection_form"): ["lasso", None],
    ("synthetic", "pretrain.n"): [-1, "5"],
    ("synthetic", "pretrain.t0"): [-1],
    ("synthetic", "pretrain.seed"): [-1, "a"],
    ("synthetic", "pretrain.fraction"): [0.0, 1.0],
    ("synthetic", "calibration.alpha"): [0.0, 1.0],
    ("synthetic", "calibration.bootstrap_draws"): [9],
    ("synthetic", "calibration.split_seed"): [-1],
    ("synthetic", "calibration.bandwidth"): [0.0],
    ("synthetic", "calibration.grid_points"): [8, 10.5],
    ("synthetic", "output.dir"): [5, ["out"]],
    ("synthetic", "environment.kind"): ["mars", 5, MISSING],
    ("synthetic", "environment.nonlinearity"): ["quadratic", None],
    ("synthetic", "environment.arma"): [[0.1, 0.1], 3, ["a", 0, 0, 0], [1.5, 0.0, 0.0, 0.0]],
    ("synthetic", "environment.innovation_sd"): [-0.1],
    ("synthetic", "environment.beta_star"): ["x", ["x"], [1.0, 2.0, 3.0]],
    ("synthetic", "environment.theta_star"): [1.0, [1.0, None], [1.0, 2.0]],
    ("synthetic", "environment.xi_sd"): [-0.1],
    ("synthetic", "environment.eta_sd"): ["x"],
    ("lower_bound", "environment.kind"): ["lowerbound"],
    ("lower_bound", "environment.d_lin"): [0, MISSING],
    ("lower_bound", "environment.d_non"): [0, 1.5, MISSING],
    ("lower_bound", "environment.bump_beta"): [0.0, 2.0],
    ("lower_bound", "environment.bump_amplitude"): [0.0],
    ("lower_bound", "environment.theta_q_magnitude"): [0.0, "x"],
    ("lower_bound", "environment.scaling_horizon"): [0],
    ("lower_bound", "environment.reward_sd"): [-1.0],
    ("lower_bound", "environment.w_noise_sd"): [-1.0],
    # the plug-in band needs d_S = 1, and lower_bound has d_S = d_lin + d_non
    ("lower_bound", "agents[0].dt_source"): ["plug_in"],
    ("replay", "environment.kind"): [None],
    ("replay", "environment.path"): [MISSING],
    ("replay", "environment.k"): [0, "20"],
    # a replay log has no true law of W for an oracle imputer (the default)
    ("replay", "imputer.kind"): ["oracle", MISSING],
    # replay fits its imputer on the log and would ignore a loaded one
    ("replay", "imputer.path"): ["imputer.json"],
    # replay fits its imputer at lag 0 and would ignore any other lag
    ("replay", "imputer.lag"): [1],
}
for size in SIZES:
    BAD[size] = BAD[size] + [TOO_BIG]

# fields that take any value and keep it as a string
TEXT = {("synthetic", "name"), ("synthetic", "imputer.path"), ("synthetic", "agents[0].name")}


def _table_fields():
    """(environment kind, dotted field) of every entry of every table, and
    of the agent list's elements."""
    fields = {("synthetic", "agents[0]")}
    sections = {
        "schedule": harness._SCHEDULE,
        "imputer": harness._IMPUTER,
        "agents[0]": harness._AGENT,
        "pretrain": harness._PRETRAIN,
        "calibration": harness._CALIBRATION,
    }
    for key, _, _ in harness._CONFIG:
        fields.add(("synthetic", key))
        if key == "output":
            fields.add(("synthetic", "output.dir"))
    for section, table in sections.items():
        fields |= {("synthetic", f"{section}.{key}") for key, _, _ in table}
    for kind, table in harness._ENVIRONMENTS.items():
        fields |= {(kind, f"environment.{key}") for key, _, _ in table}
    return fields


# retired fields, which no table lists but older files may name
RETIRED = {("synthetic", "imputer.analytic")}

# cases of a field under an environment kind whose table does not list it
CROSS_KIND = {
    ("lower_bound", "agents[0].dt_source"),
    ("replay", "imputer.kind"),
    ("replay", "imputer.path"),
    ("replay", "imputer.lag"),
}


def test_every_table_field_has_a_case():
    assert _table_fields() | CROSS_KIND | RETIRED == set(BAD) | TEXT


@pytest.mark.parametrize(
    "env_kind, field, value",
    [
        pytest.param(kind, field, value, id=f"{kind}-{field}-{value!r}")
        for (kind, field), values in BAD.items()
        for value in values
    ],
)
def test_bad_value_names_its_field(env_kind, field, value):
    raw = with_value(base(env_kind), field, value)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert err.value.field == field
    assert "not recognized" not in str(err.value)


LINEAR_AR = {"imputer": {"kind": "linear_ar", "lag": 2}, "pretrain": {"n": 400, "t0": 50}}
PLUG_IN = {
    "imputer": {"kind": "linear_ar"},
    "pretrain": {"n": 2, "t0": 5},
    "agents": [{"kind": "pulse_ucb", "dt_source": "plug_in"}],
}


@pytest.mark.parametrize(
    "over, field",
    [
        # a linear-AR fit on history regresses on lags inside each trajectory
        ({**LINEAR_AR, "imputer": {"kind": "linear_ar", "lag": 60}}, "imputer.lag"),
        ({**LINEAR_AR, "imputer": {"kind": "linear_ar", "lag": 50}}, "imputer.lag"),
        # the plug-in band needs 10 historical (S, W) pairs
        ({**PLUG_IN, "pretrain": {"n": 2, "t0": 3}}, "pretrain.n"),
        ({**PLUG_IN, "pretrain": {"n": 9, "t0": 1}}, "pretrain.n"),
    ],
)
def test_a_cross_field_limit_names_its_field(over, field):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig({**base(), **over})
    assert err.value.field == field


@pytest.mark.parametrize(
    "over",
    [
        {**LINEAR_AR, "imputer": {"kind": "linear_ar", "lag": 49}},
        # the lag limit binds only a linear-AR fit on history
        {**LINEAR_AR, "imputer": {"kind": "kernel", "lag": 60}},
        {**LINEAR_AR, "imputer": {"kind": "linear_ar", "lag": 60, "path": "imputer.json"}},
        PLUG_IN,
    ],
)
def test_a_config_inside_its_cross_field_limits_is_valid(over):
    ExperimentConfig({**base(), **over})


@pytest.mark.parametrize("env_kind, field", SIZES)
def test_a_size_field_takes_numpys_largest_dimension(env_kind, field):
    node = ExperimentConfig(with_value(base(env_kind), field, TOO_BIG - 1)).to_dict()
    for key in keys(field):
        node = node[key]
    assert node == TOO_BIG - 1


@pytest.mark.parametrize("field", SEEDS)
def test_a_seed_takes_any_nonnegative_integer(field):
    node = ExperimentConfig(with_value(base(), field, 10**30)).to_dict()
    for key in keys(field):
        node = node[key]
    assert node == 10**30


@pytest.mark.parametrize("env_kind, field", sorted(TEXT))
def test_text_fields_keep_any_value_as_a_string(env_kind, field):
    node = ExperimentConfig(with_value(base(env_kind), field, 7)).to_dict()
    for key in keys(field):
        node = node[key]
    assert node == "7"


@pytest.mark.parametrize(
    "env_kind, section",
    [
        ("synthetic", ""),
        ("synthetic", "environment"),
        ("lower_bound", "environment"),
        ("replay", "environment"),
        ("synthetic", "schedule"),
        ("synthetic", "imputer"),
        ("synthetic", "agents[0]"),
        ("synthetic", "pretrain"),
        ("synthetic", "calibration"),
        ("synthetic", "output"),
    ],
)
def test_unknown_key_names_section_and_key(env_kind, section):
    field = f"{section}.typo" if section else "typo"
    raw = with_value(base(env_kind), field, 1)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(raw)
    assert err.value.field == field


def test_string_booleans_from_overrides_are_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(base()))
    for item, field in (
        ("imputer.analytic=False", "imputer.analytic"),
        ("record_conditional_regret=no", "record_conditional_regret"),
    ):
        with pytest.raises(ConfigError) as err:
            load_config(str(path), overrides=(item,))
        assert err.value.field == field
    cfg = load_config(
        str(path), overrides=("imputer.analytic=true", "record_conditional_regret=false")
    )
    assert "analytic" not in cfg.imputer and cfg.record_conditional_regret is False


@pytest.mark.parametrize("env_kind", sorted(ENVIRONMENTS))
def test_retired_monte_carlo_keys_are_dropped(env_kind):
    plain = ExperimentConfig(base(env_kind)).to_dict()
    for analytic in (True, False):
        old = with_value(base(env_kind), "imputer.analytic", analytic)
        old["imputer"]["mc_samples"] = 64
        given = copy.deepcopy(old)
        if analytic:
            assert ExperimentConfig(old).to_dict() == plain
        else:
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(old)
            assert err.value.field == "imputer.analytic"
        # the caller's dict is read, never rewritten
        assert old == given


# -- round trip ---------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
positive = st.floats(min_value=1e-6, max_value=1e6)
nonnegative = st.floats(min_value=0.0, max_value=1e6)
unit_open = st.floats(min_value=1e-6, max_value=1 - 1e-6)
unit_closed = st.floats(min_value=1e-6, max_value=1.0)
seed = st.integers(min_value=0, max_value=2**32)
count = st.integers(min_value=1, max_value=10_000)


def optional(strategy):
    return st.none() | strategy


SCHEDULE = {
    "lambda": positive,
    "delta": unit_closed,
    "sigma_eta": nonnegative,
    "sigma_eps": nonnegative,
    "feat_norm_bound": optional(positive),
}
IMPUTER = {
    "kind": st.sampled_from(["oracle", "linear_ar", "kernel", "null"]),
    "lag": st.integers(min_value=0, max_value=5),
    "ridge_eps": nonnegative,
    "bandwidth": optional(positive),
    "beta": unit_closed,
    "path": optional(st.text(max_size=8)),
}
PRETRAIN = {
    "n": st.integers(min_value=0, max_value=100),
    "t0": st.integers(min_value=0, max_value=100),
    "seed": optional(seed),
    "fraction": unit_open,
}
CALIBRATION = {
    "alpha": unit_open,
    "bootstrap_draws": st.integers(min_value=10, max_value=1000),
    "split_seed": seed,
    "bandwidth": optional(positive),
    "grid_points": optional(st.integers(min_value=9, max_value=100)),
}
ENV = {
    "synthetic": {
        "nonlinearity": st.just("linear") | finite,
        # stationary AR parts: |ar1| + |ar2| < 1
        "arma": st.tuples(
            st.floats(min_value=-0.45, max_value=0.45),
            st.floats(min_value=-0.45, max_value=0.45),
            finite,
            finite,
        ).map(list),
        "innovation_sd": nonnegative,
        "beta_star": st.lists(finite, min_size=2, max_size=2),
        "theta_star": st.lists(finite, min_size=4, max_size=4),
        "xi_sd": nonnegative,
        "eta_sd": nonnegative,
    },
    "lower_bound": {
        "bump_beta": unit_closed,
        "bump_amplitude": positive,
        "theta_q_magnitude": optional(positive),
        "scaling_horizon": count,
        "reward_sd": nonnegative,
        "w_noise_sd": nonnegative,
    },
    "replay": {"k": count},
}


def section(fields, required=None):
    return st.fixed_dictionaries(required or {}, optional=fields)


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(sorted(ENVIRONMENTS)))
    required = {"kind": st.just(kind)}
    if kind == "lower_bound":
        required.update(d_lin=count, d_non=count)
    if kind == "replay":
        required["path"] = st.text(min_size=1, max_size=8)
    agent_kinds = ["pulse_ucb", "oful_observed", "oful_full", "uniform_random"]
    sources = ["zero", "constant"]
    if kind != "replay":
        agent_kinds.append("oracle_best")
        sources.append("oracle")
    if kind == "synthetic":
        sources.append("plug_in")  # the plug-in band needs d_S = 1
    agents = draw(
        st.lists(
            section(
                {
                    "dt_source": st.sampled_from(sources),
                    "constant_dt": nonnegative,
                    "selection_form": st.sampled_from(["closed_form", "ball_maximization"]),
                },
                {"kind": st.sampled_from(agent_kinds)},
            ),
            min_size=1,
            max_size=4,
        )
    )
    for i, agent in enumerate(agents):
        agent["name"] = f"agent{i}"
    top = {
        "name": st.text(max_size=8),
        "base_seed": seed,
        "trials": count,
        "gamma_scale": positive,
        "schedule": section(SCHEDULE),
        "imputer": section(IMPUTER),
        "pretrain": section(PRETRAIN),
        "calibration": section(CALIBRATION),
        "output": section({"dir": optional(st.text(max_size=8))}),
        "record_conditional_regret": st.booleans(),
    }
    raw = draw(section(top))
    raw.update(
        schema_version=1,
        environment=draw(section(ENV[kind], required)),
        agents=agents,
    )
    if kind != "replay" or draw(st.booleans()):
        raw["horizon"] = draw(count if kind != "replay" else optional(count))
    imputer = raw.get("imputer", {})
    if kind == "replay":
        # replay fits its imputer on the log, at lag 0, and loads none; a
        # pulse_ucb agent needs that fitted (or null) model, not the oracle
        imputer.pop("path", None)
        imputer.pop("lag", None)
        if imputer.get("kind", "oracle") == "oracle" and any(
            agent["kind"] == "pulse_ucb" for agent in agents
        ):
            kinds = st.sampled_from(["linear_ar", "kernel", "null"])
            imputer = raw["imputer"] = {**imputer, "kind": draw(kinds)}
    if kind != "replay" and imputer.get("kind") in ("linear_ar", "kernel") and not imputer.get(
        "path"
    ):
        # fitted imputers need pretraining data unless they are loaded: a
        # linear-AR fit needs t0 above its lag, and a plug-in band n * t0 >= 10
        lag = imputer.get("lag", 0) if imputer["kind"] == "linear_ar" else 0
        n = draw(count)
        t0 = draw(st.integers(min_value=max(lag + 1, -(-10 // n)), max_value=10_000))
        raw.setdefault("pretrain", {}).update(n=n, t0=t0)
    if imputer.get("kind") == "null":
        # a null model has no oracle divergence
        default = "oracle" if kind == "synthetic" else "zero"
        for agent in agents:
            if agent["kind"] == "pulse_ucb" and agent.get("dt_source", default) == "oracle":
                agent["dt_source"] = "zero"
    if imputer.get("kind") not in ("linear_ar", "kernel") or imputer.get("path") is not None:
        # the plug-in band needs a history that only a fitted imputer generates
        for agent in agents:
            if agent.get("dt_source") == "plug_in":
                agent["dt_source"] = "zero"
    return raw


@settings(max_examples=200, deadline=None)
@given(configs())
def test_valid_configs_round_trip(raw):
    cfg = ExperimentConfig(raw)
    resolved = cfg.to_dict()
    for again in (ExperimentConfig(resolved), ExperimentConfig(json.loads(json.dumps(resolved)))):
        assert again.to_dict() == resolved
        assert again.config_hash() == cfg.config_hash()

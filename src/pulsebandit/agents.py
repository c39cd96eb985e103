"""UCB agents over imputed, observed, or full features.

The confidence radius after t observations is

    gamma_t = gamma_t^(0) + 3 d^2 sum_{tau <= t} D_tau,
    gamma_t^(0) = 3 lam
        + 6 (sigma_eta + sigma_eps)^2 [ log(4 t^2 / delta)
                                        + d log(1 + t B^2 / (d lam)) ],

evaluated in log space (the log of the product is expanded into a sum, so
the (1 + t B^2/(d lam))^d factor never overflows).  sigma_eps bounds the
sub-Gaussian scale of the imputation error and defaults to 2, the
worst-case value for feature maps bounded by 1; it can be overridden when
a sharper bound is known.  The radius of the initial ball, before any
observation, is gamma_1^(0).

A multiplicative `scale` (default 1.0) shrinks the radius uniformly for
practical runs; it is recorded in experiment metadata whenever not 1.

Arm selection maximizes max_{theta in BALL} theta . phi_a.  The ball
maximum has the closed form theta_hat . phi + sqrt(gamma) ||phi||_{Sigma^-1},
attained at theta* = theta_hat + sqrt(gamma) Sigma^{-1} phi / ||phi||_{Sigma^-1};
both selection forms are implemented and must agree, the ball form also
cross-checks that its optimizer lies in the ball.  Ties go to the lowest
arm index.

Every UCB agent keeps its ridge state in a `RidgeStack` (see `linalg`).
An agent made with `trials=n` plays n independent trials in lockstep: it
takes (n, n_arms, dim) features per decision, returns n arms, and its
divergence sum and radius are (n,) arrays.  A one-trial agent is the same
code over the empty batch shape: it takes (n_arms, dim) features and
returns one int arm, and its radius is a float.  A lane group is a
lockstep agent whose lanes are the trials of several members whose
schedules differ only in their feature-norm bound B: each member's
gamma^(0) is its own Python float, repeated over its block of lanes.  Each
observation adds the step's divergence charge D_tau, which the caller
gives, to the sum.  A one-trial agent's rows come from its caller at every
step, so they go through the checking one-state entry points of `linalg`;
a lockstep agent's rows are slices of blocks checked once before the first
decision (the harness's views, rewards and divergence charges), so its
steps skip that scan.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, InputError, ParameterError, UsageError
from .linalg import (
    _batch_shape,
    new_ridge_stack,
    quadratic_form_inv,
    rank_one_update,
    stack_quadratic_forms,
    stack_rank_one_update,
)

__all__ = [
    "GammaSchedule",
    "gamma_zero",
    "gamma_at",
    "AgentKind",
    "SelectionForm",
    "AgentState",
    "make_agent",
    "current_gamma",
    "arm_ucb_scores",
    "select_arm",
    "observe",
    "theta_in_ball",
    "DEFAULT_SIGMA_EPS",
]

DEFAULT_SIGMA_EPS = 2.0


@dataclass
class GammaSchedule:
    """Confidence-radius schedule state.

    dt_cumsum accumulates the per-step divergences D_tau that observe
    receives.  A lane group's schedule (see `make_agent`) holds a tuple of
    feature-norm bounds, one per member.
    """

    lam: float
    sigma_eta: float
    delta: float
    feat_norm_bound: float  # or a tuple of floats, one per member
    dim: int
    sigma_eps: float = DEFAULT_SIGMA_EPS
    scale: float = 1.0
    # an agent holds its own copy, with one sum per trial: a numpy float for
    # a one-trial agent, an (n,) array for an agent of n lockstep trials;
    # observe rebinds it, so a sum read earlier keeps its own value
    dt_cumsum: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError("schedule.lambda", f"must be positive, got {self.lam!r}")
        if not (math.isfinite(self.delta) and 0.0 < self.delta <= 1.0):
            raise ConfigError("schedule.delta", f"must lie in (0, 1], got {self.delta!r}")
        if not (math.isfinite(self.sigma_eta) and self.sigma_eta >= 0):
            raise ConfigError(
                "schedule.sigma_eta", f"must be nonnegative, got {self.sigma_eta!r}"
            )
        bounds = self.feat_norm_bound
        if bounds == ():
            raise ConfigError("schedule.feat_norm_bound", "needs one bound per member, got none")
        for bound in bounds if isinstance(bounds, tuple) else (bounds,):
            if not (math.isfinite(bound) and bound >= 0):
                raise ConfigError(
                    "schedule.feat_norm_bound", f"must be nonnegative, got {bound!r}"
                )
        if self.dim < 1:
            raise ConfigError("schedule.dim", f"must be positive, got {self.dim}")
        if not (math.isfinite(self.sigma_eps) and self.sigma_eps >= 0):
            raise ConfigError(
                "schedule.sigma_eps", f"must be nonnegative, got {self.sigma_eps!r}"
            )
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError("schedule.gamma_scale", f"must be positive, got {self.scale!r}")


def gamma_zero(schedule, t):
    """Divergence-free radius gamma_t^(0), before the scale factor: a float,
    or a tuple of one float per member for a lane group's schedule."""
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    s = schedule
    if isinstance(s.feat_norm_bound, tuple):
        return tuple(_gamma_zero(s, t, bound) for bound in s.feat_norm_bound)
    return _gamma_zero(s, t, s.feat_norm_bound)


def _gamma_zero(s, t, bound):
    log_term = (
        math.log(4.0)
        + 2.0 * math.log(t)
        - math.log(s.delta)
        + s.dim * math.log1p(t * bound * bound / (s.dim * s.lam))
    )
    width = s.sigma_eta + s.sigma_eps
    return 3.0 * s.lam + 6.0 * width * width * log_term


def _per_lane(values, shape):
    """A float as it is; a tuple of one float per member as an array of the
    lane shape `shape`, each member's float repeated over its block of
    lanes (one member's as its float)."""
    if not isinstance(values, tuple):
        return values
    if len(values) == 1:
        return values[0]
    return np.array(values).repeat(shape[0] // len(values))


def gamma_at(schedule, t):
    """Scaled radius gamma_t; dt_cumsum must be current through step t."""
    zero = _per_lane(gamma_zero(schedule, t), np.shape(schedule.dt_cumsum))
    return schedule.scale * (zero + 3.0 * schedule.dim**2 * schedule.dt_cumsum)


class AgentKind(Enum):
    PULSE_UCB = "pulse_ucb"
    OFUL_OBSERVED = "oful_observed"
    OFUL_FULL = "oful_full"
    ORACLE_BEST = "oracle_best"
    UNIFORM_RANDOM = "uniform_random"


class SelectionForm(Enum):
    CLOSED_FORM = "closed_form"
    BALL_MAXIMIZATION = "ball_maximization"


_UCB_KINDS = (AgentKind.PULSE_UCB, AgentKind.OFUL_OBSERVED, AgentKind.OFUL_FULL)

# relative slack for the ball-membership cross-check of the explicit
# optimizer; covers the round-off of the tracked inverse only
_BALL_CHECK_RTOL = 1e-9


@dataclass
class AgentState:
    name: str
    kind: AgentKind
    arm_count: int
    ridge: object = None
    schedule: GammaSchedule = None
    selection_form: SelectionForm = SelectionForm.CLOSED_FORM
    trials: int = None  # lockstep trial count; None for a one-trial agent

    @property
    def is_ucb(self):
        return self.kind in _UCB_KINDS


def make_agent(
    name,
    kind,
    arm_count,
    dim=None,
    schedule=None,
    selection_form=SelectionForm.CLOSED_FORM,
    trials=None,
):
    """Assemble an agent; UCB kinds require dim and schedule.  A pulse_ucb
    agent takes its imputed features from the caller, so it needs no
    imputer.

    With `trials` set, a positive count, the agent plays that many trials
    in lockstep.  A UCB agent's ridge state is a RidgeStack of batch shape
    (trials,), or () for one trial, and its schedule a copy whose
    divergence sum has that shape.  A schedule whose feat_norm_bound is a
    tuple of m bounds makes a lane group: its trial lanes fall into m equal
    blocks, one per member, and lane block j's radius reads bound j.
    """
    kind = AgentKind(kind)
    selection_form = SelectionForm(selection_form)
    if arm_count < 1:
        raise ParameterError("arm_count must be positive")
    _batch_shape(trials)  # every kind plays a valid trial count
    ridge = None
    if kind in _UCB_KINDS:
        if dim is None or schedule is None:
            raise ParameterError(f"{kind.value} agents need dim and schedule")
        if schedule.dim != dim:
            raise ParameterError(
                f"schedule.dim = {schedule.dim} does not match feature dim {dim}"
            )
        bounds = schedule.feat_norm_bound
        if isinstance(bounds, tuple) and (trials is None or trials % len(bounds)):
            raise ParameterError(
                f"{len(bounds)} feature-norm bounds, one per member, need a multiple of "
                f"{len(bounds)} trial lanes, got {trials}"
            )
        ridge = new_ridge_stack(trials, dim, schedule.lam)
        schedule = replace(schedule, dt_cumsum=np.full(ridge.shape, schedule.dt_cumsum)[()])
    return AgentState(
        name=name,
        kind=kind,
        arm_count=int(arm_count),
        ridge=ridge,
        schedule=schedule,
        selection_form=selection_form,
        trials=trials,
    )


def current_gamma(agent):
    """Radius of the ball used for the next selection.

    Before any observation this is gamma_1^(0); after t observations it is
    gamma_t with dt_cumsum through step t.  A one-trial agent gets a float,
    a lockstep agent one radius per trial.
    """
    if not agent.is_ucb:
        raise UsageError(f"{agent.kind.value} agents have no confidence schedule")
    t = agent.ridge.update_count
    if t == 0:
        zero = _per_lane(gamma_zero(agent.schedule, 1), agent.ridge.shape)
        # [()]: a 0-d array as a float
        return np.full(agent.ridge.shape, agent.schedule.scale * zero)[()]
    return gamma_at(agent.schedule, t)


def _ball_scores(gram, theta, gamma, feats, quads, sigma_inv_feats):
    """Scores through the explicit maximizers over the ball.

    One trial's arrays are `gram` (d, d), `theta` (d,), `gamma` a scalar,
    `feats` and `sigma_inv_feats`, Sigma^{-1} of each row, (k, d) and
    `quads` (k,); a lockstep agent's carry a leading trial axis.
    """
    center = theta[..., None, :]
    # an arm with a zero form has the ball's center as its maximizer
    live = quads != 0.0
    directions = sigma_inv_feats / np.sqrt(np.where(live, quads, 1.0))[..., None]
    theta_star = center + np.where(
        live[..., None], np.sqrt(gamma)[..., None, None] * directions, 0.0
    )
    # cross-check that every explicit maximizer lies in its ball
    diff = theta_star - center
    radius = np.einsum("...kd,...de,...ke->...k", diff, gram, diff)
    if (radius > gamma[..., None] * (1.0 + _BALL_CHECK_RTOL)).any():
        raise InputError(
            "ball-maximization optimizer left the confidence ball "
            f"({radius.max()} > {gamma.max()})"
        )
    return np.einsum("...kd,...kd->...k", theta_star, feats)


def arm_ucb_scores(agent, arm_features):
    """Optimistic score of every candidate arm under the agent's form.

    Closed form evaluates theta_hat . x + sqrt(gamma x^T Sigma^{-1} x)
    directly; ball maximization materializes the maximizing theta on the
    confidence ball and scores through it, cross-checking membership.
    Both forms agree up to floating point, and both take every arm's
    x^T Sigma^{-1} x from one stacked call; ball maximization takes every
    Sigma^{-1} x from one product with the tracked inverse.  A one-trial
    agent takes (n_arms, dim) features and gives (n_arms,) scores; a
    lockstep agent takes (trials, n_arms, dim) features and scores every
    trial's arms as one (trials, n_arms) array.
    """
    if not agent.is_ucb:
        raise UsageError(f"{agent.kind.value} agents have no UCB scores")
    feats = np.asarray(arm_features, dtype=float)
    ridge = agent.ridge
    if feats.ndim != len(ridge.shape) + 2:
        raise InputError(
            f"arm features must have shape {ridge.shape} + (n_arms, {ridge.dim}), "
            f"got {feats.shape}"
        )
    forms = stack_quadratic_forms if ridge.shape else quadratic_form_inv
    quads = forms(ridge, feats)

    gamma = np.asarray(current_gamma(agent))
    theta = ridge.theta_hat
    if agent.selection_form is SelectionForm.BALL_MAXIMIZATION:
        sigma_inv_feats = np.einsum("...de,...ke->...kd", ridge.inv, feats)
        return _ball_scores(ridge.gram, theta, gamma, feats, quads, sigma_inv_feats)
    # one matrix-vector product per trial
    return (feats @ theta[..., None])[..., 0] + np.sqrt(gamma)[..., None] * np.sqrt(quads)


def select_arm(agent, arm_features, optimal_arm=None, rng=None):
    """Index of the chosen arm, an int.

    UCB agents maximize the optimistic score over the current ball;
    oracle-best agents require the environment's optimal arm injected;
    uniform-random agents require their own rng.  Exact score ties resolve
    to the lowest index.  A lockstep agent returns a (trials,) array of
    arms; its optimal arm is one per trial and its rng a list of the
    trials' own generators.
    """
    if agent.kind is AgentKind.ORACLE_BEST:
        if optimal_arm is None:
            raise UsageError("oracle_best requires the optimal arm to be injected")
        arms = np.array(optimal_arm, dtype=int)
    elif agent.kind is AgentKind.UNIFORM_RANDOM:
        if rng is None:
            raise UsageError("uniform_random requires an rng")
        # one draw from each trial's generator, in trial order
        if agent.trials is None:
            return int(rng.integers(0, agent.arm_count))
        arms = np.array([r.integers(0, agent.arm_count) for r in rng], dtype=int)
    else:
        # first maximum per trial: ties go to the lowest index
        arms = np.argmax(arm_ucb_scores(agent, arm_features), axis=-1)
    return arms if arms.ndim else int(arms)


def observe(agent, chosen_features, reward, dt_value=0.0):
    """Fold the observed (features, reward) pair into the agent and add
    dt_value, the step's divergence charge D_tau, to its divergence sum.

    A one-trial agent takes a (dim,) row, a scalar reward and one finite,
    nonnegative dt_value, checked here before the agent changes; a lockstep
    agent takes (trials, dim) features, (trials,) rewards and one dt_value
    per trial or one for all, unchecked: they are slices of blocks its
    caller checks once before the first decision.
    """
    if not agent.is_ucb:
        raise UsageError(f"{agent.kind.value} agents do not update")
    if agent.ridge.shape:
        stack_rank_one_update(agent.ridge, chosen_features, reward)
    else:
        dt_value = np.asarray(dt_value, dtype=float)
        if dt_value.shape or not (np.isfinite(dt_value) and dt_value >= 0):
            raise InputError(f"dt_value must be one finite, nonnegative number, got {dt_value!r}")
        rank_one_update(agent.ridge, chosen_features, reward)
    agent.schedule.dt_cumsum = agent.schedule.dt_cumsum + dt_value
    return agent


def theta_in_ball(agent, theta_true):
    """Whether (theta_hat - theta)^T Sigma_t (theta_hat - theta) <= gamma_t:
    a bool for a one-trial agent, one flag per trial, a (trials,) bool
    array, for a lockstep agent."""
    if not agent.is_ucb:
        raise UsageError(f"{agent.kind.value} agents have no confidence ball")
    theta_true = np.asarray(theta_true, dtype=float)
    if theta_true.shape != (agent.ridge.dim,):
        raise InputError(
            f"theta must have shape ({agent.ridge.dim},), got {theta_true.shape}"
        )
    diff = agent.ridge.theta_hat - theta_true
    val = np.einsum("...d,...de,...e->...", diff, agent.ridge.gram, diff)
    inside = val <= current_gamma(agent)
    return inside if inside.ndim else bool(inside)

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
divergence sum and radius are (n,) arrays; a one-trial agent is the same
code over the empty batch shape, with one int arm and a float radius.  A
lane group is a lockstep agent whose lanes are the trials of members whose
schedules differ only in their bound B and dimension d: each member's
gamma^(0) and charge factor 3 d^2 are its own Python floats, repeated over
its lanes.  Its ridge stack has the widest member's dimension, and a
narrower member's features come zero-padded on the right.  A padded
coordinate stays decoupled: with x_pad = 0, Sherman-Morrison's u_pad is 0
and a re-inversion factors a block-diagonal Gram matrix, so the padded
rows and columns of the inverse keep 1/lam on the diagonal and exact zeros
off it, and the member scores and learns as at its own dimension (its
log-determinant gains the padding's (width - d) log lam).  As in LinUCB
(Li et al. 2010), every agent, in either form, forms each arm's
Sigma^{-1} x once per step and scores from it, and a lockstep agent
updates from the chosen arms' rows of it.  Each observation adds the
charge D_tau its caller gives.  A one-trial agent's rows come from its
caller at every step, so it checks that they are finite; a lockstep
agent's rows are slices of blocks checked once before the first decision
(the harness's views, rewards and divergence charges), so its steps skip
that scan.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, InputError, ParameterError, UsageError
from .linalg import (
    _batch_shape,
    new_ridge_stack,
    quadratic_form_inv,  # unused: scoring forms Sigma^-1 x itself; kept for tracers
    rank_one_update,
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
    receives.  A lane group's schedule (see `make_agent`) may hold a tuple
    of feature-norm bounds and a tuple of feature dims, one per member of
    one selection form; a single value holds for every member.
    """

    lam: float
    sigma_eta: float
    delta: float
    feat_norm_bound: float  # or a tuple of floats, one per member
    dim: int  # or a tuple of ints, one per member
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
        dims = self.dim if isinstance(self.dim, tuple) else (self.dim,)
        if not dims or min(dims) < 1:
            raise ConfigError("schedule.dim", f"must be positive, one per member, got {self.dim}")
        if isinstance(bounds, tuple) and isinstance(self.dim, tuple) and len(bounds) != len(dims):
            raise ConfigError(
                "schedule.dim", f"needs one dim per member: {len(bounds)} bounds, {len(dims)} dims"
            )
        if not (math.isfinite(self.sigma_eps) and self.sigma_eps >= 0):
            raise ConfigError(
                "schedule.sigma_eps", f"must be nonnegative, got {self.sigma_eps!r}"
            )
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError("schedule.gamma_scale", f"must be positive, got {self.scale!r}")


def _members(s):
    """Each member's (bound, dim), and whether the schedule is a lane
    group's, one whose bounds or dims are a tuple."""
    bounds, dims = s.feat_norm_bound, s.dim
    group = isinstance(bounds, tuple) or isinstance(dims, tuple)
    count = len(bounds if isinstance(bounds, tuple) else dims) if group else 1
    bounds, dims = ((v if isinstance(v, tuple) else (v,) * count) for v in (bounds, dims))
    return tuple(zip(bounds, dims)), group


def gamma_zero(schedule, t):
    """Divergence-free radius gamma_t^(0), before the scale factor: a float,
    or a tuple of one float per member for a lane group's schedule."""
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    members, group = _members(schedule)
    zeros = tuple(_gamma_zero(schedule, t, bound, dim) for bound, dim in members)
    return zeros if group else zeros[0]


def _gamma_zero(s, t, bound, dim):
    log_term = (
        math.log(4.0)
        + 2.0 * math.log(t)
        - math.log(s.delta)
        + dim * math.log1p(t * bound * bound / (dim * s.lam))
    )
    width = s.sigma_eta + s.sigma_eps
    return 3.0 * s.lam + 6.0 * width * width * log_term


def _lane_rows(members, rows, shape):
    """Per-member values, (..., members), as per-lane ones over the lane
    shape `shape`: each member's repeated over its block of lanes."""
    return rows.repeat(shape[0] // len(members), axis=-1) if shape else rows[..., 0]


def _gamma_zero_rows(s, first, count, shape):
    """gamma_t^(0) for t = first, ..., first + count - 1, one row per step
    over the lane shape `shape`."""
    members, _ = _members(s)
    steps = range(first, first + count)
    rows = np.array([[_gamma_zero(s, t, *member) for member in members] for t in steps])
    return _lane_rows(members, rows, shape)


def _charge_factor(s, shape):
    """Each lane's factor 3 d^2 on its divergence sum, over the lane shape."""
    members, _ = _members(s)
    return _lane_rows(members, np.array([3.0 * dim**2 for _, dim in members]), shape)


def gamma_at(schedule, t):
    """Scaled radius gamma_t; dt_cumsum must be current through step t."""
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    shape = np.shape(schedule.dt_cumsum)
    zero = _gamma_zero_rows(schedule, t, 1, shape)[0]
    return schedule.scale * (zero + _charge_factor(schedule, shape) * schedule.dt_cumsum)


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
    scored: tuple = None  # see arm_ucb_scores and observe
    # (t0, rows, factor): row i holds gamma_{t0 + i}^(0) of each lane, and
    # factor each lane's 3 d^2 (see _charge_factor)
    radius_rows: tuple = None
    drawn: tuple = None  # (i, rows): uniform_random's arms, row i the next step's

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
    divergence sum has that shape.  A schedule whose feat_norm_bound or dim
    is a tuple of m entries makes a lane group of one selection form: its
    trial lanes fall into m equal blocks, one per member, and lane block
    j's radius reads bound j and dim j.  The stack has the widest member's
    dimension, `dim`; a narrower member's features are zero-padded on the
    right by the caller (see the module docstring).
    """
    kind = AgentKind(kind)
    selection_form = SelectionForm(selection_form)
    if not isinstance(arm_count, (int, np.integer)) or isinstance(arm_count, bool) or arm_count < 1:
        raise ParameterError(f"arm_count must be a positive integer, got {arm_count!r}")
    _batch_shape(trials)  # every kind plays a valid trial count
    ridge = None
    if kind in _UCB_KINDS:
        if dim is None or schedule is None:
            raise ParameterError(f"{kind.value} agents need dim and schedule")
        members, group = _members(schedule)
        if max(member_dim for _, member_dim in members) != dim:
            raise ParameterError(
                f"schedule.dim = {schedule.dim} does not match feature dim {dim}"
            )
        if group and (trials is None or trials % len(members)):
            raise ParameterError(
                f"{len(members)} members, each with its own feature-norm bound and dim, "
                f"need a multiple of {len(members)} trial lanes, got {trials}"
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

    After t observations this is gamma_t with dt_cumsum through step t, and
    before any it is gamma_1^(0) (the divergence sum is still 0).  A
    one-trial agent gets a float, a lockstep agent one radius per trial.
    gamma_t^(0) is read from rows computed 64 steps at a time.
    """
    if not agent.is_ucb:
        raise UsageError(f"{agent.kind.value} agents have no confidence schedule")
    t = max(agent.ridge.update_count, 1)
    s = agent.schedule
    first, rows, factor = agent.radius_rows or (0, (), None)
    if not first <= t < first + len(rows):
        shape = agent.ridge.shape
        first, rows, factor = t, _gamma_zero_rows(s, t, 64, shape), _charge_factor(s, shape)
        agent.radius_rows = first, rows, factor
    return s.scale * (rows[t - first] + factor * s.dt_cumsum)


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
    Both forms agree up to floating point.  A one-trial agent takes
    (n_arms, dim) features and gives (n_arms,) scores; a lockstep agent
    takes (trials, n_arms, dim) features, scores every trial's arms as one
    (trials, n_arms) array and keeps the step as `agent.scored` for
    `observe(arms=...)`.  Either form, at either shape, forms every arm's
    Sigma^{-1} x once, as one product with the tracked inverses, and
    scores from it.
    """
    if not agent.is_ucb:
        raise UsageError(f"{agent.kind.value} agents have no UCB scores")
    feats = np.asarray(arm_features, dtype=float)
    ridge = agent.ridge
    want = ridge.shape + (ridge.dim,)
    if feats.ndim != len(want) + 1 or feats.shape[:-2] + feats.shape[-1:] != want:
        raise InputError(
            f"arm features must have shape {ridge.shape} + (n_arms, {ridge.dim}), "
            f"got {feats.shape}"
        )
    if not ridge.shape and not np.isfinite(feats).all():
        raise InputError("arm features contain non-finite entries")
    gamma = np.asarray(current_gamma(agent))
    sigma_inv_feats = feats @ ridge.inv
    quads = np.einsum("...kd,...kd->...k", feats, sigma_inv_feats)
    if ridge.shape:
        agent.scored = (feats, sigma_inv_feats, quads)
    if agent.selection_form is SelectionForm.BALL_MAXIMIZATION:
        return _ball_scores(ridge.gram, ridge.theta_hat, gamma, feats, quads, sigma_inv_feats)
    # theta_hat . x = xr_sum . Sigma^{-1} x
    means = (sigma_inv_feats @ ridge.xr_sum[..., None])[..., 0]
    return means + np.sqrt(gamma)[..., None] * np.sqrt(quads)


def select_arm(agent, arm_features, optimal_arm=None, rng=None):
    """Index of the chosen arm, an int.

    UCB agents maximize the optimistic score over the current ball;
    oracle-best agents require the environment's optimal arm injected;
    uniform-random agents require their own rng.  Exact score ties resolve
    to the lowest index.  A lockstep agent returns a (trials,) array of
    arms; its optimal arm is one per trial and its rng a list of the
    trials' own generators, the same ones at every step: a uniform-random
    agent draws each trial's arms 64 steps at a time, the numbers that its
    one-step draws give.
    """
    if agent.kind is AgentKind.ORACLE_BEST:
        if optimal_arm is None:
            raise UsageError("oracle_best requires the optimal arm to be injected")
        arms = np.array(optimal_arm, dtype=int)
    elif agent.kind is AgentKind.UNIFORM_RANDOM:
        if rng is None:
            raise UsageError("uniform_random requires an rng")
        if agent.trials is None:
            return int(rng.integers(0, agent.arm_count))
        i, rows = agent.drawn or (0, ())
        if i == len(rows):
            i, rows = 0, np.stack([r.integers(0, agent.arm_count, size=64) for r in rng], 1)
        agent.drawn = i + 1, rows
        arms = rows[i]
    else:
        # first maximum per trial: ties go to the lowest index
        arms = arm_ucb_scores(agent, arm_features).argmax(axis=-1)
    return arms if arms.ndim else int(arms)


def observe(agent, chosen_features, reward, dt_value=0.0, arms=None):
    """Fold the observed (features, reward) pair into the agent and add
    dt_value, the step's divergence charge D_tau, to its divergence sum.

    A one-trial agent takes a (dim,) row, a scalar reward and one finite,
    nonnegative dt_value, checked here before the agent changes; a lockstep
    agent takes (trials, dim) features, (trials,) rewards and one dt_value
    per trial or one for all, unchecked: they are slices of blocks its
    caller checks once before the first decision.

    Given `arms`, a lockstep agent's chosen arms, the update reads their
    rows, with their Sigma^{-1} x and forms, from the step it last
    scored; a UsageError if it scored none since its last observation.
    """
    if not agent.is_ucb:
        raise UsageError(f"{agent.kind.value} agents do not update")
    scored, agent.scored = agent.scored, None
    u = q = None
    if arms is not None:
        if scored is None:
            raise UsageError("observe(arms=...) needs a step scored by select_arm since the last")
        feats, sigma_inv_feats, quads = scored
        n, k, dim = feats.shape
        rows = np.arange(0, n * k, k) + arms  # each lane's chosen (lane, arm) row
        chosen_features = feats.reshape(-1, dim).take(rows, axis=0)
        u, q = sigma_inv_feats.reshape(-1, dim).take(rows, axis=0), quads.take(rows)
    if agent.ridge.shape:
        stack_rank_one_update(agent.ridge, chosen_features, reward, u, q)
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

"""Context-reward environments.

All environments share one step contract: a step carries the full context
Y_t, the observed part S_t, per-arm potential rewards that share a single
noise draw eta_t, the realized-optimal arm (ties to the lower index), and
its mean reward.  Context streams are exogenous: they are pure functions
of (seed, t) and never depend on chosen actions, so the same stream can be
replayed against any set of agents.  The generative environments produce
their steps as Rollouts, T steps of arrays at a time; `step` is the
one-step rollout, and any split of a stream into rollouts gives the same
steps.  `rollout_lanes` rolls out many independent streams (lanes) as one
Rollout, each lane exactly the reset and rollout of its own stream.

SyntheticEnv: scalar S_t follows an ARMA(2, 2) recursion; the late
coordinate W_t is a linear (optionally sinusoidally perturbed) function of
x_t = (1, (S_t + S_{t-1} + S_{t-2}) / 3) plus Gaussian noise; rewards are
theta_star . Phi(Y_t, a) + eta_t over the interaction feature map.

LowerBoundEnv: a two-armed stress construction with a latent coin V_t.
With probability 1/2 the linear block Q_t is zeroed and the nonparametric
block O_t is drawn uniformly on [-1, 1]^d_non; otherwise Q_t is a random
standard basis vector and O_t sits at an anchor o0 outside the cube where
the nonparametric signal vanishes.  W_t = f(O_t); rewards are Gaussian
around theta . Phi(Y_t, a).

ReplayLog: offline logged rows with observed features, optional full
features, and a binary reward; a replay stream serves k-candidate steps
from the rows' rewards to trials in lockstep, consuming only the chosen
row.
"""

import cmath
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EndOfLog, EnvError, InputError, ParameterError, UsageError
from .features import (
    arm_feature_matrix,  # unused: rollouts build features with phi_batch; kept for tracers
    lower_bound_two_arm_map,
    phi_batch,
    synthetic_interaction_map,
)

__all__ = [
    "Rollout",
    "SyntheticEnv",
    "ar_root_moduli",
    "bump_function",
    "LowerBoundEnv",
    "ReplayLog",
    "load_replay_log",
    "save_replay_log",
    "ReplayStream",
    "generate_history",
    "realized_contexts",
]

BURN_IN_STEPS = 50
LAG_WINDOW = 3
_ARMA_REST = (0.0, 0.0, 0.0, 0.0)  # (S_{t-1}, S_{t-2}, e_{t-1}, e_{t-2})


@dataclass(frozen=True)
class Rollout:
    """T consecutive exogenous steps of an environment, as arrays; row i is
    the step with index t[i].

    potential_rewards[i, a] = arm_means[i, a] + eta_t for every arm, sharing
    the same eta_t.  optimal_arm maximizes arm_means with ties resolved to
    the lower index; optimal_mean is its mean reward.  cond_mean_w and
    cond_sd_w (a scalar, constant over steps) describe the true conditional
    law of W_t given the observed history, and cond_arm_means are the arm
    mean rewards with W_t replaced by its conditional mean.  A rollout of
    several lanes (`rollout_lanes`) has a lanes axis after the T axis in
    every array field, so field[:, j] is lane j's own rollout.
    """

    t: np.ndarray
    full_context: np.ndarray
    observed: np.ndarray
    potential_rewards: np.ndarray
    arm_means: np.ndarray
    optimal_arm: np.ndarray
    optimal_mean: np.ndarray
    cond_mean_w: np.ndarray
    cond_sd_w: float
    cond_arm_means: np.ndarray


def _positive_int(value, name):
    """`value` as an int; a bool, a string or a non-integer number is
    refused by name, as is a value below 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _lane_rngs(rngs):
    """`rngs` as a nonempty list of Generators, one per lane."""
    if not isinstance(rngs, (list, tuple)) or not rngs or not all(
        isinstance(r, np.random.Generator) for r in rngs
    ):
        raise ParameterError("rngs must be a nonempty list of Generators, one per lane")
    return list(rngs)


def _rollout(env, t_end, contexts, eta, cond_sd_w):
    """Rollout of the T steps ending at step t_end from their contexts.

    `contexts` is (2, T, ..., d_Y): each step's full context with the
    realized W, then with W at its conditional mean, with a lanes axis
    after T for a lane rollout; `eta` is the (T, ...) shared reward noise.
    Arm means of both come from one feature block.
    """
    lead = eta.shape
    feats = phi_batch(env.feature_map, contexts.reshape(-1, contexts.shape[-1]))
    arm_means, cond_arm_means = (feats @ env.theta_star).reshape((2,) + lead + (-1,))
    if not np.isfinite(arm_means).all():
        raise EnvError("environment produced non-finite arm means")
    optimal_arm = np.argmax(arm_means, axis=-1)  # first maximum: lowest index
    rows = arm_means.reshape(-1, arm_means.shape[-1])
    full = contexts[0]
    t = np.arange(t_end - lead[0] + 1, t_end + 1)
    return Rollout(
        t=t.repeat(eta[0].size).reshape(lead),
        full_context=full,
        observed=full[..., : env.d_s],
        potential_rewards=arm_means + eta[..., None],
        arm_means=arm_means,
        optimal_arm=optimal_arm,
        optimal_mean=rows[np.arange(rows.shape[0]), optimal_arm.ravel()].reshape(lead),
        cond_mean_w=contexts[1, ..., env.d_s :],
        cond_sd_w=cond_sd_w,
        cond_arm_means=cond_arm_means,
    )


def ar_root_moduli(ar1, ar2):
    """Moduli of the roots of 1 - ar1 z - ar2 z^2.  The AR part is
    stationary when every root lies outside the unit circle.

    The roots are 1 / u for the nonzero roots u of u^2 - ar1 u - ar2.
    """
    disc = cmath.sqrt(ar1 * ar1 + 4.0 * ar2)
    roots_u = ((ar1 + disc) / 2.0, (ar1 - disc) / 2.0)
    return np.array([1.0 / abs(u) for u in roots_u if u != 0])


class SyntheticEnv:
    """ARMA-driven scalar context with a linear or sinusoidal W model.

    S_t = ar1 S_{t-1} + ar2 S_{t-2} + e_t + ma1 e_{t-1} + ma2 e_{t-2},
    e_t ~ N(0, innovation_sd^2).  x_t averages the last LAG_WINDOW values
    of S (true lags, including burn-in history).  W_t = beta_star . x_t
    [+ sin(rho * x_t[1]) when nonlinear] + xi_t.  reset() zeroes the state
    and advances BURN_IN_STEPS steps so the bandit phase starts near
    stationarity.
    """

    d_s = 1
    d_w = 1

    def __init__(
        self,
        arma=(0.75, -0.25, 0.65, 0.35),
        innovation_sd=0.1,
        beta_star=(0.50, -0.14),
        theta_star=(0.65, 1.52, -0.23, -0.23),
        xi_sd=0.1,
        eta_sd=0.05,
        nonlinearity="linear",
    ):
        arma = tuple(float(v) for v in arma)
        if len(arma) != 4:
            raise ParameterError("arma must be (ar1, ar2, ma1, ma2)")
        self.ar1, self.ar2, self.ma1, self.ma2 = arma
        self.innovation_sd = float(innovation_sd)
        self.beta_star = np.asarray(beta_star, dtype=float)
        if self.beta_star.shape != (2,):
            raise ParameterError("beta_star must have two entries (intercept, slope)")
        self.theta_star = np.asarray(theta_star, dtype=float)
        if self.theta_star.shape != (4,):
            raise ParameterError("theta_star must have four entries")
        self.xi_sd = float(xi_sd)
        self.eta_sd = float(eta_sd)
        if self.innovation_sd < 0 or self.xi_sd < 0 or self.eta_sd < 0:
            raise ParameterError("noise scales must be nonnegative")
        if nonlinearity == "linear":
            self.rho = None
        else:
            self.rho = float(nonlinearity)
            if not math.isfinite(self.rho):
                raise ParameterError(f"nonlinearity must be 'linear' or a finite rho")
        if (ar_root_moduli(self.ar1, self.ar2) <= 1.0).any():
            raise ParameterError(
                f"arma AR part (ar1, ar2) = ({self.ar1}, {self.ar2}) is not stationary: "
                "1 - ar1 z - ar2 z^2 has a root on or inside the unit circle"
            )
        self.feature_map = synthetic_interaction_map()
        self._state = _ARMA_REST
        self._t = 0

    def reset(self, rng):
        self._state = self._burn_in(rng)
        self._t = 0
        return self

    def _burn_in(self, rng):
        """The ARMA state after BURN_IN_STEPS steps from rest, drawing the
        burn-in innovations as one block (none when innovation_sd is 0)."""
        if self.innovation_sd > 0:
            innovations = (rng.standard_normal(BURN_IN_STEPS) * self.innovation_sd).tolist()
        else:
            innovations = [0.0] * BURN_IN_STEPS
        return self._arma(_ARMA_REST, innovations)[1]

    def _arma(self, state, innovations):
        """S over the given innovations e_t from `state` = (S_{t-1}, S_{t-2},
        e_{t-1}, e_{t-2}); returns the S values and the state after them.

        Runs on Python floats: the operation order of the recursion is
        fixed, so every platform rounds it alike.
        """
        ar1, ar2, ma1, ma2 = self.ar1, self.ar2, self.ma1, self.ma2
        s1, s2, e1, e2 = state
        out = []
        for e in innovations:
            s = ar1 * s1 + ar2 * s2 + e + ma1 * e1 + ma2 * e2
            out.append(s)
            s2, s1 = s1, s
            e2, e1 = e1, e
        return out, (s1, s2, e1, e2)

    def _draws(self, rng, n_steps):
        """(3, n_steps) draws of e_t, xi_t and eta_t.

        Each step draws them in that order, skipping a draw whose sd is 0;
        they are taken as one standard-normal block scaled by column, which
        gives the same numbers as one N(0, sd^2) draw at a time.
        """
        sds = np.array([self.innovation_sd, self.xi_sd, self.eta_sd])
        live = sds > 0
        draws = np.zeros((3, n_steps))
        draws[live] = sds[live, None] * rng.standard_normal((n_steps, int(live.sum()))).T
        return draws

    def conditional_mean_w(self, s_t, s_lag1, s_lag2):
        """E[W_t | S history]; exact because W depends on S only through x_t."""
        x2 = (s_t + s_lag1 + s_lag2) / LAG_WINDOW
        mu = self.beta_star[0] + self.beta_star[1] * x2
        if self.rho is not None:
            mu += math.sin(self.rho * x2)
        return mu

    def _contexts(self, lags, xi):
        """(2, T, ..., 2) contexts of T steps, with the realized W and with
        W at its conditional mean, from their S values and xi_t draws.

        lags[i], lags[i + 1] and lags[i + 2] along the first axis are
        S_{t-2}, S_{t-1} and S_t of step i.  The conditional means are
        conditional_mean_w's elementwise in its operation order, with
        math.sin on each value, never numpy's sine, whose rounding varies
        by CPU.
        """
        x2 = (lags[2:] + lags[1:-1] + lags[:-2]) / LAG_WINDOW
        mu = self.beta_star[0] + self.beta_star[1] * x2
        if self.rho is not None:
            arg = self.rho * x2
            sines = np.fromiter(map(math.sin, arg.ravel().tolist()), float, arg.size)
            mu += sines.reshape(arg.shape)
        contexts = np.empty((2,) + mu.shape + (2,))
        contexts[..., 0] = lags[2:]
        contexts[1, ..., 1] = mu
        contexts[0, ..., 1] = mu + xi
        return contexts

    def rollout(self, rng, n_steps):
        """The next `n_steps` steps as a Rollout, continuing from the
        current state.

        Each step draws e_t, xi_t and eta_t (see `_draws`).  Any split of a
        rollout into shorter ones, or into single steps, gives the same
        steps.
        """
        n_steps = _positive_int(n_steps, "n_steps")
        e, xi, eta = self._draws(rng, n_steps)
        s, state = self._arma(self._state, e.tolist())
        lags = np.array([self._state[1], self._state[0]] + s)
        self._state = state
        self._t += n_steps
        return _rollout(self, self._t, self._contexts(lags, xi), eta, self.xi_sd)

    def _lane_contexts(self, rngs, n_lanes, n_steps):
        """Contexts (2, T, lanes, 2) and reward noise (T, lanes) of one
        reset and `n_steps`-step rollout on each of the `n_lanes`
        generators that `rngs` yields; only the draws and the ARMA
        recursion run per lane."""
        lags = np.empty((n_steps + 2, n_lanes))
        xi = np.empty((n_steps, n_lanes))
        eta = np.empty((n_steps, n_lanes))
        for j, rng in enumerate(rngs):
            state = self._burn_in(rng)
            e, xi[:, j], eta[:, j] = self._draws(rng, n_steps)
            lags[:2, j] = state[1], state[0]
            lags[2:, j] = self._arma(state, e.tolist())[0]
        return self._contexts(lags, xi), eta

    def rollout_lanes(self, rngs, n_steps):
        """Each lane's `reset(rngs[j])` and `rollout(rngs[j], n_steps)` as
        one Rollout with a lanes axis; the environment's own state is left
        as it is."""
        rngs, n_steps = _lane_rngs(rngs), _positive_int(n_steps, "n_steps")
        contexts, eta = self._lane_contexts(rngs, len(rngs), n_steps)
        return _rollout(self, n_steps, contexts, eta, self.xi_sd)

    def step(self, rng):
        # the one-step rollout; kept only for the benchmark's tracer
        return self.rollout(rng, 1)


def bump_function(beta=1.0, amplitude=0.5):
    """f(o) = amplitude * (1 - ||o||_inf)_+^beta, supported on the unit cube.

    Holder-smooth with exponent beta; vanishes outside [-1, 1]^d, so any
    anchor o0 outside the cube satisfies f(o0) = 0.
    """
    if beta <= 0 or beta > 1:
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")

    def f(o):
        slack = 1.0 - np.abs(np.asarray(o, dtype=float)).max()
        return amplitude * slack**beta if slack > 0 else 0.0

    return f


class LowerBoundEnv:
    """Two-armed stress environment with a latent branch coin.

    theta = (theta_q, 0, 1/2).  On the V = 0 branch the arm means are
    (f(O_t) / 2, 0); on the V = 1 branch they are (theta_q . Q_t,
    -theta_q . Q_t).  W_t = f(O_t) exactly (w_noise_sd = 0 by default), so
    E[W_t | S_t] = f(O_t) holds trivially; rewards are Gaussian with sd
    `reward_sd` around the arm means, sharing one draw per step.
    """

    def __init__(
        self,
        d_lin,
        d_non,
        horizon_for_scaling=1000,
        f=None,
        theta_q=None,
        o0=None,
        reward_sd=0.1,
        w_noise_sd=0.0,
    ):
        if d_lin < 1 or d_non < 1:
            raise ParameterError("d_lin and d_non must be positive")
        self.d_lin = int(d_lin)
        self.d_non = int(d_non)
        self.f = f if f is not None else bump_function()
        if theta_q is None:
            # componentwise magnitude sqrt(d_lin / T): small enough that the
            # linear signal is hard to separate over the given horizon
            theta_q = np.full(d_lin, math.sqrt(d_lin / float(horizon_for_scaling)))
        self.theta_q = np.asarray(theta_q, dtype=float)
        if self.theta_q.shape != (self.d_lin,):
            raise ParameterError(f"theta_q must have shape ({self.d_lin},)")
        self.o0 = (
            np.full(d_non, 1.5) if o0 is None else np.asarray(o0, dtype=float)
        )
        if self.o0.shape != (self.d_non,):
            raise ParameterError(f"o0 must have shape ({self.d_non},)")
        if np.abs(self.o0).max() <= 1.0:
            raise ParameterError("o0 must lie outside [-1, 1]^d_non")
        f_o0 = float(self.f(self.o0))
        if f_o0 != 0.0:
            raise ParameterError(f"f(o0) must be 0, got {f_o0}")
        self.reward_sd = float(reward_sd)
        self.w_noise_sd = float(w_noise_sd)
        if self.reward_sd < 0 or self.w_noise_sd < 0:
            raise ParameterError("noise scales must be nonnegative")
        self.d_s = self.d_lin + self.d_non
        self.d_w = 1
        self.feature_map = lower_bound_two_arm_map(self.d_lin, self.d_non)
        self.theta_star = np.concatenate(
            [self.theta_q, np.zeros(self.d_non), [0.5]]
        )
        self._t = 0

    def reset(self, rng):
        self._t = 0
        return self

    def _lane_contexts(self, rngs, n_lanes, n_steps):
        """Contexts (2, T, lanes, d_Y) and reward noise (T, lanes) of
        `n_steps` steps on each of the `n_lanes` generators that `rngs`
        yields.

        The draws stay one step at a time, in step order (coin, then the
        branch's draws, then the W noise and the reward noise), because
        which draws a step makes depends on its coin.
        """
        contexts = np.zeros((2, n_steps, n_lanes, self.d_s + 1))
        eta = np.empty((n_steps, n_lanes))
        for j, rng in enumerate(rngs):
            for i in range(n_steps):
                y = contexts[0, i, j]  # (Q, O, W), filled in place
                if int(rng.integers(0, 2)) == 0:
                    y[self.d_lin : self.d_s] = rng.uniform(-1.0, 1.0, self.d_non)
                else:
                    y[int(rng.integers(0, self.d_lin))] = 1.0
                    y[self.d_lin : self.d_s] = self.o0
                f_o = float(self.f(y[self.d_lin : self.d_s]))
                if not math.isfinite(f_o):
                    raise EnvError("f returned a non-finite value")
                contexts[1, i, j, -1] = f_o
                y[-1] = f_o + (rng.normal(0.0, self.w_noise_sd) if self.w_noise_sd > 0 else 0.0)
                eta[i, j] = rng.normal(0.0, self.reward_sd) if self.reward_sd > 0 else 0.0
        contexts[1, ..., : self.d_s] = contexts[0, ..., : self.d_s]
        return contexts, eta

    def rollout(self, rng, n_steps):
        """The next `n_steps` steps as a Rollout.  A step does not depend
        on the ones before it, so these are the steps of one lane."""
        n_steps = _positive_int(n_steps, "n_steps")
        contexts, eta = self._lane_contexts([rng], 1, n_steps)
        self._t += n_steps
        return _rollout(self, self._t, contexts[:, :, 0], eta[:, 0], self.w_noise_sd)

    def rollout_lanes(self, rngs, n_steps):
        """Each lane's `reset(rngs[j])` and `rollout(rngs[j], n_steps)` as
        one Rollout with a lanes axis; the environment's own state is left
        as it is."""
        rngs, n_steps = _lane_rngs(rngs), _positive_int(n_steps, "n_steps")
        contexts, eta = self._lane_contexts(rngs, len(rngs), n_steps)
        return _rollout(self, n_steps, contexts, eta, self.w_noise_sd)

    def step(self, rng):
        # the one-step rollout; kept only for the benchmark's tracer
        return self.rollout(rng, 1)


# -- replay -------------------------------------------------------------------


@dataclass
class ReplayLog:
    """Offline logged interaction rows.

    observed has shape (n, d_S); full is (n, d_Y) or None when the log
    carries observed features only; rewards are binary floats.
    """

    observed: np.ndarray
    rewards: np.ndarray
    full: np.ndarray = None
    pool_ids: np.ndarray = None
    row_ids: np.ndarray = None

    def __post_init__(self):
        self.observed = np.asarray(self.observed, dtype=float)
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.observed.ndim != 2:
            raise InputError("observed features must be a 2-d array")
        n = self.observed.shape[0]
        if self.rewards.shape != (n,):
            raise InputError("rewards must be one value per row")
        if self.full is not None:
            self.full = np.asarray(self.full, dtype=float)
            if self.full.shape[0] != n or self.full.ndim != 2:
                raise InputError("full features must have one row per log row")
        if self.pool_ids is None:
            self.pool_ids = np.zeros(n, dtype=int)
        else:
            self.pool_ids = np.asarray(self.pool_ids, dtype=int)
        if self.row_ids is None:
            self.row_ids = np.arange(n)
        else:
            self.row_ids = np.asarray(self.row_ids, dtype=int)
        if not ((self.rewards == 0.0) | (self.rewards == 1.0)).all():
            raise InputError("rewards must be binary (0 or 1)")

    @property
    def n_rows(self):
        return self.observed.shape[0]

    @property
    def d_s(self):
        return self.observed.shape[1]

    @property
    def d_full(self):
        return None if self.full is None else self.full.shape[1]


def save_replay_log(log, path):
    """CSV schema: row_id, pool_id, reward, s_0..s_{dS-1}[, y_0..y_{dY-1}],
    UTF-8, LF line endings."""
    header = ["row_id", "pool_id", "reward"]
    header += [f"s_{j}" for j in range(log.d_s)]
    if log.full is not None:
        header += [f"y_{j}" for j in range(log.d_full)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(log.n_rows):
            row = [int(log.row_ids[i]), int(log.pool_ids[i]), repr(float(log.rewards[i]))]
            row += [repr(float(v)) for v in log.observed[i]]
            if log.full is not None:
                row += [repr(float(v)) for v in log.full[i]]
            writer.writerow(row)


def load_replay_log(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read replay log: {exc}") from exc
    if header is None:
        raise InputError(f"replay log {path} is empty")
    expected_prefix = ["row_id", "pool_id", "reward"]
    if header[:3] != expected_prefix:
        raise InputError(
            f"replay log must start with columns {expected_prefix}, got {header[:3]}"
        )
    s_cols = [i for i, name in enumerate(header) if name.startswith("s_")]
    y_cols = [i for i, name in enumerate(header) if name.startswith("y_")]
    if not s_cols:
        raise InputError("replay log has no observed feature columns s_*")
    if not rows:
        raise InputError(f"replay log {path} has a header but no rows")
    try:
        row_ids = np.array([int(r[0]) for r in rows])
        pool_ids = np.array([int(r[1]) for r in rows])
        rewards = np.array([float(r[2]) for r in rows])
        observed = np.array([[float(r[i]) for i in s_cols] for r in rows])
        full = (
            np.array([[float(r[i]) for i in y_cols] for r in rows]) if y_cols else None
        )
    except (ValueError, IndexError) as exc:
        raise InputError(f"malformed replay log row: {exc}")
    return ReplayLog(
        observed=observed, rewards=rewards, full=full, pool_ids=pool_ids, row_ids=row_ids
    )


# steps of candidates drawn at once: one `integers` call per lane draws a
# block of 64 x (2k - 1) numbers, whatever the length of the log
_BLOCK_STEPS = 64


def _draw_picks(rngs, n, k, steps):
    """The (steps, lanes, k) candidate positions of `steps` consecutive
    steps from n, n - 1, ... rows, lane j drawing from rngs[j].

    Step s of lane j equals rngs[j].choice(n - s, k, replace=False) bit for
    bit wherever numpy's `choice` runs Floyd's sampling (Bentley and Floyd
    1987) and then a Fisher-Yates shuffle: all their bounded draws are ones
    that `integers` makes too, in order, so one call per lane draws the
    block's Floyd highs n - s - k + t and shuffle highs k - 1 - i.  Floyd's
    rule (a repeated draw takes n - s - k + t) and the swaps then run as k
    passes over every (step, lane).  Past 10,000 rows with k > rows // 50,
    `choice` takes a tail shuffle instead; these picks remain k uniform
    distinct positions there.
    """
    tops = (n - np.arange(steps))[:, None] - k + np.arange(k)  # Floyd's highs
    highs = np.concatenate([tops, np.broadcast_to(np.arange(k - 1, 0, -1), (steps, k - 1))], 1)
    draws = np.empty((highs.size, len(rngs)), dtype=np.int64)
    for lane, rng in enumerate(rngs):
        draws[:, lane] = rng.integers(0, highs.ravel(), endpoint=True)
    # one row per draw of a step, one column per (step, lane)
    cols = steps * len(rngs)
    draws = draws.reshape(steps, 2 * k - 1, -1).transpose(1, 0, 2).reshape(2 * k - 1, cols)
    tops = np.repeat(tops.T, len(rngs), axis=1)
    picks = np.empty((k, cols), dtype=np.int64)
    for t in range(k):
        drawn = draws[t]
        picks[t] = np.where((picks[:t] == drawn).any(axis=0), tops[t], drawn)
    every = np.arange(cols)
    for i in range(k - 1, 0, -1):  # swap position i with the drawn j <= i
        j = draws[2 * k - 1 - i]
        held = picks[j, every]
        picks[j, every] = picks[i]
        picks[i] = held
    return picks.T.reshape(steps, len(rngs), k)


class ReplayStream:
    """Serves k-candidate steps from a log's rows to several lanes in
    lockstep, each lane drawing from its own Generator.

    `rewards` holds the logged reward of each row, `rngs` the lanes'
    Generators, one per lane, and `k` the candidate count.  `step()`
    samples each lane's k candidates uniformly without replacement from
    that lane's unconsumed rows; it returns their row indices, (lanes, k),
    and `reveal`.  `reveal` takes the chosen candidate position of every
    lane, consumes the chosen rows and returns their logged rewards,
    (lanes,); a step may be revealed once, and must be before the next
    step.  Only the chosen row is consumed, so n rows support up to n - k +
    1 steps of k candidates; a `horizon` serves at most that many steps.

    Lane j's candidates with n rows left are the positions that
    rngs[j].choice(n, k, replace=False) gives (see `_draw_picks`), drawn
    _BLOCK_STEPS steps ahead, or up to the horizon when it is nearer
    (where a block ends changes no draw).  Every lane consumes one row per
    step, so the lanes' unconsumed rows are one (lanes, n_rows) array whose
    first n columns are live, each row in ascending order.  Consuming a row
    shifts the live entries after it one place left, which keeps that
    order.  The draws depend only on each lane's generator and on n, so a
    lane's candidates and rewards do not depend on which other lanes share
    its stream.
    """

    def __init__(self, rewards, rngs, k, horizon=None):
        self._rngs = _lane_rngs(rngs)
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
            raise ParameterError(f"candidate count k must be a positive integer, got {k!r}")
        self._k = int(k)
        self._rewards = np.asarray(rewards)
        self._lanes = np.arange(len(self._rngs))
        self._n = len(self._rewards)
        # the rows left once the last step is served
        horizon = self._n if horizon is None else _positive_int(horizon, "horizon")
        self._last_n = self._n - horizon
        self._remaining = np.tile(np.arange(self._n), (len(self._rngs), 1))
        self._rows = list(self._remaining)  # each lane's row of it
        # where each lane begins in one step's flat picks and in the flat rows
        self._pick_starts, self._row_starts = self._lanes * self._k, self._lanes[:, None] * self._n
        self._picks = ()  # the drawn block, one (lanes, k) row per step
        self._next = 0  # the block's next row
        self._open = False  # a step was served and not revealed

    def _check_choices(self, choices):
        """The chosen positions as one int per lane, each checked to be an
        integer, not a bool, in [0, k)."""
        k = self._k
        if (
            isinstance(choices, np.ndarray)
            and choices.shape == self._lanes.shape
            and choices.dtype.kind in "iu"
            and choices.min() >= 0
            and choices.max() < k
        ):
            return choices
        values = choices.tolist() if isinstance(choices, np.ndarray) else choices
        if not isinstance(values, (list, tuple)) or len(values) != len(self._rngs):
            raise InputError(
                f"reveal takes one choice per trial ({len(self._rngs)}), got {choices!r}"
            )
        for lane, c in enumerate(values):
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or not 0 <= c < k:
                raise InputError(f"choice {c!r} of trial lane {lane} is not an integer in [0, {k})")
        return values

    def step(self):
        if self._open:
            raise UsageError("reveal each step before the next")
        n, k = self._n, self._k
        if n < k:
            raise EndOfLog(f"only {n} unconsumed rows remain, need {k}")
        if n == self._last_n:
            raise EndOfLog(f"the horizon of {len(self._rewards) - n} steps is served")
        if self._next == len(self._picks):
            steps = min(_BLOCK_STEPS, n - k + 1, n - self._last_n)
            self._picks = _draw_picks(self._rngs, n, k, steps)
            self._next = 0
        picks = self._picks[self._next]
        self._next += 1
        self._open = True
        candidates = self._remaining.take(self._row_starts + picks)

        def reveal(choices):
            """Consume each lane's chosen candidate; returns the chosen
            rows' logged rewards only."""
            if not self._open or self._n != n:
                raise InputError("reveal may be called once per step")
            at = self._pick_starts + self._check_choices(choices)
            for row, p in zip(self._rows, picks.take(at).tolist()):
                row[p : n - 1] = row[p + 1 : n]
            self._n = n - 1
            self._open = False
            return self._rewards[candidates.take(at)]

        return candidates, reveal


def generate_history(make_env, n_traj, t0, base_seed):
    """HistoricalDataset of n_traj independent trajectories of length t0.

    Trajectory i is one lane of a single environment's lane rollout, reset
    on its own labeled substream, so trajectories are i.i.d. draws from the
    same context law as the bandit phase (including burn-in).  Only S and
    W are kept: no features or arm means are built.
    """
    from .imputation import HistoricalDataset
    from .rng import substream

    n_traj = _positive_int(n_traj, "n_traj")
    t0 = _positive_int(t0, "t0")
    env = make_env()
    # each lane's generator lives only while its lane is drawn
    rngs = (substream(base_seed, "pretrain", i) for i in range(n_traj))
    full = realized_contexts(env, rngs, n_traj, t0).swapaxes(0, 1)  # (n_traj, t0, d_Y)
    return HistoricalDataset(s=full[..., : env.d_s].copy(), w=full[..., env.d_s :].copy())


def realized_contexts(env, rngs, n_lanes, n_steps):
    """The realized full contexts, (T, lanes, d_Y), of one reset and
    `n_steps`-step rollout of `env` on each of the `n_lanes` generators
    that `rngs` yields: `rollout_lanes`'s full_context, with no features,
    arm means or rewards built.  A non-finite context is an EnvError."""
    contexts, _ = env._lane_contexts(rngs, n_lanes, n_steps)
    full = contexts[0]
    if not np.isfinite(full).all():
        raise EnvError("environment produced non-finite contexts")
    return full

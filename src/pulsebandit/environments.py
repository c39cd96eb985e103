"""Context-reward environments.

All environments share one step contract: a step carries the full context
Y_t, the observed part S_t, per-arm potential rewards that share a single
noise draw eta_t, the realized-optimal arm (ties to the lower index), and
its mean reward.  Context streams are exogenous: they are pure functions
of (seed, t) and never depend on chosen actions, so the same stream can be
replayed against any set of agents.

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
features, and a binary reward; a replay stream serves k-candidate steps,
consuming only the chosen row.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EndOfLog, EnvError, InputError, ParameterError
from .features import (
    arm_feature_matrix,
    lower_bound_two_arm_map,
    synthetic_interaction_map,
)

__all__ = [
    "EnvironmentStep",
    "SyntheticEnv",
    "bump_function",
    "LowerBoundEnv",
    "ReplayLog",
    "load_replay_log",
    "save_replay_log",
    "ReplayStream",
    "generate_history",
]

BURN_IN_STEPS = 50
LAG_WINDOW = 3


@dataclass(frozen=True)
class EnvironmentStep:
    """One exogenous draw of the environment.

    potential_rewards[a] = arm_means[a] + eta_t for every arm, sharing the
    same eta_t.  optimal_arm maximizes arm_means with ties resolved to the
    lower index; optimal_mean is its mean reward.  cond_mean_w / cond_sd_w
    describe the true conditional law of W_t given the observed history
    (None when the environment does not expose it), and cond_arm_means are
    the arm mean rewards with W_t replaced by its conditional mean.
    """

    t: int
    full_context: np.ndarray
    observed: np.ndarray
    potential_rewards: np.ndarray
    arm_means: np.ndarray
    optimal_arm: int
    optimal_mean: float
    cond_mean_w: np.ndarray = None
    cond_sd_w: float = None
    cond_arm_means: np.ndarray = None


def _finish_step(t, y, s, arm_means, eta, cond_mean_w, cond_sd_w, cond_arm_means):
    arm_means = np.asarray(arm_means, dtype=float)
    if not np.all(np.isfinite(arm_means)):
        raise EnvError("environment produced non-finite arm means")
    optimal_arm = int(np.argmax(arm_means))  # first maximum: lowest index
    return EnvironmentStep(
        t=t,
        full_context=y,
        observed=s,
        potential_rewards=arm_means + eta,
        arm_means=arm_means,
        optimal_arm=optimal_arm,
        optimal_mean=float(arm_means[optimal_arm]),
        cond_mean_w=cond_mean_w,
        cond_sd_w=cond_sd_w,
        cond_arm_means=cond_arm_means,
    )


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
        self.feature_map = synthetic_interaction_map()
        self._s1 = self._s2 = 0.0
        self._e1 = self._e2 = 0.0
        self._t = 0
        self._last_cond_mean = None

    # stationarity: roots of 1 - ar1 z - ar2 z^2 must lie outside the unit
    # circle; for the default coefficients both roots have modulus 2
    def ar_root_moduli(self):
        roots = np.roots([-self.ar2, -self.ar1, 1.0])
        return np.abs(roots)

    def reset(self, rng):
        self._s1 = self._s2 = 0.0
        self._e1 = self._e2 = 0.0
        self._t = 0
        self._last_cond_mean = None
        for _ in range(BURN_IN_STEPS):
            self._advance_s(rng)
        return self

    def _advance_s(self, rng):
        e = rng.normal(0.0, self.innovation_sd) if self.innovation_sd > 0 else 0.0
        s = (
            self.ar1 * self._s1
            + self.ar2 * self._s2
            + e
            + self.ma1 * self._e1
            + self.ma2 * self._e2
        )
        self._s2, self._s1 = self._s1, s
        self._e2, self._e1 = self._e1, e
        return s

    def conditional_mean_w(self, s_t, s_lag1, s_lag2):
        """E[W_t | S history]; exact because W depends on S only through x_t."""
        x2 = (s_t + s_lag1 + s_lag2) / LAG_WINDOW
        mu = self.beta_star[0] + self.beta_star[1] * x2
        if self.rho is not None:
            mu += math.sin(self.rho * x2)
        return mu

    def step(self, rng):
        s_lag1, s_lag2 = self._s1, self._s2
        s = self._advance_s(rng)
        mu = self.conditional_mean_w(s, s_lag1, s_lag2)
        xi = rng.normal(0.0, self.xi_sd) if self.xi_sd > 0 else 0.0
        w = mu + xi
        eta = rng.normal(0.0, self.eta_sd) if self.eta_sd > 0 else 0.0
        self._t += 1
        self._last_cond_mean = mu

        y = np.array([s, w])
        s_vec = np.array([s])
        feats = arm_feature_matrix(self.feature_map, y, s_vec)
        arm_means = feats @ self.theta_star
        cond_feats = arm_feature_matrix(self.feature_map, np.array([s, mu]), s_vec)
        cond_arm_means = cond_feats @ self.theta_star
        return _finish_step(
            self._t,
            y,
            s_vec,
            arm_means,
            eta,
            np.array([mu]),
            self.xi_sd,
            cond_arm_means,
        )

    # oracle accessors used by the oracle imputer, valid for the most
    # recent step only
    def oracle_mean_w(self):
        if self._last_cond_mean is None:
            raise EnvError("no step has been generated yet")
        return np.array([self._last_cond_mean])

    def oracle_sd_w(self):
        return self.xi_sd


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
        self._last_cond_mean = None

    def reset(self, rng):
        self._t = 0
        self._last_cond_mean = None
        return self

    def step(self, rng):
        v = int(rng.integers(0, 2))
        if v == 0:
            q = np.zeros(self.d_lin)
            o = rng.uniform(-1.0, 1.0, self.d_non)
        else:
            q = np.zeros(self.d_lin)
            q[int(rng.integers(0, self.d_lin))] = 1.0
            o = self.o0.copy()
        f_o = float(self.f(o))
        if not math.isfinite(f_o):
            raise EnvError("f returned a non-finite value")
        w = f_o + (rng.normal(0.0, self.w_noise_sd) if self.w_noise_sd > 0 else 0.0)
        eta = rng.normal(0.0, self.reward_sd) if self.reward_sd > 0 else 0.0
        self._t += 1
        self._last_cond_mean = f_o

        y = np.concatenate([q, o, [w]])
        s_vec = y[: self.d_s].copy()
        feats = arm_feature_matrix(self.feature_map, y, s_vec)
        arm_means = feats @ self.theta_star
        y_cond = np.concatenate([q, o, [f_o]])
        cond_arm_means = (
            arm_feature_matrix(self.feature_map, y_cond, s_vec) @ self.theta_star
        )
        return _finish_step(
            self._t,
            y,
            s_vec,
            arm_means,
            eta,
            np.array([f_o]),
            self.w_noise_sd,
            cond_arm_means,
        )

    def oracle_mean_w(self):
        if self._last_cond_mean is None:
            raise EnvError("no step has been generated yet")
        return np.array([self._last_cond_mean])

    def oracle_sd_w(self):
        return self.w_noise_sd


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
        if not set(np.unique(self.rewards)) <= {0.0, 1.0}:
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"replay log {path} is empty")
        rows = list(reader)
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


class ReplayStream:
    """Serves k-candidate steps from a log.

    Each step samples k candidates uniformly without replacement from the
    not-yet-consumed rows; only the row the agent picks is consumed, so a
    log of n rows supports up to n - k + 1 steps of k candidates.
    """

    def __init__(self, log, rng):
        self.log = log
        self.rng = rng
        self._remaining = list(range(log.n_rows))
        self.consumed = 0

    @property
    def n_remaining(self):
        return len(self._remaining)

    def step(self, k):
        if k < 1:
            raise ParameterError("candidate count k must be positive")
        if len(self._remaining) < k:
            raise EndOfLog(
                f"only {len(self._remaining)} unconsumed rows remain, need {k}"
            )
        pick = self.rng.choice(len(self._remaining), size=k, replace=False)
        candidates = [self._remaining[j] for j in pick]
        spent = []

        def reveal(choice):
            """Consume the chosen candidate; returns its logged reward only."""
            if spent:
                raise InputError("reveal may be called once per step")
            if not 0 <= choice < k:
                raise InputError(f"choice {choice} out of range for {k} candidates")
            row = candidates[choice]
            self._remaining.remove(row)
            self.consumed += 1
            spent.append(row)
            return float(self.log.rewards[row])

        return candidates, reveal


def generate_history(make_env, n_traj, t0, base_seed, seed_labels=("pretrain",)):
    """HistoricalDataset of n_traj independent trajectories of length t0.

    Each trajectory uses a fresh environment instance reset on its own
    labeled substream, so trajectories are i.i.d. draws from the same
    context law as the bandit phase (including burn-in).
    """
    from .imputation import HistoricalDataset
    from .rng import substream

    if n_traj < 1 or t0 < 1:
        raise ParameterError("n_traj and t0 must be positive")
    probe = make_env()
    s = np.empty((n_traj, t0, probe.d_s))
    w = np.empty((n_traj, t0, probe.d_w))
    for i in range(n_traj):
        env = make_env()
        rng = substream(base_seed, *seed_labels, i)
        env.reset(rng)
        for t in range(t0):
            step = env.step(rng)
            s[i, t] = step.observed
            w[i, t] = step.full_context[env.d_s :]
    return HistoricalDataset(s=s, w=w, seed=base_seed)

"""A first-principles reference of the paper's UCB agent, played against
the harness on the SYNTHETIC and LOWER_BOUND golden configs.

The reference takes what the harness decides on and nothing of how it
decides: the trials' rollout, each UCB agent's feature block and bound,
and its block of divergence charges, all captured from one `run_trials`.
It keeps Sigma_t = lam I + sum x x^T as a plain sum, solves for theta_hat
and Sigma^{-1} x with `np.linalg.solve`, takes gamma_t from the README
formula with D_tau read from the charge block, scores every arm as
theta_hat . x + sqrt(gamma_t) ||x||_{Sigma^{-1}} and breaks ties toward
the lowest index.  It reads nothing of `RidgeStack`, `current_gamma` or
`arm_ucb_scores`.  Regret is theta_star . (Phi(Y, A*) - Phi(Y, A)), with
Phi(Y, .) the full-context view's features.

Every decisive step, one whose top two reference scores differ by more
than DECISIVE, must pick the harness's arm, and so must every step whose
top scores tie exactly (the golden configs' first steps, whose arms'
features differ only in sign).  At the other steps the reference takes
the harness's arm, so that both go on with one history.
Each lane's cumulative regret and final radius must agree within RTOL.
The ball-maximization agent is held to the closed form, which it must
match on every decisive step.
"""

import math

import numpy as np
import pytest
from test_golden import LOWER_BOUND, SYNTHETIC

from pulsebandit import ExperimentConfig, harness, pretrain, run_trials
from pulsebandit.agents import AgentKind

DECISIVE = 1e-9
RTOL = 1e-9  # fixed before the first run


def reference_gamma(config, dim, bound, t, dt_sum):
    """The README's scaled radius after t >= 1 observations."""
    s = config.schedule
    log_term = (
        math.log(4.0)
        + 2.0 * math.log(t)
        - math.log(s["delta"])
        + dim * math.log1p(t * bound**2 / (dim * s["lambda"]))
    )
    gamma0 = 3.0 * s["lambda"] + 6.0 * (s["sigma_eta"] + s["sigma_eps"]) ** 2 * log_term
    return config.gamma_scale * (gamma0 + 3.0 * dim**2 * dt_sum)


def play_reference(config, lane, played):
    """One lane's (cumulative regret, final radius, decisive steps): `lane`
    holds its rewards, full-context features, feature block, bound and
    charges; the reference takes the harness's arms `played` wherever its
    own top two scores nearly, but not exactly, tie."""
    view, bound = lane["view"], lane["bound"]
    horizon, _, dim = view.shape
    sigma = config.schedule["lambda"] * np.eye(dim)
    xr_sum = np.zeros(dim)
    dt_sum = regret = 0.0
    decisive = 0
    for t in range(horizon):
        feats = view[t]
        gamma = reference_gamma(config, dim, bound, max(t, 1), dt_sum)
        theta = np.linalg.solve(sigma, xr_sum)
        forms = np.einsum("kd,dk->k", feats, np.linalg.solve(sigma, feats.T))
        scores = feats @ theta + math.sqrt(gamma) * np.sqrt(forms)
        arm = int(scores.argmax())  # the first maximum: ties go to the lowest index
        second, first = np.sort(scores)[-2:]
        decisive += first - second > DECISIVE
        if first - second > DECISIVE or first == second:
            assert arm == played[t], f"step {t}: reference arm {arm}, harness {played[t]}"
        arm = int(played[t])
        sigma += np.outer(feats[arm], feats[arm])
        xr_sum += lane["rewards"][t, arm] * feats[arm]
        dt_sum += lane["charges"][t]
        means = lane["full"][t] @ lane["theta_star"]
        regret += means.max() - means[arm]
    return regret, reference_gamma(config, dim, bound, horizon, dt_sum), decisive


@pytest.mark.parametrize("raw", [SYNTHETIC, LOWER_BOUND], ids=["synthetic", "lower_bound"])
def test_the_harness_plays_the_reference_agent(raw, monkeypatch):
    config = ExperimentConfig(raw)
    pre = pretrain(config)
    blocks, rollouts = {}, []
    env_type = type(config.make_env())
    roll, seat = env_type.rollout_lanes, harness._seat_agents

    def keep_rollout(env, rngs, n_steps):
        rollouts.append(roll(env, rngs, n_steps))
        return rollouts[-1]

    def keep_blocks(config, trials, arm_count, view_for, charges_for):
        for spec in config.agents:
            view = view_for(AgentKind(spec["kind"]))
            if view is not None:
                blocks[spec["name"]] = (view, charges_for(spec))
        return seat(config, trials, arm_count, view_for, charges_for)

    monkeypatch.setattr(env_type, "rollout_lanes", keep_rollout)
    monkeypatch.setattr(harness, "_seat_agents", keep_blocks)
    args = (pre["imputer"], pre["plug_in_dt"], pre["feat_norm_bound"])
    out = run_trials(config, range(config.trials), *args)

    rollout = rollouts[-1]
    full = blocks["oful_full"][0].features
    assert len(blocks) >= 3
    for name, (view, charges) in blocks.items():
        for i in range(config.trials):
            lane = {
                "rewards": rollout.potential_rewards[:, i],
                "full": full[:, i],
                "theta_star": config.make_env().theta_star,
                "view": view.features[:, i],
                "bound": view.bound,
                "charges": charges[:, i],
            }
            regret, gamma, decisive = play_reference(config, lane, out["agents"][name]["arm"][i])
            assert decisive >= 0.9 * config.horizon, (name, i, decisive)
            cum_regret = out["agents"][name]["cum_regret"][i, -1]
            assert cum_regret == pytest.approx(regret, rel=RTOL, abs=1e-12), (name, i)
            assert out["final_gamma"][name][i] == pytest.approx(gamma, rel=RTOL), (name, i)

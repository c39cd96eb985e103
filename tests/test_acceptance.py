"""End-to-end acceptance runs at the advertised tolerances.

Each test exercises one headline guarantee of the package on a desk-scale
experiment and records a single [tag] PASS/FAIL line; the terminal summary
replays the lines after the run.  Everything is seeded, so the verdicts are
reproducible bit for bit.
"""

import filecmp
import importlib.resources
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

import pulsebandit.configs
from pulsebandit import (
    AgentKind,
    GammaSchedule,
    GaussianConditional,
    HistoricalDataset,
    LowerBoundEnv,
    SelectionForm,
    SyntheticEnv,
    arm_ucb_scores,
    calibrate_feat_norm_bound,
    estimate_dt_band,
    fit_kernel,
    fit_linear_ar,
    gaussian_kl,
    load_config,
    make_agent,
    new_ridge_state,
    observe,
    phi_batch,
    potential_bound_check,
    quadratic_form_inv,
    rank_one_update,
    run_experiment,
    run_replay,
    select_arm,
    substream,
    synthetic_interaction_map,
    theta_in_ball,
    tv_kl_check,
)

CONFIG_DIR = importlib.resources.files(pulsebandit.configs)


def shipped_config(name):
    return json.loads((CONFIG_DIR / name).read_text())


def final_regrets(result, agent):
    """Per-trial cumulative regret at the last step, ordered by trial (the
    raw CSV's last row of each trial; see
    test_final_cum_regret_is_the_last_raw_row)."""
    return np.array(result["final_cum_regret"][agent])


def no_significant_drop(low, high):
    """p-value of the paired one-sided test that `high` falls below `low`."""
    return stats.ttest_rel(high, low, alternative="less").pvalue


def significant_rise(low, high):
    return stats.ttest_rel(high, low, alternative="greater").pvalue


# ---------------------------------------------------------------------------


def test_a1_linear_ordering_and_gap(tmp_path, acceptance_report):
    """Full-context <= imputing <= observed-only regret, with a 2x gap."""
    start = time.monotonic()
    res = run_experiment(
        load_config(shipped_config("synthetic_linear.json")),
        out_dir=str(tmp_path / "a1"),
    )
    elapsed = time.monotonic() - start

    full = final_regrets(res, "oful_full")
    pulse = final_regrets(res, "pulse_ucb")
    observed = final_regrets(res, "oful_observed")
    p_full_pulse = no_significant_drop(full, pulse)
    p_pulse_obs = no_significant_drop(pulse, observed)
    ratio = pulse.mean() / observed.mean()
    ok = (
        full.mean() <= pulse.mean() <= observed.mean()
        and p_full_pulse >= 0.05
        and p_pulse_obs >= 0.05
        and ratio <= 0.5
        and elapsed <= 120.0
    )
    acceptance_report(
        "A1",
        ok,
        f"final regret {full.mean():.2f} <= {pulse.mean():.2f} <= "
        f"{observed.mean():.2f}, imputing/observed-only = {ratio:.3f} <= 0.5, "
        f"{elapsed:.0f}s",
    )
    assert ok


def test_a2_nonlinearity_sweep_ordering(tmp_path, acceptance_report):
    """Imputing-agent regret grows with the environment's nonlinearity.

    The four members share seeds, trial count, and the whole agent stack;
    only the W map changes.  The first pair may tie; the remaining adjacent
    pairs must rise significantly.
    """
    linear_member = shipped_config("synthetic_nonlinear_rho1.json")
    linear_member["environment"]["nonlinearity"] = "linear"
    linear_member["name"] = "synthetic_nonlinear_linear"
    members = [("linear", linear_member)]
    for tag in ("0.1", "1", "10"):
        members.append((tag, shipped_config(f"synthetic_nonlinear_rho{tag}.json")))

    finals = {}
    for tag, raw in members:
        res = run_experiment(load_config(raw), out_dir=str(tmp_path / f"a2_{tag}"))
        finals[tag] = final_regrets(res, "pulse_ucb")

    means = [finals[tag].mean() for tag, _ in members]
    p_tie = no_significant_drop(finals["linear"], finals["0.1"])
    p_up_mid = significant_rise(finals["0.1"], finals["1"])
    p_up_high = significant_rise(finals["1"], finals["10"])
    ok = p_tie >= 0.05 and p_up_mid < 0.05 and p_up_high < 0.05
    acceptance_report(
        "A2",
        ok,
        "mean final regret " + " -> ".join(f"{m:.2f}" for m in means)
        + f" (first-pair drop p={p_tie:.3f}, rises p={p_up_mid:.1e}, {p_up_high:.1e})",
    )
    assert ok


def test_a3_imputer_error_rates(acceptance_report):
    """Fitted-model error shrinks at the advertised rates.

    Pooled regression: squared coefficient error ~ (N*T0)^{-1}.  Box-kernel
    regression with beta = 1, d_S = 1: mean absolute error ~ N^{-1/3}.
    """
    start = time.monotonic()
    rng = np.random.default_rng(7)

    t0_len = 4
    sizes = [125, 500, 2000]
    mean_sq = []
    for n in sizes:
        errs = []
        for _ in range(50):
            s = rng.normal(0.0, 1.0, (n, t0_len, 1))
            w = 0.3 + 0.8 * s + rng.normal(0.0, 0.5, (n, t0_len, 1))
            imp = fit_linear_ar(HistoricalDataset(s=s, w=w), lag=0)
            errs.append(
                (imp.params["intercept"][0] - 0.3) ** 2
                + (imp.params["coef"][0, 0] - 0.8) ** 2
            )
        mean_sq.append(float(np.mean(errs)))
    slope_linear = np.polyfit(
        np.log([n * t0_len for n in sizes]), np.log(mean_sq), 1
    )[0]

    def f(s):
        return 0.8 * np.sin(2.0 * s)

    queries = np.array([-0.9, -0.45, 0.0, 0.45, 0.9])
    truth = f(queries)
    kernel_sizes = [500, 2000, 8000]
    mean_abs = []
    for n in kernel_sizes:
        errs = []
        for _ in range(50):
            s = rng.uniform(-1.5, 1.5, (n, 1, 1))
            w = f(s) + rng.normal(0.0, 0.3, (n, 1, 1))
            imp = fit_kernel(HistoricalDataset(s=s, w=w), beta=1.0)
            preds = [imp.conditional_mean(np.array([[q]]))[0] for q in queries]
            errs.append(float(np.mean(np.abs(np.asarray(preds) - truth))))
        mean_abs.append(float(np.mean(errs)))
    slope_kernel = np.polyfit(np.log(kernel_sizes), np.log(mean_abs), 1)[0]

    elapsed = time.monotonic() - start
    ok = (
        abs(slope_linear + 1.0) <= 0.2
        and abs(slope_kernel + 1.0 / 3.0) <= 0.15
        and elapsed <= 300.0
    )
    acceptance_report(
        "A3",
        ok,
        f"regression slope {slope_linear:.3f} (target -1 +/- 0.2), kernel slope "
        f"{slope_kernel:.3f} (target -1/3 +/- 0.15), {elapsed:.0f}s",
    )
    assert ok


def test_a4_confidence_ball_coverage(acceptance_report):
    """theta* stays inside the unscaled confidence ball on every step.

    Oracle imputation in the linear interaction environment: features are
    Phi at [S_t | the rollout's true conditional mean of W_t], so the
    per-step divergence is exactly zero; the noise proxy 0.05 + 0.05
    dominates the true residual scale sqrt(eta^2 + theta_W^2 xi^2) ~ 0.055.
    """
    fmap = synthetic_interaction_map()
    env_b = SyntheticEnv(nonlinearity="linear")
    env_b.reset(substream(2024, "feat-norm"))
    dry_run = env_b.rollout(substream(2024, "feat-norm", "draws"), 4000)
    bound, _ = calibrate_feat_norm_bound(fmap, dry_run.full_context)

    # every trial is one lane of a lockstep agent over one lane rollout
    trials, horizon = 200, 500
    env = SyntheticEnv(nonlinearity="linear")
    rollout = env.rollout_lanes(
        [substream(2024, "trial", i, "env") for i in range(trials)], horizon
    )
    contexts = np.concatenate([rollout.observed, rollout.cond_mean_w], axis=2)
    blocks = phi_batch(fmap, contexts.reshape(horizon * trials, -1))
    blocks = blocks.reshape((horizon, trials) + blocks.shape[1:])
    sched = GammaSchedule(
        lam=1.0,
        sigma_eta=0.05,
        delta=0.1,
        feat_norm_bound=bound,
        dim=4,
        sigma_eps=0.05,
        scale=1.0,
    )
    agent = make_agent(
        "pulse", AgentKind.PULSE_UCB, arm_count=2, dim=4, schedule=sched, trials=trials
    )
    lanes = np.arange(trials)
    inside_all = np.ones(trials, dtype=bool)
    for feats, rewards in zip(blocks, rollout.potential_rewards):
        arms = select_arm(agent, feats)
        observe(agent, feats[lanes, arms], rewards[lanes, arms], dt_value=0.0)
        inside_all &= theta_in_ball(agent, env.theta_star)
    covered = int(inside_all.sum())
    coverage = covered / trials
    ok = coverage >= 0.88
    acceptance_report(
        "A4", ok, f"all-step coverage {coverage:.3f} >= 0.88 over {trials} trials"
    )
    assert ok


def test_a5_selection_form_agreement(acceptance_report):
    """Closed-form scores match explicit ball maximization arm for arm."""
    rng = np.random.default_rng(11)
    instances = 10_000
    checked = agree = 0
    worst_gap = 0.0
    for _ in range(instances):
        dim = int(rng.integers(1, 7))
        arms = int(rng.integers(2, 6))
        kw = dict(
            lam=float(rng.uniform(0.3, 3.0)),
            sigma_eta=float(rng.uniform(0.0, 0.3)),
            delta=float(rng.uniform(0.02, 0.5)),
            feat_norm_bound=float(rng.uniform(0.0, 2.0)),
            dim=dim,
        )
        # the charge each observation adds; drawn between feat_norm_bound and
        # sigma_eps, an order that fixes the rng sequence and so the instances
        dt_value = float(rng.uniform(0.0, 0.1))
        kw.update(sigma_eps=float(rng.uniform(0.2, 2.0)), scale=float(rng.uniform(0.05, 2.0)))
        closed = make_agent(
            "cf", AgentKind.OFUL_FULL, arms, dim=dim, schedule=GammaSchedule(**kw)
        )
        ball = make_agent(
            "bm",
            AgentKind.OFUL_FULL,
            arms,
            dim=dim,
            schedule=GammaSchedule(**kw),
            selection_form=SelectionForm.BALL_MAXIMIZATION,
        )
        for _ in range(int(rng.integers(0, 9))):
            x = rng.normal(0.0, 1.0, dim)
            r = float(rng.normal())
            observe(closed, x, r, dt_value=dt_value)
            observe(ball, x, r, dt_value=dt_value)
        feats = rng.normal(0.0, 1.0, (arms, dim))
        s_cf = arm_ucb_scores(closed, feats)
        s_bm = arm_ucb_scores(ball, feats)
        worst_gap = max(worst_gap, float(np.max(np.abs(s_cf - s_bm))))
        top_two = np.sort(s_cf)[-2:]
        if top_two[1] - top_two[0] > 1e-9:
            checked += 1
            agree += int(select_arm(closed, feats) == select_arm(ball, feats))
    ok = worst_gap <= 1e-9 and agree == checked
    acceptance_report(
        "A5",
        ok,
        f"max score gap {worst_gap:.2e} <= 1e-9, arm agreement {agree}/{checked} "
        f"decisive instances of {instances}",
    )
    assert ok


def test_a6_ridge_identities_and_potential(acceptance_report):
    """Incremental log-det and solves track dense recomputation; the
    determinant growth cap holds on random bounded sequences."""
    rng = np.random.default_rng(23)
    dim, lam, steps = 6, 1.3, 10_000
    state = new_ridge_state(dim, lam)
    gram = lam * np.eye(dim)
    xr = np.zeros(dim)
    worst_per_step = 0.0
    for t in range(1, steps + 1):
        x = rng.normal(0.0, 0.7, dim)
        r = float(rng.normal())
        rank_one_update(state, x, r)
        gram += np.outer(x, x)
        xr += r * x
        _, dense_logdet = np.linalg.slogdet(gram)
        worst_per_step = max(worst_per_step, abs(state.log_det - dense_logdet) / t)
    ok_logdet = worst_per_step <= 1e-9

    probes = rng.normal(0.0, 1.0, (100, dim))
    worst_solve = 0.0
    for v in probes:
        worst_solve = max(
            worst_solve,
            abs(quadratic_form_inv(state, v) - float(v @ np.linalg.solve(gram, v))),
        )
    worst_solve = max(
        worst_solve, float(np.abs(state.theta_hat - np.linalg.solve(gram, xr)).max())
    )
    ok_solve = worst_solve <= 1e-8

    violations = 0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        horizon = int(rng.integers(5, 121))
        b = float(rng.uniform(0.2, 3.0))
        st = new_ridge_state(d, float(rng.uniform(0.3, 2.5)))
        for _ in range(horizon):
            x = rng.normal(0.0, 1.0, d)
            norm = float(np.linalg.norm(x))
            if norm > 0.0:
                x *= float(rng.uniform(0.0, 1.0)) * b / norm
            rank_one_update(st, x, float(rng.normal()))
        holds, _ = potential_bound_check(st, horizon, b)
        violations += 0 if holds else 1

    ok = ok_logdet and ok_solve and violations == 0
    acceptance_report(
        "A6",
        ok,
        f"log-det drift {worst_per_step:.2e}/step <= 1e-9, solve gap "
        f"{worst_solve:.2e} <= 1e-8 after {steps} updates, potential bound "
        f"violations {violations}/1000",
    )
    assert ok


def test_a7_divergence_closed_form_and_diagnostic(acceptance_report):
    """Gaussian KL closed form matches quadrature; the mean-gap diagnostic
    accepts true divergences and flags an underreported one."""
    rng = np.random.default_rng(31)
    worst_quad = 0.0
    for _ in range(100):
        truth = GaussianConditional(
            float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.3, 2.5))
        )
        model = GaussianConditional(
            float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.3, 2.5))
        )

        def integrand(x):
            log_p = -0.5 * ((x - truth.mean) / truth.sd) ** 2 - math.log(truth.sd)
            log_q = -0.5 * ((x - model.mean) / model.sd) ** 2 - math.log(model.sd)
            return math.exp(log_p) / math.sqrt(2.0 * math.pi) * (log_p - log_q)

        numeric, _ = integrate.quad(
            integrand,
            truth.mean - 12.0 * truth.sd,
            truth.mean + 12.0 * truth.sd,
            limit=200,
        )
        worst_quad = max(worst_quad, abs(gaussian_kl(truth, model) - numeric))
    ok_quad = worst_quad <= 1e-6

    rng2 = np.random.default_rng(37)
    diagnostics_passed = 0
    for _ in range(100):
        mean = float(rng2.uniform(-2.0, 2.0))
        sd = float(rng2.uniform(0.4, 2.0))
        truth = GaussianConditional(mean, sd)
        gap = float(rng2.uniform(0.3, 1.5)) * sd * (1 if rng2.uniform() < 0.5 else -1)
        model = GaussianConditional(mean + gap, sd * float(rng2.uniform(0.7, 1.5)))
        report = tv_kl_check(truth, model, n_samples=20_000, rng=rng2)
        diagnostics_passed += int(report.passed)

    control = tv_kl_check(
        GaussianConditional(0.0, 1.0),
        GaussianConditional(1.6, 1.0),
        dt=1e-4,  # planted underreport of the true divergence 0.64
        n_samples=20_000,
        rng=np.random.default_rng(41),
    )
    ok = ok_quad and diagnostics_passed == 100 and not control.passed
    acceptance_report(
        "A7",
        ok,
        f"closed-form vs quadrature gap {worst_quad:.2e} <= 1e-6, diagnostic "
        f"{diagnostics_passed}/100 true pairs, negative control flagged: "
        f"{not control.passed}",
    )
    assert ok


def test_a8_band_coverage_and_shrinkage(acceptance_report):
    """The uniform band covers a known conditional mean and its sup-width
    surrogate shrinks with the sample size."""

    def f(s):
        return 0.3 * s + 0.2 * np.sin(2.0 * s)

    rng = np.random.default_rng(5)
    datasets = 200
    covered = 0
    for i in range(datasets):
        s = rng.uniform(-2.0, 2.0, (600, 1, 1))
        w = f(s) + rng.normal(0.0, 0.2, s.shape)
        band = estimate_dt_band(
            HistoricalDataset(s=s, w=w), alpha=0.1, split_seed=i, rng=rng
        )
        truth = f(band.grid[:, 0])
        covered += int(
            np.all(np.abs(truth - band.centers[:, 0]) <= band.half_widths[:, 0])
        )
    coverage = covered / datasets

    means = []
    for n in (500, 2000, 8000):
        vals = []
        for i in range(30):
            s = rng.uniform(-2.0, 2.0, (n, 1, 1))
            w = f(s) + rng.normal(0.0, 0.2, s.shape)
            band = estimate_dt_band(
                HistoricalDataset(s=s, w=w), alpha=0.1, split_seed=1000 + i, rng=rng
            )
            vals.append(band.dhat)
        means.append(float(np.mean(vals)))

    ok = coverage >= 0.85 and means[0] >= means[1] >= means[2]
    acceptance_report(
        "A8",
        ok,
        f"band coverage {coverage:.3f} >= 0.85 at alpha=0.1, mean dhat "
        f"{means[0]:.3f} >= {means[1]:.3f} >= {means[2]:.3f} over N=500/2000/8000",
    )
    assert ok


def test_a9_stress_env_branch_statistics(acceptance_report):
    """The two-branch stress environment draws its coin fairly and both
    branches' realized rewards center on the analytic means."""
    d_lin, d_non, horizon_scale = 4, 2, 1000
    env = LowerBoundEnv(d_lin=d_lin, d_non=d_non, horizon_for_scaling=horizon_scale)
    rng = substream(99, "stress")
    env.reset(rng)

    n = 100_000
    v_ones = 0
    # running sums over the steps in order, indexed [v][arm]
    sums, sq_sums, counts = [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [[0, 0], [0, 0]]
    rollout = env.rollout(rng, n)
    for y, rewards in zip(rollout.full_context.tolist(), rollout.potential_rewards.tolist()):
        v = int(any(q != 0.0 for q in y[:d_lin]))
        v_ones += v
        for arm in (0, 1):
            r = rewards[arm]
            sums[v][arm] += r
            sq_sums[v][arm] += r * r
            counts[v][arm] += 1

    p_hat = v_ones / n
    ci_99 = 2.576 * math.sqrt(0.25 / n)
    ok_coin = abs(p_hat - 0.5) <= ci_99

    # linear branch: +/- theta_q . Q with a single active unit coordinate;
    # nonparametric branch: (E f(O) / 2, 0) with E f = amplitude / (d_non + 1)
    signal = math.sqrt(d_lin / horizon_scale)
    expected = {(1, 0): signal, (1, 1): -signal, (0, 0): 0.5 / (d_non + 1) / 2.0, (0, 1): 0.0}
    worst_z = 0.0
    for (v, arm), target in expected.items():
        m = counts[v][arm]
        mean = sums[v][arm] / m
        var = sq_sums[v][arm] / m - mean * mean
        se = math.sqrt(max(var, 1e-30) / m)
        worst_z = max(worst_z, abs(mean - target) / se)
    ok = ok_coin and worst_z <= 3.0
    acceptance_report(
        "A9",
        ok,
        f"P(V=1) = {p_hat:.4f} (|dev| <= {ci_99:.4f}), worst branch-mean z = "
        f"{worst_z:.2f} <= 3",
    )
    assert ok


def test_a10_bitexact_reruns(tmp_path, acceptance_report):
    """Reruns from emitted metadata and repeated replays are bit-exact."""
    raw = {
        "schema_version": 1,
        "name": "determinism-check",
        "base_seed": 424241,
        "horizon": 80,
        "trials": 2,
        "gamma_scale": 0.05,
        "environment": {"kind": "synthetic", "nonlinearity": "linear"},
        "schedule": {"lambda": 1.0, "delta": 0.1, "sigma_eta": 0.05, "sigma_eps": 1.0},
        "imputer": {"kind": "linear_ar", "lag": 2},
        "pretrain": {"n": 80, "t0": 30, "seed": 3},
        "agents": [
            {"name": "pulse_ucb", "kind": "pulse_ucb", "dt_source": "oracle"},
            {"name": "oful_full", "kind": "oful_full", "dt_source": "oracle"},
        ],
        "output": {"dir": "unused"},
    }
    first = run_experiment(load_config(raw), out_dir=str(tmp_path / "sim1"))
    rerun = run_experiment(
        load_config(first["metadata_path"]), out_dir=str(tmp_path / "sim2")
    )
    ok_sim = filecmp.cmp(first["raw_path"], rerun["raw_path"], shallow=False)

    replay_cfg = str(CONFIG_DIR / "replay_demo.json")
    replay_one = run_replay(load_config(replay_cfg), out_dir=str(tmp_path / "rep1"))
    replay_two = run_replay(load_config(replay_cfg), out_dir=str(tmp_path / "rep2"))
    ok_replay = filecmp.cmp(
        replay_one["raw_path"], replay_two["raw_path"], shallow=False
    )

    ok = ok_sim and ok_replay
    acceptance_report(
        "A10",
        ok,
        f"metadata rerun bit-exact: {ok_sim}, repeated replay bit-exact: {ok_replay}",
    )
    assert ok

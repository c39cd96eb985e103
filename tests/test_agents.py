import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsebandit import (
    AgentKind,
    ConfigError,
    GammaSchedule,
    InputError,
    ParameterError,
    SelectionForm,
    UsageError,
    arm_ucb_scores,
    current_gamma,
    gamma_at,
    gamma_zero,
    make_agent,
    observe,
    select_arm,
    substream,
    theta_in_ball,
)


def simple_schedule(**kw):
    base = dict(
        lam=1.0, sigma_eta=0.0, delta=1.0, feat_norm_bound=0.0, dim=1,
        sigma_eps=2.0, scale=1.0,
    )
    base.update(kw)
    return GammaSchedule(**base)


def test_gamma_zero_worked_example():
    # lam=1, sigma_eta=0, delta=1, B=0, d=1, t=1: 3 + 24 ln 4
    sched = simple_schedule()
    assert gamma_zero(sched, 1) == pytest.approx(3.0 + 24.0 * math.log(4.0), abs=1e-12)


def test_gamma_additive_divergence_term():
    # 3 d^2 sum(D): d=4 and sum(D)=1 adds exactly 48
    sched = simple_schedule(dim=4)
    sched.dt_cumsum = 1.0
    assert gamma_at(sched, 1) == pytest.approx(gamma_zero(sched, 1) + 48.0, abs=1e-10)


def test_gamma_scale_multiplies_everything():
    s1 = simple_schedule(scale=1.0)
    s2 = simple_schedule(scale=0.02)
    assert gamma_at(s2, 5) == pytest.approx(0.02 * gamma_at(s1, 5), rel=1e-12)


def test_gamma_grows_with_t_and_b():
    sched = simple_schedule(feat_norm_bound=1.0)
    assert gamma_zero(sched, 10) > gamma_zero(sched, 1)
    bigger_b = simple_schedule(feat_norm_bound=3.0)
    assert gamma_zero(bigger_b, 10) > gamma_zero(sched, 10)


def test_schedule_validation_names_fields():
    with pytest.raises(ConfigError) as err:
        simple_schedule(delta=0.0)
    assert "delta" in str(err.value)
    with pytest.raises(ConfigError) as err:
        simple_schedule(delta=1.5)
    assert "delta" in str(err.value)
    with pytest.raises(ConfigError) as err:
        simple_schedule(lam=0.0)
    assert "lam" in str(err.value)
    with pytest.raises(ConfigError) as err:
        simple_schedule(sigma_eta=-1.0)
    assert "sigma_eta" in str(err.value)
    # delta = 1 is allowed (pure-exploit corner used by worked examples)
    simple_schedule(delta=1.0)


def test_make_agent_requirements():
    with pytest.raises(ParameterError):
        make_agent("a", AgentKind.OFUL_FULL, arm_count=2)  # no schedule
    sched = simple_schedule(dim=3)
    with pytest.raises(ParameterError):
        make_agent("a", AgentKind.OFUL_FULL, arm_count=2, dim=2, schedule=sched)
    # pulse_ucb takes its imputed features from the caller: no imputer
    assert make_agent("p", AgentKind.PULSE_UCB, arm_count=2, dim=3, schedule=sched).is_ucb
    agent = make_agent("u", AgentKind.UNIFORM_RANDOM, arm_count=4)
    assert not agent.is_ucb and agent.ridge is None


@pytest.mark.parametrize("kind", list(AgentKind), ids=lambda k: k.value)
def test_make_agent_rejects_a_trial_count_below_one(kind):
    sched = simple_schedule(dim=2)
    for trials in (0, -3, 1.5, True):
        with pytest.raises(ParameterError, match="trials"):
            make_agent("a", kind, arm_count=2, dim=2, schedule=sched, trials=trials)
    assert make_agent("a", kind, arm_count=2, dim=2, schedule=sched, trials=1).trials == 1


def test_theta_in_ball_flags_each_lane_as_its_one_trial_agent():
    # one flag per lane of a lockstep agent, each the answer of a one-trial
    # agent fed that lane's rows; the lanes' data make some flags differ
    rng = substream(46, "ball")
    trials, dim = 6, 2
    sched = simple_schedule(dim=dim, feat_norm_bound=1.0, sigma_eps=0.05)
    lockstep = make_agent("f", AgentKind.OFUL_FULL, arm_count=2, dim=dim, schedule=sched,
                          trials=trials)
    alone = [make_agent("f", AgentKind.OFUL_FULL, arm_count=2, dim=dim, schedule=sched)
             for _ in range(trials)]
    theta = np.array([0.5, -0.25])
    seen = set()
    for _ in range(40):
        rows = rng.standard_normal((trials, dim))
        rewards = rows @ theta + rng.normal(0.0, 0.05, trials) + (np.arange(trials) > 2)
        dts = rng.uniform(0.0, 0.01, trials)
        observe(lockstep, rows, rewards, dt_value=dts)
        for lane, agent in enumerate(alone):
            observe(agent, rows[lane], rewards[lane], dt_value=dts[lane])
        flags = theta_in_ball(lockstep, theta)
        assert flags.shape == (trials,) and flags.dtype == bool
        assert flags.tolist() == [theta_in_ball(agent, theta) for agent in alone]
        seen.update(flags.tolist())
    assert seen == {True, False}


def test_fresh_agent_gamma_is_t1_value():
    sched = simple_schedule(scale=0.5)
    agent = make_agent("f", AgentKind.OFUL_FULL, arm_count=2, dim=1, schedule=sched)
    assert current_gamma(agent) == pytest.approx(0.5 * gamma_zero(sched, 1), rel=1e-12)


def test_select_closed_form_prefers_high_ucb():
    sched = simple_schedule(dim=2, feat_norm_bound=2.0)
    agent = make_agent("f", AgentKind.OFUL_FULL, arm_count=2, dim=2, schedule=sched)
    # fresh state: theta_hat = 0, Sigma = I; UCB = sqrt(gamma) * ||x||
    feats = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert select_arm(agent, feats) == 1


def test_select_ties_break_to_lowest_index():
    sched = simple_schedule(dim=2, feat_norm_bound=2.0)
    agent = make_agent("f", AgentKind.OFUL_FULL, arm_count=3, dim=2, schedule=sched)
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert select_arm(agent, feats) == 0


def test_oracle_best_requires_injection():
    agent = make_agent("o", AgentKind.ORACLE_BEST, arm_count=2)
    assert select_arm(agent, None, optimal_arm=1) == 1
    with pytest.raises(UsageError):
        select_arm(agent, None)


def test_uniform_requires_rng_and_covers_arms():
    agent = make_agent("u", AgentKind.UNIFORM_RANDOM, arm_count=3)
    with pytest.raises(UsageError):
        select_arm(agent, None)
    rng = substream(41, "pick")
    picks = {select_arm(agent, None, rng=rng) for _ in range(100)}
    assert picks == {0, 1, 2}


def test_observe_scalar_worked_example():
    sched = simple_schedule()
    agent = make_agent("f", AgentKind.OFUL_FULL, arm_count=2, dim=1, schedule=sched)
    observe(agent, np.array([1.0]), 1.0)
    assert agent.ridge.gram[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert agent.ridge.theta_hat[0] == pytest.approx(0.5, abs=1e-15)


def test_observe_dt_policies():
    # observe adds the charge it is given, 0 by default; a one-trial agent
    # refuses a negative or non-finite charge, or more than one, before it
    # changes, and a lockstep agent adds one charge per trial or one for all
    agent = make_agent("a", AgentKind.OFUL_FULL, arm_count=2, dim=1,
                       schedule=simple_schedule())
    observe(agent, np.array([1.0]), 0.0)
    assert agent.schedule.dt_cumsum == 0.0
    observe(agent, np.array([1.0]), 0.0, dt_value=0.25)
    observe(agent, np.array([1.0]), 0.0, dt_value=0.5)
    assert agent.schedule.dt_cumsum == 0.75
    for bad in (-0.1, float("nan"), float("inf"), [0.1, 0.2]):
        with pytest.raises(InputError, match="dt_value"):
            observe(agent, np.array([1.0]), 0.0, dt_value=bad)
    assert agent.schedule.dt_cumsum == 0.75 and agent.ridge.update_count == 3

    lockstep = make_agent("l", AgentKind.OFUL_FULL, arm_count=2, dim=1, trials=3,
                          schedule=simple_schedule())
    observe(lockstep, np.ones((3, 1)), np.zeros(3), dt_value=np.array([0.0, 0.25, 0.5]))
    observe(lockstep, np.ones((3, 1)), np.zeros(3), dt_value=0.25)
    assert lockstep.schedule.dt_cumsum.tolist() == [0.25, 0.5, 0.75]


def test_dt_cumsum_read_before_observe_keeps_its_value():
    # observe rebinds the divergence sum rather than add into it, for one
    # trial and for lockstep trials
    for trials in (None, 3):
        agent = make_agent("a", AgentKind.OFUL_FULL, arm_count=2, dim=1, trials=trials,
                           schedule=simple_schedule())
        row = np.ones(1) if trials is None else np.ones((trials, 1))
        reward = 0.0 if trials is None else np.zeros(trials)
        before = agent.schedule.dt_cumsum
        frozen = np.copy(before)
        observe(agent, row, reward, dt_value=0.5)
        assert np.array_equal(before, frozen)
        assert np.all(agent.schedule.dt_cumsum > before)


def test_a_lane_group_reads_each_members_radius():
    # a schedule of two bounds makes a lane group of 2 x 3 lanes: lane block
    # j's radius is, bit for bit, that of an agent on bound j alone, before
    # and after observations
    bounds = (1.5, 0.75)
    group = make_agent("g", AgentKind.OFUL_FULL, arm_count=2, dim=2, trials=6,
                       schedule=simple_schedule(dim=2, feat_norm_bound=bounds))
    alone = [make_agent(f"a{j}", AgentKind.OFUL_FULL, arm_count=2, dim=2, trials=3,
                        schedule=simple_schedule(dim=2, feat_norm_bound=b))
             for j, b in enumerate(bounds)]
    assert gamma_zero(group.schedule, 4) == tuple(gamma_zero(a.schedule, 4) for a in alone)
    rng = np.random.default_rng(3)
    for step in range(3):
        want = np.concatenate([current_gamma(a) for a in alone])
        assert current_gamma(group).tolist() == want.tolist()
        rows, dt = rng.standard_normal((6, 2)), rng.random(6)
        observe(group, rows, np.zeros(6), dt_value=dt)
        for j, a in enumerate(alone):
            observe(a, rows[3 * j : 3 * j + 3], np.zeros(3), dt_value=dt[3 * j : 3 * j + 3])
    with pytest.raises(ParameterError, match="multiple of 2"):
        make_agent("g", AgentKind.OFUL_FULL, arm_count=2, dim=2, trials=5,
                   schedule=simple_schedule(dim=2, feat_norm_bound=bounds))
    with pytest.raises(ParameterError, match="multiple of 2"):
        make_agent("g", AgentKind.OFUL_FULL, arm_count=2, dim=2,
                   schedule=simple_schedule(dim=2, feat_norm_bound=bounds))
    for bad in ((), (1.0, -1.0), (1.0, math.inf)):
        with pytest.raises(ConfigError, match="schedule.feat_norm_bound"):
            simple_schedule(feat_norm_bound=bad)


def test_gamma_increases_after_divergence():
    # two agents at the same update count isolate the 3 d^2 sum(D) term
    clean = make_agent("a", AgentKind.OFUL_FULL, arm_count=2, dim=2,
                       schedule=simple_schedule(dim=2, feat_norm_bound=1.0))
    noisy = make_agent("b", AgentKind.OFUL_FULL, arm_count=2, dim=2,
                       schedule=simple_schedule(dim=2, feat_norm_bound=1.0))
    for dt_clean, dt_noisy in [(0.0, 0.0), (0.0, 2.0)]:
        observe(clean, np.array([1.0, 0.0]), 0.0, dt_value=dt_clean)
        observe(noisy, np.array([1.0, 0.0]), 0.0, dt_value=dt_noisy)
    assert current_gamma(noisy) == pytest.approx(
        current_gamma(clean) + 3 * 4 * 2.0, rel=1e-9)


def test_selection_forms_agree_on_random_instances():
    rng = substream(42, "forms")
    sched_kw = dict(feat_norm_bound=1.5)
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        arms = int(rng.integers(2, 5))
        cf = make_agent("cf", AgentKind.OFUL_FULL, arm_count=arms, dim=dim,
                        schedule=simple_schedule(dim=dim, **sched_kw))
        bm = make_agent("bm", AgentKind.OFUL_FULL, arm_count=arms, dim=dim,
                        schedule=simple_schedule(dim=dim, **sched_kw),
                        selection_form=SelectionForm.BALL_MAXIMIZATION)
        for _ in range(int(rng.integers(1, 30))):
            x = rng.standard_normal(dim)
            r = rng.standard_normal()
            observe(cf, x, r)
            observe(bm, x, r)
        feats = rng.standard_normal((arms, dim))
        assert select_arm(cf, feats) == select_arm(bm, feats)


@settings(max_examples=100, deadline=None)
@given(
    trials=st.integers(2, 6),
    dim=st.integers(1, 6),
    arms=st.integers(2, 20),
    updates=st.integers(0, 30),
    lam=st.floats(0.3, 3.0),
    scale=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_selection_forms_agree(trials, dim, arms, updates, lam, scale, seed):
    # A5's property on the lockstep path: the two forms score every trial's
    # arms within 1e-9 of each other and pick the same arm in every trial
    # whose top two scores differ by more than that; some rows are zero
    rng = np.random.default_rng(seed)
    kw = dict(lam=lam, sigma_eta=0.1, delta=0.1, feat_norm_bound=1.5, dim=dim,
              scale=scale)
    cf = make_agent("cf", AgentKind.OFUL_FULL, arms, dim=dim, schedule=GammaSchedule(**kw),
                    trials=trials)
    bm = make_agent("bm", AgentKind.OFUL_FULL, arms, dim=dim, schedule=GammaSchedule(**kw),
                    selection_form=SelectionForm.BALL_MAXIMIZATION, trials=trials)
    for _ in range(updates):
        x = rng.normal(0.0, 1.0, (trials, dim))
        r = rng.normal(0.0, 1.0, trials)
        observe(cf, x, r, dt_value=0.01)
        observe(bm, x, r, dt_value=0.01)
    feats = rng.normal(0.0, 1.0, (trials, arms, dim))
    feats[rng.random((trials, arms)) < 0.1] = 0.0
    s_cf = arm_ucb_scores(cf, feats)
    s_bm = arm_ucb_scores(bm, feats)
    assert s_cf.shape == (trials, arms)
    assert np.abs(s_cf - s_bm).max() <= 1e-9
    top_two = np.sort(s_cf, axis=1)[:, -2:]
    decisive = top_two[:, 1] - top_two[:, 0] > 1e-9
    assert np.array_equal(select_arm(cf, feats)[decisive], select_arm(bm, feats)[decisive])


def test_one_trial_api_returns_python_types():
    # a one-trial agent runs on the stacked kernel with an empty batch
    # shape; its public functions still take one row and give plain values
    rng = substream(45, "types")
    kinds = [
        ("closed", AgentKind.OFUL_FULL, SelectionForm.CLOSED_FORM),
        ("ball", AgentKind.OFUL_FULL, SelectionForm.BALL_MAXIMIZATION),
    ]
    for name, kind, form in kinds:
        agent = make_agent(name, kind, arm_count=3, dim=4, selection_form=form,
                           schedule=simple_schedule(dim=4, feat_norm_bound=1.5))
        for step in range(3):
            gamma = current_gamma(agent)
            assert isinstance(gamma, float)
            feats = rng.standard_normal((3, 4))
            scores = arm_ucb_scores(agent, feats)
            assert scores.shape == (3,)
            arm = select_arm(agent, feats)
            assert type(arm) is int and 0 <= arm < 3
            assert observe(agent, feats[arm], 0.5, dt_value=0.1) is agent
            assert agent.ridge.theta_hat.shape == (4,)
            assert agent.ridge.gram.shape == (4, 4)
            assert isinstance(agent.ridge.log_det, float) and math.isfinite(agent.ridge.log_det)
        assert isinstance(agent.schedule.dt_cumsum, float)
        assert agent.schedule.dt_cumsum == pytest.approx(0.3, rel=1e-15)
        assert isinstance(current_gamma(agent), float)
        inside = theta_in_ball(agent, agent.ridge.theta_hat)
        assert type(inside) is bool and inside
        with pytest.raises(InputError):
            observe(agent, feats[:2], 0.5, dt_value=0.1)  # not one (dim,) row
        with pytest.raises(InputError):
            observe(agent, np.array([1.0, np.nan, 0.0, 0.0]), 0.5, dt_value=0.1)
        with pytest.raises(InputError):
            observe(agent, feats[0], float("nan"), dt_value=0.1)
        with pytest.raises(InputError):
            select_arm(agent, feats[0])  # one row, not (n_arms, dim)
    assert agent.ridge.update_count == 3
    oracle = make_agent("o", AgentKind.ORACLE_BEST, arm_count=3)
    assert type(select_arm(oracle, None, optimal_arm=np.int64(2))) is int
    uniform = make_agent("u", AgentKind.UNIFORM_RANDOM, arm_count=3)
    assert type(select_arm(uniform, None, rng=rng)) is int
    lockstep = make_agent("u", AgentKind.UNIFORM_RANDOM, arm_count=3, trials=2)
    assert select_arm(lockstep, None, rng=[rng, substream(45, "other")]).shape == (2,)


def test_theta_in_ball_basic_geometry():
    sched = simple_schedule(dim=2, feat_norm_bound=1.0)
    agent = make_agent("f", AgentKind.OFUL_FULL, arm_count=2, dim=2, schedule=sched)
    # fresh: theta_hat = 0, Sigma = I, gamma ~ 36: the origin is inside
    assert theta_in_ball(agent, np.zeros(2))
    # a point far outside the radius is rejected
    assert not theta_in_ball(agent, np.full(2, 100.0))


def test_ucb_agent_rejects_missing_features():
    sched = simple_schedule(dim=2, feat_norm_bound=1.0)
    agent = make_agent("f", AgentKind.OFUL_FULL, arm_count=2, dim=2, schedule=sched)
    with pytest.raises(InputError):
        select_arm(agent, None)
    with pytest.raises(InputError):
        select_arm(agent, np.zeros((2, 3)))  # wrong feature dimension
    with pytest.raises(InputError):
        select_arm(agent, np.array([[1.0, np.nan]]))


def test_twenty_candidates_forms_agree_and_duplicates_tie_low():
    # 20 candidates (the replay_k20 stack): each row appears twice, at i and
    # i + 10, so the chosen arm must be below 10 in both selection forms
    rng = substream(43, "k20")
    for _ in range(100):
        dim = int(rng.choice([1, 3, 4, 5, 9]))
        cf = make_agent("cf", AgentKind.OFUL_FULL, arm_count=20, dim=dim,
                        schedule=simple_schedule(dim=dim, feat_norm_bound=1.5))
        bm = make_agent("bm", AgentKind.OFUL_FULL, arm_count=20, dim=dim,
                        schedule=simple_schedule(dim=dim, feat_norm_bound=1.5),
                        selection_form=SelectionForm.BALL_MAXIMIZATION)
        for _ in range(int(rng.integers(0, 40))):
            x = rng.standard_normal(dim)
            r = rng.standard_normal()
            observe(cf, x, r)
            observe(bm, x, r)
        distinct = rng.standard_normal((20, dim))
        assert select_arm(cf, distinct) == select_arm(bm, distinct)
        twice = np.concatenate([distinct[:10], distinct[:10]])
        for agent in (cf, bm):
            scores = arm_ucb_scores(agent, twice)
            assert np.array_equal(scores[:10], scores[10:])
            assert select_arm(agent, twice) == int(np.argmax(scores[:10]))


def test_ball_maximization_zero_arm_and_membership_check():
    rng = substream(44, "ball")
    kw = dict(dim=3, feat_norm_bound=1.5)
    cf = make_agent("cf", AgentKind.OFUL_FULL, arm_count=4, dim=3, schedule=simple_schedule(**kw))
    bm = make_agent("bm", AgentKind.OFUL_FULL, arm_count=4, dim=3, schedule=simple_schedule(**kw),
                    selection_form=SelectionForm.BALL_MAXIMIZATION)
    for _ in range(12):
        x, r = rng.standard_normal(3), rng.standard_normal()
        observe(cf, x, r)
        observe(bm, x, r)
    feats = rng.standard_normal((4, 3))
    feats[2] = 0.0  # a zero form: scored at the ball's center
    scores = arm_ucb_scores(bm, feats)
    assert scores[2] == 0.0
    np.testing.assert_allclose(scores, arm_ucb_scores(cf, feats), rtol=0, atol=1e-12)
    # a Gram matrix that disagrees with the tracked inverse puts the
    # maximizers outside the ball, which the cross-check refuses
    bm.ridge.gram *= 4.0
    with pytest.raises(InputError, match="left the confidence ball"):
        arm_ucb_scores(bm, feats)
    assert arm_ucb_scores(bm, feats[2:3]).tolist() == [0.0]


def test_the_shared_update_follows_the_recomputed_one():
    # one lockstep agent folds in the Sigma^{-1} x its selection formed
    # (observe(arms=...)), its twin recomputes it from the chosen rows; over
    # 1,000 steps, past REFACTOR_INTERVAL, and through a NaN planted in one
    # lane's inverse, which the health check re-inverts, they choose the same
    # arms and keep theta_hat and log-det within 1e-12 relative
    from pulsebandit.linalg import REFACTOR_INTERVAL

    trials, arms, dim, steps = 4, 6, 3, 1000
    assert steps > REFACTOR_INTERVAL
    schedule = simple_schedule(dim=dim, feat_norm_bound=(1.5, 2.5), sigma_eta=0.1, scale=0.05)
    shared, recomputed = (
        make_agent(name, AgentKind.OFUL_FULL, arms, dim=dim, schedule=schedule, trials=trials)
        for name in ("shared", "recomputed")
    )
    rng = substream(47, "shared")
    lanes = np.arange(trials)
    theta = np.array([0.4, -0.3, 0.2])
    for step in range(steps):
        if step == 300:
            for agent in (shared, recomputed):
                agent.ridge.inv[1, 0, 2] = np.nan
        feats = rng.standard_normal((trials, arms, dim))
        chosen = select_arm(shared, feats)
        assert np.array_equal(chosen, select_arm(recomputed, feats)), step
        rows = feats[lanes, chosen]
        rewards = rows @ theta + rng.normal(0.0, 0.1, trials)
        dts = rng.uniform(0.0, 0.01, trials)
        observe(shared, None, rewards, dt_value=dts, arms=chosen)
        observe(recomputed, rows, rewards, dt_value=dts)
        for key in ("theta_hat", "log_det"):
            a, b = getattr(shared.ridge, key), getattr(recomputed.ridge, key)
            assert np.allclose(a, b, rtol=1e-12, atol=0.0), (step, key)
    # the planted lane re-inverted at update 301 and on its own interval
    # after, the others on the interval only
    expect = [(steps - at) % REFACTOR_INTERVAL for at in (0, 301, 0, 0)]
    assert shared.ridge._since_refactor.tolist() == expect
    assert recomputed.ridge._since_refactor.tolist() == expect
    assert np.array_equal(shared.schedule.dt_cumsum, recomputed.schedule.dt_cumsum)


def test_observe_arms_needs_a_scored_step():
    # observe(arms=...) folds in the step select_arm scored last; without
    # one (a fresh agent, a step already observed, a one-trial agent) it
    # is a UsageError, and the agent is left as it was
    lockstep = make_agent("l", AgentKind.OFUL_FULL, 3, dim=2, trials=2,
                          schedule=simple_schedule(dim=2, feat_norm_bound=1.0))
    one = make_agent("o", AgentKind.OFUL_FULL, 3, dim=2,
                     schedule=simple_schedule(dim=2, feat_norm_bound=1.0))
    arms, rewards = np.array([0, 2]), np.ones(2)
    with pytest.raises(UsageError, match="scored"):
        observe(lockstep, None, rewards, arms=arms)
    feats = np.arange(12.0).reshape(2, 3, 2) / 10
    observe(lockstep, None, rewards, arms=select_arm(lockstep, feats))
    assert lockstep.ridge.update_count == 1
    with pytest.raises(UsageError, match="scored"):
        observe(lockstep, None, rewards, arms=arms)
    assert lockstep.ridge.update_count == 1
    select_arm(one, feats[0])
    with pytest.raises(UsageError, match="scored"):
        observe(one, None, 1.0, arms=0)
    assert one.ridge.update_count == 0


def test_the_radius_rows_equal_gamma_at():
    # a two-bound lane group with nonzero constant charges: past two blocks
    # of radius rows, its radius is gamma_at bit for bit
    dim, trials = 2, 6
    group = make_agent("g", AgentKind.OFUL_FULL, 2, dim=dim, trials=trials,
                       schedule=simple_schedule(dim=dim, feat_norm_bound=(0.8, 2.0),
                                                sigma_eta=0.3, delta=0.1, scale=0.05))
    charges = np.repeat([0.002, 0.007], trials // 2)
    rng = substream(48, "rows")
    for step in range(150):
        want = gamma_at(group.schedule, max(step, 1))
        assert current_gamma(group).tolist() == want.tolist(), step
        observe(group, rng.standard_normal((trials, dim)), np.zeros(trials), dt_value=charges)
    assert current_gamma(group).tolist() == gamma_at(group.schedule, 150).tolist()


@pytest.mark.parametrize("k", [2, 7, 20])
def test_uniform_random_draws_its_arms_in_blocks(k):
    # a lockstep uniform_random agent draws each trial's arms 64 steps at a
    # time; past two blocks they are that trial's one-step draws bit for
    # bit, and each generator ends where 192 one-step draws leave it
    trials = 3
    agent = make_agent("u", AgentKind.UNIFORM_RANDOM, arm_count=k, trials=trials)
    rngs = [substream(42, "pick", i) for i in range(trials)]
    refs = [substream(42, "pick", i) for i in range(trials)]
    for step in range(150):
        arms = select_arm(agent, None, rng=rngs)
        assert arms.tolist() == [int(r.integers(0, k)) for r in refs], step
    for r in refs:
        r.integers(0, k, size=192 - 150)
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in refs]


def test_a_padded_member_plays_as_at_its_own_dim():
    # a 3-dim member zero-padded into a 5-dim lane group picks the arms of
    # its solo agent over 600 steps, through the re-inversion at step 512,
    # with lam != 1 and nonzero constant charges; the padded rows and
    # columns of its inverse stay exactly those of lam I, and its radius is
    # its own dim's, bit for bit
    from pulsebandit.linalg import REFACTOR_INTERVAL

    trials, arms, steps, lam = 3, 6, 600, 2.5
    assert steps > REFACTOR_INTERVAL
    common = dict(lam=lam, sigma_eta=0.1, delta=0.1, scale=0.05)
    members = ((5, 1.4, 0.004), (3, 0.9, 0.002))  # (dim, bound, constant charge)
    group = make_agent("g", AgentKind.OFUL_FULL, arms, dim=5, trials=2 * trials,
                       schedule=simple_schedule(dim=(5, 3), feat_norm_bound=(1.4, 0.9), **common))
    solo = [make_agent(f"s{d}", AgentKind.OFUL_FULL, arms, dim=d, trials=trials,
                       schedule=simple_schedule(dim=d, feat_norm_bound=b, **common))
            for d, b, _ in members]
    charges = np.repeat([c for _, _, c in members], trials)
    rng = substream(49, "padded")
    thetas = [np.array([0.4, -0.3, 0.2, 0.5, -0.1]), np.array([0.3, 0.6, -0.2])]
    for step in range(steps):
        feats = [rng.uniform(-1.0, 1.0, (trials, arms, d)) for d, _, _ in members]
        padded = np.concatenate([feats[0], np.pad(feats[1], [(0, 0), (0, 0), (0, 2)])])
        gammas = np.concatenate([current_gamma(a) for a in solo])
        assert current_gamma(group).tolist() == gammas.tolist(), step
        chosen = select_arm(group, padded)
        alone = [select_arm(a, f) for a, f in zip(solo, feats)]
        assert chosen.tolist() == np.concatenate(alone).tolist(), step
        rewards = [f[np.arange(trials), c] @ th + rng.normal(0.0, 0.1, trials)
                   for f, c, th in zip(feats, alone, thetas)]
        observe(group, None, np.concatenate(rewards), dt_value=charges, arms=chosen)
        for a, r, c, (_, _, charge) in zip(solo, rewards, alone, members):
            observe(a, None, r, dt_value=charge, arms=c)
    lanes = group.ridge.inv[trials:]
    assert (lanes[:, :3, 3:] == 0.0).all() and (lanes[:, 3:, :3] == 0.0).all()
    assert (lanes[:, 3:, 3:] == np.eye(2) / lam).all()
    assert np.allclose(lanes[:, :3, :3], solo[1].ridge.inv, rtol=1e-12, atol=0.0)
    for t in (1, 7, steps):
        want = np.concatenate([gamma_at(a.schedule, t) for a in solo])
        assert gamma_at(group.schedule, t).tolist() == want.tolist(), t
    assert gamma_zero(group.schedule, 9) == tuple(gamma_zero(a.schedule, 9) for a in solo)


def test_a_schedule_takes_one_dim_per_member():
    with pytest.raises(ConfigError, match="schedule.dim"):
        simple_schedule(dim=())
    with pytest.raises(ConfigError, match="schedule.dim"):
        simple_schedule(dim=(3, 0))
    with pytest.raises(ConfigError, match="one dim per member: 2 bounds, 3 dims"):
        simple_schedule(dim=(3, 2, 2), feat_norm_bound=(1.0, 2.0))
    # the stack is as wide as the widest member
    schedule = simple_schedule(dim=(2, 4))
    with pytest.raises(ParameterError, match="does not match"):
        make_agent("g", AgentKind.OFUL_FULL, 2, dim=2, schedule=schedule, trials=2)
    with pytest.raises(ParameterError, match="multiple of 2"):
        make_agent("g", AgentKind.OFUL_FULL, 2, dim=4, schedule=schedule, trials=3)
    group = make_agent("g", AgentKind.OFUL_FULL, 2, dim=4, schedule=schedule, trials=4)
    assert group.ridge.dim == 4

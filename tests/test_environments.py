import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsebandit import (
    EndOfLog,
    InputError,
    LowerBoundEnv,
    ParameterError,
    ReplayLog,
    ReplayStream,
    SyntheticEnv,
    UsageError,
    bump_function,
    generate_history,
    load_replay_log,
    phi,
    save_replay_log,
    substream,
)
from pulsebandit.environments import _BLOCK_STEPS, ar_root_moduli


def arma_variance_oracle(ar1, ar2, ma1, ma2, sigma, terms=4000):
    """Var(S) via the moving-average expansion of the recursion."""
    psi = np.zeros(terms)
    psi[0] = 1.0
    psi[1] = ar1 * psi[0] + ma1
    psi[2] = ar1 * psi[1] + ar2 * psi[0] + ma2
    for j in range(3, terms):
        psi[j] = ar1 * psi[j - 1] + ar2 * psi[j - 2]
    return sigma * sigma * float((psi * psi).sum())


def test_ar_roots_have_modulus_two():
    env = SyntheticEnv()
    np.testing.assert_allclose(ar_root_moduli(env.ar1, env.ar2), [2.0, 2.0], atol=1e-12)


def test_stationary_variance_matches_ma_expansion():
    env = SyntheticEnv()
    rng = substream(71, "env")
    env.reset(rng)
    draws = env.rollout(rng, 60_000).observed[:, 0]
    target = arma_variance_oracle(0.75, -0.25, 0.65, 0.35, 0.1)
    assert draws.var() == pytest.approx(target, rel=0.06)
    assert abs(draws.mean()) < 4 * math.sqrt(target / draws.size) * 10


def test_noiseless_fixed_point_rewards():
    env = SyntheticEnv(innovation_sd=0.0, xi_sd=0.0, eta_sd=0.0)
    env.reset(substream(0, "none"))
    rollout = env.rollout(substream(0, "none"), 1)
    # zero state: x = (1, 0), W = 0.5, both arm means 0.65 - 0.23 * 0.5
    np.testing.assert_allclose(rollout.arm_means, [[0.535, 0.535]], atol=1e-15)
    np.testing.assert_allclose(rollout.potential_rewards, [[0.535, 0.535]], atol=1e-15)


def test_noiseless_nonlinear_matches_linear_at_zero():
    lin = SyntheticEnv(innovation_sd=0.0, xi_sd=0.0, eta_sd=0.0)
    non = SyntheticEnv(innovation_sd=0.0, xi_sd=0.0, eta_sd=0.0, nonlinearity=4.0)
    r = substream(0, "none")
    lin.reset(r)
    non.reset(r)
    np.testing.assert_allclose(
        lin.rollout(r, 1).arm_means, non.rollout(r, 1).arm_means, atol=1e-15
    )


def test_burn_in_runs_on_reset():
    env = SyntheticEnv()
    env.reset(substream(5, "env"))
    assert env._t == 0
    assert env.rollout(substream(5, "other"), 1).t.tolist() == [1]
    # after burn-in the state is generically nonzero
    env2 = SyntheticEnv()
    rng2 = substream(5, "env")
    env2.reset(rng2)
    assert env2._state[0] != 0.0  # S_0


def test_conditional_mean_formula():
    env = SyntheticEnv(nonlinearity=2.0)
    mu = env.conditional_mean_w(0.3, 0.1, -0.1)
    x2 = (0.3 + 0.1 - 0.1) / 3.0
    assert mu == pytest.approx(0.5 - 0.14 * x2 + math.sin(2.0 * x2), abs=1e-15)


def test_same_stream_reproduces_steps():
    env1, env2 = SyntheticEnv(), SyntheticEnv()
    r1, r2 = substream(9, "env"), substream(9, "env")
    env1.reset(r1)
    env2.reset(r2)
    s1, s2 = env1.rollout(r1, 20), env2.rollout(r2, 20)
    np.testing.assert_array_equal(s1.full_context, s2.full_context)
    np.testing.assert_array_equal(s1.potential_rewards, s2.potential_rewards)


def test_optimal_arm_is_argmax_of_means():
    env = SyntheticEnv()
    rng = substream(10, "env")
    env.reset(rng)
    rollout = env.rollout(rng, 200)
    np.testing.assert_array_equal(rollout.optimal_arm, np.argmax(rollout.arm_means, axis=1))
    np.testing.assert_array_equal(
        rollout.optimal_mean, rollout.arm_means[np.arange(200), rollout.optimal_arm]
    )


def test_bump_function_shape():
    f = bump_function(beta=1.0, amplitude=0.5)
    assert f(np.zeros(3)) == pytest.approx(0.5)
    assert f(np.array([1.0, 0.0, 0.0])) == 0.0
    assert f(np.array([1.5, 0.0, 0.0])) == 0.0
    assert f(np.array([0.5, -0.5, 0.25])) == pytest.approx(0.25)
    g = bump_function(beta=0.5, amplitude=1.0)
    assert g(np.array([0.75])) == pytest.approx(0.5)


def test_lower_bound_theta_structure():
    env = LowerBoundEnv(d_lin=4, d_non=2, horizon_for_scaling=400)
    mag = math.sqrt(4 / 400.0)
    np.testing.assert_allclose(env.theta_q, np.full(4, mag))
    np.testing.assert_allclose(
        env.theta_star, np.concatenate([np.full(4, mag), np.zeros(2), [0.5]])
    )


def test_lower_bound_branch_means():
    env = LowerBoundEnv(d_lin=3, d_non=2)
    rng = substream(12, "lb")
    env.reset(rng)
    rollout = env.rollout(rng, 300)
    for y, arm_means in zip(rollout.full_context, rollout.arm_means):
        q, o = y[:3], y[3:5]
        if q.any():  # V = 1 branch: Q is a basis vector, O pinned at o0
            np.testing.assert_array_equal(o, env.o0)
            lin = float(env.theta_q @ q)
            np.testing.assert_allclose(arm_means, [lin, -lin], atol=1e-12)
        else:  # V = 0 branch: O uniform in the cube, arm means (f(O)/2, 0)
            assert np.abs(o).max() <= 1.0
            np.testing.assert_allclose(arm_means, [0.5 * env.f(o), 0.0], atol=1e-12)


def test_lower_bound_w_equals_f_of_o():
    env = LowerBoundEnv(d_lin=2, d_non=2)
    rng = substream(13, "lb")
    env.reset(rng)
    rollout = env.rollout(rng, 50)
    for y in rollout.full_context:
        assert y[-1] == pytest.approx(float(env.f(y[2:4])), abs=1e-15)
    assert rollout.cond_sd_w == 0.0


def test_lower_bound_validation():
    with pytest.raises(ParameterError):
        LowerBoundEnv(d_lin=0, d_non=1)
    with pytest.raises(ParameterError):
        LowerBoundEnv(d_lin=1, d_non=1, o0=np.array([0.5]))  # inside the cube
    with pytest.raises(ParameterError):
        LowerBoundEnv(d_lin=1, d_non=1, f=lambda o: 1.0)  # f(o0) != 0


def test_replay_log_round_trip_bitexact(tmp_path):
    rng = substream(14, "log")
    log = ReplayLog(
        observed=rng.standard_normal((30, 2)),
        rewards=(rng.random(30) < 0.4).astype(float),
        full=rng.standard_normal((30, 3)),
        pool_ids=np.repeat(np.arange(3), 10),
        row_ids=np.arange(30),
    )
    path = tmp_path / "log.csv"
    save_replay_log(log, str(path))
    back = load_replay_log(str(path))
    np.testing.assert_array_equal(back.observed, log.observed)
    np.testing.assert_array_equal(back.full, log.full)
    np.testing.assert_array_equal(back.rewards, log.rewards)
    np.testing.assert_array_equal(back.pool_ids, log.pool_ids)


def test_unreadable_replay_log_is_an_input_error(tmp_path):
    for path in (tmp_path / "nonexistent.csv", tmp_path):  # missing, a directory
        with pytest.raises(InputError, match="cannot read replay log"):
            load_replay_log(str(path))


def test_replay_log_rejects_nonbinary_rewards():
    with pytest.raises(InputError):
        ReplayLog(observed=np.zeros((3, 1)), rewards=np.array([0.0, 0.5, 1.0]))


class _ListStream:
    """The list-based one-trial stream, as a reference: k candidates drawn
    from a list of unconsumed rows by `Generator.choice`, the chosen one
    removed from it."""

    def __init__(self, log, rng):
        self.log, self.rng, self.remaining = log, rng, list(range(log.n_rows))

    def step(self, k):
        if len(self.remaining) < k:
            raise EndOfLog("exhausted")
        candidates = [self.remaining[j] for j in self.rng.choice(len(self.remaining), k, False)]

        def reveal(choice):
            self.remaining.remove(candidates[choice])
            return float(self.log.rewards[candidates[choice]])

        return candidates, reveal


# long enough for k = 1, 3 and 10 to cross three draw blocks in every lane
N_LONG = 3 * _BLOCK_STEPS + 20


@pytest.mark.parametrize("k", [1, 3, 10, pytest.param(N_LONG, id="n")])
@pytest.mark.parametrize("lanes", [1, 3], ids=["one_lane", "three_lanes"])
def test_lockstep_stream_matches_the_list_reference(k, lanes):
    # lane i of a stream on generators seeded 0, 1, 2 is the reference
    # stream on a fresh generator of seed i, at every step until the log
    # is exhausted; one lane is the one-trial case.  The stream draws its
    # candidates in blocks, the reference with one `choice` per step.
    n = N_LONG
    assert k == n or n - k + 1 > 2 * _BLOCK_STEPS
    pick = np.random.default_rng(5)
    log = ReplayLog(observed=np.zeros((n, 1)), rewards=pick.integers(0, 2, n).astype(float))
    stream = ReplayStream(log.rewards, [np.random.default_rng(seed) for seed in range(lanes)], k)
    refs = [_ListStream(log, np.random.default_rng(seed)) for seed in range(lanes)]
    for step in range(n - k + 1):
        candidates, reveal = stream.step()
        expected = [ref.step(k) for ref in refs]
        assert candidates.shape == (lanes, k)
        assert np.array_equal(candidates, [c for c, _ in expected])
        # random positions, with 0 and k - 1 in turn in one lane each step
        choices = pick.integers(0, k, lanes)
        choices[step % lanes] = (0, k - 1)[step % 2]
        rewards = reveal(choices)
        want = [ref_reveal(int(c)) for (_, ref_reveal), c in zip(expected, choices)]
        assert rewards.shape == (lanes,) and rewards.tolist() == want
    with pytest.raises(EndOfLog):  # step n - k + 2
        stream.step()


@pytest.mark.parametrize("horizon", [1, _BLOCK_STEPS, 2 * _BLOCK_STEPS + 5])
def test_a_stream_stops_its_last_block_at_the_horizon(monkeypatch, horizon):
    # a horizon cuts the last block of draws short and changes no candidate
    # and no reward: past two blocks, the stream with it serves what the
    # stream without it does, then ends
    import pulsebandit.environments as environments

    draw_picks, blocks = environments._draw_picks, []

    def draw(rngs, n, k, steps):
        blocks.append(steps)
        return draw_picks(rngs, n, k, steps)

    monkeypatch.setattr(environments, "_draw_picks", draw)
    n, k = N_LONG, 3
    rewards = substream(21, "log").integers(0, 2, n).astype(float)

    def serve(**horizon):
        del blocks[:]
        stream = ReplayStream(rewards, [substream(21, "rep", i) for i in range(2)], k, **horizon)
        steps = []
        for step in range(horizon.get("horizon", n - k + 1)):
            candidates, reveal = stream.step()
            steps.append((candidates, reveal(np.array([step % k, (5 * step + 1) % k]))))
        return stream, steps, list(blocks)

    cut, steps, cut_blocks = serve(horizon=horizon)
    with pytest.raises(EndOfLog, match="horizon"):
        cut.step()
    _, full, full_blocks = serve()
    for step, ((candidates, paid), (want, want_paid)) in enumerate(zip(steps, full)):
        assert np.array_equal(candidates, want) and np.array_equal(paid, want_paid), step
    assert sum(cut_blocks) == horizon and cut_blocks[:-1] == full_blocks[: len(cut_blocks) - 1]
    assert full_blocks[len(cut_blocks) - 1] == _BLOCK_STEPS
    for bad in (0, -2, 1.5, True):
        with pytest.raises(ParameterError, match="horizon"):
            ReplayStream(rewards, [substream(21, "rep")], k, horizon=bad)


def test_a_large_log_serves_distinct_unconsumed_rows():
    # past 10,000 rows with k > rows // 50, numpy's `choice` leaves Floyd's
    # algorithm, so no equality with it is claimed; every lane still gets k
    # distinct unconsumed rows at every step, across a block boundary
    n, k, lanes = 10_050, 250, 2
    stream = ReplayStream(np.zeros(n), [substream(20, "rep", i) for i in range(lanes)], k)
    consumed = [set() for _ in range(lanes)]
    for step in range(_BLOCK_STEPS + 3):
        candidates, reveal = stream.step()
        for lane in range(lanes):
            rows = set(candidates[lane].tolist())
            assert len(rows) == k and not rows & consumed[lane]
            assert min(rows) >= 0 and max(rows) < n
        arms = np.array([step % k, (7 * step) % k])
        reveal(arms)
        for lane in range(lanes):
            consumed[lane].add(int(candidates[lane, arms[lane]]))


def test_replay_stream_consumes_only_chosen():
    # each step's chosen rows are never offered again; the rows never
    # chosen are the last step's unchosen candidates, so a candidate that
    # was not chosen stayed available
    n, k = 10, 4
    stream = ReplayStream(np.zeros(n), [substream(15, "rep", i) for i in range(2)], k)
    chosen = [[], []]
    for step in range(n - k + 1):
        candidates, reveal = stream.step()
        for lane in range(2):
            assert len(set(candidates[lane].tolist())) == k
            assert not set(candidates[lane].tolist()) & set(chosen[lane])
        arms = np.array([step % k, (step + 1) % k])
        reveal(arms)
        for lane in range(2):
            chosen[lane].append(int(candidates[lane, arms[lane]]))
    for lane in range(2):
        unchosen = set(np.delete(candidates[lane], arms[lane]).tolist())
        assert len(set(chosen[lane])) == n - k + 1
        assert unchosen | set(chosen[lane]) == set(range(n))
    with pytest.raises(EndOfLog):
        stream.step()


def _steps_before_end_of_log(stream):
    """Steps the stream serves, each revealed at position 0, until EndOfLog."""
    steps = 0
    while True:
        try:
            candidates, reveal = stream.step()
        except EndOfLog:
            return steps
        reveal(np.zeros(len(candidates), dtype=int))
        steps += 1


def test_replay_stream_reveal_once_and_bounds():
    stream = ReplayStream(np.zeros(6), [substream(16, "rep")], 3)
    _, reveal = stream.step()
    with pytest.raises(UsageError, match="before the next"):
        stream.step()
    with pytest.raises(InputError):
        reveal([7])
    reveal([0])
    with pytest.raises(InputError, match="once"):
        reveal([1])
    _, later = stream.step()
    with pytest.raises(InputError, match="once"):  # an earlier step's reveal
        reveal([1])
    later([0])
    # a refused choice consumed nothing: 6 rows, two consumed, serve 2 more
    assert _steps_before_end_of_log(stream) == 2


def test_replay_stream_end_of_log():
    stream = ReplayStream(np.zeros(5), [substream(17, "rep")], 3)
    # 5 rows, k=3: exactly 3 steps then exhaustion
    assert _steps_before_end_of_log(stream) == 3
    with pytest.raises(EndOfLog):
        stream.step()


def test_replay_stream_checks_its_inputs():
    rewards = np.zeros(6)
    for rngs in ([], (), [substream(1, "rep"), 3], None, 7, substream(1, "rep")):
        with pytest.raises(ParameterError, match="Generator"):
            ReplayStream(rewards, rngs, 3)
    for k in (0, -1, 2.5, True, "3", None):
        with pytest.raises(ParameterError, match="k must be a positive integer"):
            ReplayStream(rewards, [substream(18, "rep")], k)
    stream = ReplayStream(rewards, [substream(18, "rep", i) for i in range(3)], np.int64(3))
    candidates, reveal = stream.step()
    assert candidates.shape == (3, 3)
    bad_lanes = [
        ([0, 1.0, 2], 1),
        ([0, 1, True], 2),
        ([3, 0, 0], 0),
        ([0, -1, 0], 1),
        (np.array([0.0, 1.0, 2.0]), 0),
        (np.array([True, False, True]), 0),
        (np.zeros((3, 1), dtype=int), 0),
        (np.array([0, 3, 1]), 1),
        (np.array([0, 1, -1]), 2),
    ]
    for choices, lane in bad_lanes:
        with pytest.raises(InputError, match=f"lane {lane} is not an integer in \\[0, 3\\)"):
            reveal(choices)
    for choices in ([0, 1], 1, "012", np.zeros(2, dtype=int)):
        with pytest.raises(InputError, match="one choice per trial"):
            reveal(choices)
    assert reveal((np.int64(2), 0, 1)).shape == (3,)
    # no refused reveal consumed a row: 6 rows, one consumed, serve 3 more
    assert _steps_before_end_of_log(stream) == 3

    one = ReplayStream(rewards, [substream(19, "rep")], 3)
    _, reveal = one.step()
    for choice in (1.0, True, np.bool_(True), 3, -1, np.float64(1.0)):
        with pytest.raises(InputError, match="lane 0"):
            reveal([choice])
    for choice in (1, np.int64(2), [0, 1]):
        with pytest.raises(InputError, match="one choice per trial"):
            reveal(choice)
    assert reveal([np.int64(2)]).shape == (1,)


def test_generate_history_shapes_and_determinism():
    data1 = generate_history(SyntheticEnv, 4, 12, base_seed=77)
    data2 = generate_history(SyntheticEnv, 4, 12, base_seed=77)
    assert data1.s.shape == (4, 12, 1) and data1.w.shape == (4, 12, 1)
    np.testing.assert_array_equal(data1.s, data2.s)
    np.testing.assert_array_equal(data1.w, data2.w)
    # trajectories differ from each other
    assert not np.array_equal(data1.s[0], data1.s[1])


def test_lower_bound_step_draw_reproducibility():
    e1, e2 = LowerBoundEnv(2, 2), LowerBoundEnv(2, 2)
    r1, r2 = substream(18, "lb"), substream(18, "lb")
    e1.reset(r1)
    e2.reset(r2)
    s1, s2 = e1.rollout(r1, 25), e2.rollout(r2, 25)
    np.testing.assert_array_equal(s1.full_context, s2.full_context)
    np.testing.assert_array_equal(s1.potential_rewards, s2.potential_rewards)


# -- rollouts -------------------------------------------------------------------


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def scalar_synthetic_steps(env, rng, n_steps):
    """Reference law of SyntheticEnv, one draw and one arm at a time: reset's
    burn-in, then per step N(0, sd^2) draws of e, xi and eta (each skipped
    when its sd is 0), libm sin, and per-arm phi."""
    fmap = env.feature_map

    def draw(sd):
        return rng.normal(0.0, sd) if sd > 0 else 0.0

    s1 = s2 = e1 = e2 = 0.0

    def advance():
        nonlocal s1, s2, e1, e2
        e = draw(env.innovation_sd)
        s = env.ar1 * s1 + env.ar2 * s2 + e + env.ma1 * e1 + env.ma2 * e2
        s2, s1 = s1, s
        e2, e1 = e1, e
        return s

    for _ in range(50):
        advance()
    steps = []
    for t in range(1, n_steps + 1):
        lag1, lag2 = s1, s2
        s = advance()
        x2 = (s + lag1 + lag2) / 3
        mu = env.beta_star[0] + env.beta_star[1] * x2
        if env.rho is not None:
            mu += math.sin(env.rho * x2)
        w = mu + draw(env.xi_sd)
        eta = draw(env.eta_sd)
        y, s_vec = np.array([s, w]), np.array([s])
        means = np.stack([phi(fmap, y, a) for a in range(2)]) @ env.theta_star
        cond = np.stack([phi(fmap, np.array([s, mu]), a) for a in range(2)])
        steps.append(
            dict(t=t, full=y, observed=s_vec, means=means, rewards=means + eta,
                 cond_mean=np.array([mu]), cond_means=cond @ env.theta_star)
        )
    return steps


def scalar_lower_bound_steps(env, rng, n_steps):
    """Reference law of LowerBoundEnv, one step at a time with per-arm phi."""
    fmap = env.feature_map
    steps = []
    for t in range(1, n_steps + 1):
        q = np.zeros(env.d_lin)
        if int(rng.integers(0, 2)) == 0:
            o = rng.uniform(-1.0, 1.0, env.d_non)
        else:
            q[int(rng.integers(0, env.d_lin))] = 1.0
            o = env.o0.copy()
        f_o = float(env.f(o))
        w = f_o + (rng.normal(0.0, env.w_noise_sd) if env.w_noise_sd > 0 else 0.0)
        eta = rng.normal(0.0, env.reward_sd) if env.reward_sd > 0 else 0.0
        y = np.concatenate([q, o, [w]])
        y_cond = np.concatenate([q, o, [f_o]])
        s_vec = y[: env.d_s]
        means = np.stack([phi(fmap, y, a) for a in range(2)]) @ env.theta_star
        cond = np.stack([phi(fmap, y_cond, a) for a in range(2)])
        steps.append(
            dict(t=t, full=y, observed=s_vec, means=means, rewards=means + eta,
                 cond_mean=np.array([f_o]), cond_means=cond @ env.theta_star)
        )
    return steps


def assert_rollout_is(rollout, steps):
    assert rollout.t.shape == (len(steps),)
    for i, ref in enumerate(steps):
        assert rollout.t[i] == ref["t"]
        assert_bitwise(rollout.full_context[i], ref["full"])
        assert_bitwise(rollout.observed[i], ref["observed"])
        assert_bitwise(rollout.arm_means[i], ref["means"])
        assert_bitwise(rollout.potential_rewards[i], ref["rewards"])
        assert_bitwise(rollout.cond_mean_w[i], ref["cond_mean"])
        assert_bitwise(rollout.cond_arm_means[i], ref["cond_means"])
        optimal = int(np.argmax(ref["means"]))
        assert rollout.optimal_arm[i] == optimal
        assert rollout.optimal_mean[i] == ref["means"][optimal]


@pytest.mark.parametrize(
    "params",
    [
        {},
        {"nonlinearity": 0.1},
        {"nonlinearity": 1.0},
        {"nonlinearity": 10.0},
        {"innovation_sd": 0.0},
        {"xi_sd": 0.0, "nonlinearity": 1.0},
        {"eta_sd": 0.0},
    ],
)
def test_synthetic_rollout_matches_scalar_reference(params):
    env = SyntheticEnv(**params)
    ref = scalar_synthetic_steps(env, substream(41, "env"), 500)
    rng = substream(41, "env")
    env.reset(rng)
    rollout = env.rollout(rng, 500)
    assert_rollout_is(rollout, ref)
    assert rollout.cond_sd_w == env.xi_sd


@pytest.mark.parametrize("params", [{}, {"w_noise_sd": 0.05}, {"reward_sd": 0.0}])
def test_lower_bound_rollout_matches_per_step_draws(params):
    env = LowerBoundEnv(d_lin=3, d_non=2, **params)
    ref = scalar_lower_bound_steps(env, substream(42, "lb"), 400)
    rng = substream(42, "lb")
    env.reset(rng)
    rollout = env.rollout(rng, 400)
    assert_rollout_is(rollout, ref)


def make_env(kind):
    return SyntheticEnv(nonlinearity=1.0) if kind == "synthetic" else LowerBoundEnv(2, 3)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["synthetic", "lower_bound"]),
    a=st.integers(1, 40),
    b=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_rollouts_split_anywhere_give_the_same_steps(kind, a, b, seed):
    envs, rngs = [], []
    for _ in range(3):
        env, rng = make_env(kind), substream(seed, "split")
        env.reset(rng)
        envs.append(env)
        rngs.append(rng)
    first, second = envs[0].rollout(rngs[0], a), envs[0].rollout(rngs[0], b)
    whole = envs[1].rollout(rngs[1], a + b)
    stepped = [envs[2].step(rngs[2]) for _ in range(a + b)]
    for name in ("t", "full_context", "observed", "potential_rewards", "arm_means",
                 "optimal_arm", "optimal_mean", "cond_mean_w", "cond_arm_means"):
        joined = np.concatenate([getattr(first, name), getattr(second, name)])
        assert_bitwise(joined, getattr(whole, name))
        assert_bitwise(np.concatenate([getattr(s, name) for s in stepped]), getattr(whole, name))
    # the streams are left in the same place
    assert rngs[0].random() == rngs[1].random() == rngs[2].random()


def test_rollout_needs_a_step():
    env = SyntheticEnv()
    rng = substream(0, "env")
    env.reset(rng)
    with pytest.raises(ParameterError):
        env.rollout(rng, 0)
    with pytest.raises(ParameterError):
        LowerBoundEnv(1, 1).rollout(rng, 0)


@pytest.mark.parametrize(
    "arma", [(1.5, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.5, 0.6, 0.0, 0.0)]
)
def test_nonstationary_arma_rejected(arma):
    with pytest.raises(ParameterError, match="stationary"):
        SyntheticEnv(arma=arma)


@pytest.mark.parametrize("bad", [2.7, np.float64(2.0), True, "3", 0, -1, None])
def test_integer_arguments_are_refused_by_name(bad):
    rng = substream(0, "env")
    for env in (SyntheticEnv().reset(rng), LowerBoundEnv(1, 1).reset(rng)):
        with pytest.raises(ParameterError, match="n_steps"):
            env.rollout(rng, bad)
        with pytest.raises(ParameterError, match="n_steps"):
            env.rollout_lanes([rng], bad)
    with pytest.raises(ParameterError, match="n_traj"):
        generate_history(SyntheticEnv, bad, 5, 1)
    with pytest.raises(ParameterError, match="t0"):
        generate_history(SyntheticEnv, 2, bad, 1)


@pytest.mark.parametrize("rngs", [[], (), substream(0, "env"), [substream(0, "env"), None]])
def test_a_lane_rollout_needs_one_generator_per_lane(rngs):
    for env in (SyntheticEnv(), LowerBoundEnv(1, 1)):
        with pytest.raises(ParameterError, match="rngs"):
            env.rollout_lanes(rngs, 3)


def test_numpy_integer_counts_are_accepted():
    rngs = [substream(0, "env", i) for i in range(2)]
    assert SyntheticEnv().rollout_lanes(rngs, np.int64(3)).t.shape == (3, 2)
    data = generate_history(SyntheticEnv, np.int32(2), np.int64(4), 1)
    assert data.s.shape == (2, 4, 1)


# -- lane rollouts ----------------------------------------------------------------

LANE_ENVS = {
    "linear": SyntheticEnv,
    "rho1": lambda: SyntheticEnv(nonlinearity=1.0),
    "rho10": lambda: SyntheticEnv(nonlinearity=10.0),
    "lower_bound": lambda: LowerBoundEnv(2, 3, w_noise_sd=0.05),
}
ROLLOUT_FIELDS = ("t", "full_context", "observed", "potential_rewards", "arm_means",
                  "optimal_arm", "optimal_mean", "cond_mean_w", "cond_arm_means")


@pytest.mark.parametrize("kind", sorted(LANE_ENVS))
@pytest.mark.parametrize("lanes", [[0, 1, 2, 3, 4], [3, 0, 4, 1, 2], [4, 1], [2]])
def test_each_lane_is_its_own_reset_and_rollout(kind, lanes):
    rngs = [substream(61, "lane", i) for i in lanes]
    batch = LANE_ENVS[kind]().rollout_lanes(rngs, 40)
    for j, i in enumerate(lanes):
        rng = substream(61, "lane", i)
        alone = LANE_ENVS[kind]().reset(rng).rollout(rng, 40)
        for name in ROLLOUT_FIELDS:
            assert_bitwise(getattr(batch, name)[:, j], getattr(alone, name))
        assert batch.cond_sd_w == alone.cond_sd_w
        # each lane's stream is left where its own rollout leaves it
        assert rngs[j].random() == rng.random()


@pytest.mark.parametrize("kind", sorted(LANE_ENVS))
def test_a_lane_rollout_leaves_the_environment_as_it_was(kind):
    env, whole = LANE_ENVS[kind](), LANE_ENVS[kind]()
    rng, rng_whole = substream(63, "env"), substream(63, "env")
    env.reset(rng).rollout(rng, 7)
    env.rollout_lanes([substream(63, "lane", i) for i in range(3)], 11)
    second = env.rollout(rng, 5)
    joined = whole.reset(rng_whole).rollout(rng_whole, 12)
    for name in ROLLOUT_FIELDS:
        assert_bitwise(getattr(second, name), getattr(joined, name)[7:])


def test_lane_conditional_means_are_the_scalar_formula_bit_for_bit():
    env = SyntheticEnv(nonlinearity=10.0)
    rngs = [substream(62, "cm", i) for i in range(3)]
    batch = env.rollout_lanes(rngs, 300)
    for j in range(3):
        rng = substream(62, "cm", j)
        s1, s2 = SyntheticEnv(nonlinearity=10.0).reset(rng)._state[:2]
        s = [s2, s1] + batch.observed[:, j, 0].tolist()
        expected = [env.conditional_mean_w(s[i + 2], s[i + 1], s[i]) for i in range(300)]
        assert_bitwise(batch.cond_mean_w[:, j, 0], np.array(expected))
    # far from the stationary range too, where sin takes large arguments
    lags = substream(62, "wide").normal(0.0, 100.0, (52, 4))
    means = env._contexts(lags, np.zeros((50, 4)))[1, ..., 1]
    for i in range(50):
        for j in range(4):
            mu = env.conditional_mean_w(lags[i + 2, j], lags[i + 1, j], lags[i, j])
            assert_bitwise(means[i, j], np.float64(mu))

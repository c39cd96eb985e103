import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsebandit import (
    InputError,
    NumericalError,
    ParameterError,
    new_ridge_state,
    potential_bound_check,
    quadratic_form_inv,
    rank_one_update,
)
from pulsebandit.linalg import REFACTOR_INTERVAL


def dense_oracle(dim, lam, updates):
    """Straightforward dense reference: explicit gram accumulation with
    slogdet / solve from numpy at every step."""
    gram = lam * np.eye(dim)
    xr = np.zeros(dim)
    for x, r in updates:
        gram = gram + np.outer(x, x)
        xr = xr + r * x
    sign, logdet = np.linalg.slogdet(gram)
    assert sign > 0
    return gram, xr, logdet, np.linalg.solve(gram, xr)


def random_updates(rng, dim, n, scale=1.0):
    xs = rng.standard_normal((n, dim)) * scale
    rs = rng.standard_normal(n)
    return list(zip(xs, rs))


def test_fresh_state_log_det_diagonal():
    state = new_ridge_state(3, 0.5)
    assert state.log_det == pytest.approx(3 * math.log(0.5), abs=1e-12)
    state2 = new_ridge_state(2, 1.0)
    assert state2.log_det == 0.0


def test_quadratic_form_diagonal_example():
    # after the e1 update the gram is diag(2, 1); v = e1 gives 1/2
    state = new_ridge_state(2, 1.0)
    rank_one_update(state, np.array([1.0, 0.0]), 1.0)
    assert quadratic_form_inv(state, np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)
    assert quadratic_form_inv(state, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)


def test_quadratic_form_zero_vector_is_exactly_zero():
    state = new_ridge_state(4, 2.0)
    assert quadratic_form_inv(state, np.zeros(4)) == 0.0


def test_scalar_observe_example():
    # d=1, lam=1, x=1, r=1: gram 2, theta_hat = 1/2
    state = new_ridge_state(1, 1.0)
    rank_one_update(state, np.array([1.0]), 1.0)
    assert state.gram[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert state.theta_hat[0] == pytest.approx(0.5, abs=1e-15)


def test_sylvester_increment_against_slogdet():
    # log det(A + xx^T) = log det(A) + log(1 + x^T A^{-1} x), checked stepwise
    rng = np.random.default_rng(11)
    dim = 5
    state = new_ridge_state(dim, 1.3)
    gram = 1.3 * np.eye(dim)
    for _ in range(2000):
        x = rng.standard_normal(dim)
        rank_one_update(state, x, rng.standard_normal())
        gram += np.outer(x, x)
        _, ref = np.linalg.slogdet(gram)
        assert abs(state.log_det - ref) < 1e-9


def test_incremental_solution_matches_dense():
    rng = np.random.default_rng(12)
    dim = 6
    updates = random_updates(rng, dim, 3000)
    state = new_ridge_state(dim, 0.7)
    for x, r in updates:
        rank_one_update(state, x, r)
    gram, xr, logdet, theta = dense_oracle(dim, 0.7, updates)
    np.testing.assert_allclose(state.theta_hat, theta, atol=1e-8)
    assert abs(state.log_det - logdet) < 1e-8
    np.testing.assert_allclose(state.gram, gram, atol=1e-9)


def test_quadratic_form_matches_dense_inverse():
    rng = np.random.default_rng(13)
    dim = 4
    state = new_ridge_state(dim, 1.0)
    gram = np.eye(dim)
    for _ in range(500):
        x = rng.standard_normal(dim)
        rank_one_update(state, x, 0.0)
        gram += np.outer(x, x)
    for _ in range(20):
        v = rng.standard_normal(dim)
        ref = v @ np.linalg.solve(gram, v)
        assert quadratic_form_inv(state, v) == pytest.approx(ref, rel=1e-9)


def test_log_det_monotone_in_updates():
    rng = np.random.default_rng(14)
    state = new_ridge_state(3, 1.0)
    prev = state.log_det
    for _ in range(200):
        rank_one_update(state, rng.standard_normal(3), 0.0)
        assert state.log_det >= prev - 1e-12
        prev = state.log_det


def test_potential_bound_holds_on_bounded_sequences():
    rng = np.random.default_rng(15)
    violations = 0
    for trial in range(50):
        dim = int(rng.integers(1, 6))
        lam = float(rng.uniform(0.2, 3.0))
        bound = float(rng.uniform(0.5, 2.0))
        horizon = int(rng.integers(10, 400))
        state = new_ridge_state(dim, lam)
        for _ in range(horizon):
            x = rng.standard_normal(dim)
            norm = np.linalg.norm(x)
            if norm > 0:
                x = x * (bound * rng.random() / norm)
            rank_one_update(state, x, 0.0)
        ok, slack = potential_bound_check(state, horizon, bound)
        if not ok:
            violations += 1
    assert violations == 0


def test_potential_bound_equality_case():
    # d=1: T updates of x = B exactly saturate log(1 + T B^2 / lam)
    state = new_ridge_state(1, 1.0)
    for _ in range(64):
        rank_one_update(state, np.array([0.5]), 0.0)
    ok, slack = potential_bound_check(state, 64, 0.5)
    assert ok
    assert slack == pytest.approx(0.0, abs=1e-12)


def test_refactor_consistency_across_interval():
    # exceed REFACTOR_INTERVAL so at least one full refactorization runs
    rng = np.random.default_rng(16)
    dim = 3
    updates = random_updates(rng, dim, 1300)
    state = new_ridge_state(dim, 1.0)
    for x, r in updates:
        rank_one_update(state, x, r)
    _, _, logdet, theta = dense_oracle(dim, 1.0, updates)
    np.testing.assert_allclose(state.theta_hat, theta, atol=1e-9)
    assert abs(state.log_det - logdet) < 1e-9


def test_invalid_inputs_raise():
    with pytest.raises(ParameterError):
        new_ridge_state(0, 1.0)
    with pytest.raises(ParameterError):
        new_ridge_state(2, 0.0)
    state = new_ridge_state(2, 1.0)
    with pytest.raises(InputError):
        rank_one_update(state, np.array([1.0, np.nan]), 0.0)
    with pytest.raises(InputError):
        rank_one_update(state, np.array([1.0]), 0.0)
    with pytest.raises(InputError):
        rank_one_update(state, np.array([1.0, 0.0]), float("inf"))
    with pytest.raises(InputError):
        quadratic_form_inv(state, np.array([np.inf, 0.0]))


def test_zero_update_is_a_noop_on_estimates():
    state = new_ridge_state(2, 1.0)
    rank_one_update(state, np.array([1.0, 1.0]), 2.0)
    before = (state.log_det, state.theta_hat.copy())
    rank_one_update(state, np.zeros(2), 5.0)
    assert state.log_det == pytest.approx(before[0], abs=1e-15)
    np.testing.assert_allclose(state.theta_hat, before[1], atol=1e-15)
    assert state.update_count == 2


def test_log_det_read_before_an_update_keeps_its_value():
    # updates rebind log_det rather than write into it, on the Sylvester
    # step and on a re-inversion alike, for one state and for a stack;
    # with the interval at 3, the third update re-inverts
    from pulsebandit import linalg

    rng = np.random.default_rng(31)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "REFACTOR_INTERVAL", 3)
        state = new_ridge_state(2, 1.0)
        stack = linalg.new_ridge_stack(3, 2, 1.0)
        assert isinstance(state.log_det, float)
        for step in range(4):
            one, many = state.log_det, stack.log_det
            frozen_one, frozen_many = float(one), many.copy()
            rank_one_update(state, rng.standard_normal(2), 1.0)
            linalg.stack_rank_one_update(stack, rng.standard_normal((3, 2)), np.ones(3))
            assert isinstance(state.log_det, float)
            assert one == frozen_one and one < state.log_det
            assert np.array_equal(many, frozen_many) and (many < stack.log_det).all()
            if step == 2:
                assert state._since_refactor == 0
                assert stack._since_refactor.tolist() == [0, 0, 0]


def test_potential_bound_rejects_bad_args():
    state = new_ridge_state(2, 1.0)
    with pytest.raises(ParameterError):
        potential_bound_check(state, -1, 1.0)
    with pytest.raises(ParameterError):
        potential_bound_check(state, 10, -1.0)


def test_stacked_forms_match_single_forms():
    rng = np.random.default_rng(17)
    for dim in (1, 3, 4, 5, 9):
        state = new_ridge_state(dim, 1.1)
        for _ in range(40):
            rank_one_update(state, rng.standard_normal(dim), rng.standard_normal())
        stack = rng.standard_normal((20, dim))
        stack[3] = 0.0
        forms = quadratic_form_inv(state, stack)
        assert forms.shape == (20,)
        singles = np.array([quadratic_form_inv(state, v) for v in stack])
        assert forms[3] == 0.0 and singles[3] == 0.0
        np.testing.assert_allclose(forms, singles, rtol=1e-14, atol=0.0)


def test_stacked_forms_reject_bad_stacks():
    state = new_ridge_state(3, 1.0)
    stack = np.ones((4, 3))
    stack[2, 1] = np.nan
    with pytest.raises(InputError):
        quadratic_form_inv(state, stack)
    with pytest.raises(InputError):
        quadratic_form_inv(state, np.ones((4, 2)))
    with pytest.raises(InputError):
        quadratic_form_inv(state, np.ones((2, 4, 3)))
    # it reads one state's forms: a lockstep stack is refused whatever the rows
    from pulsebandit.linalg import new_ridge_stack

    stack = new_ridge_stack(2, 3, 1.0)
    for rows in (np.ones((2, 3)), np.ones((2, 4, 2)), np.ones((2, 4, 3))):
        with pytest.raises(InputError):
            quadratic_form_inv(stack, rows)


# -- lockstep trials ----------------------------------------------------------


def _lockstep_agent(trials, dim, k, form, lam=0.8):
    """A lockstep agent over `trials` trials."""
    from pulsebandit import AgentKind, GammaSchedule, make_agent

    schedule = GammaSchedule(lam=lam, sigma_eta=0.1, delta=0.1, feat_norm_bound=2.0, dim=dim,
                             scale=0.05)
    return make_agent("a", AgentKind.OFUL_FULL, k, dim=dim, schedule=schedule,
                      selection_form=form, trials=trials)


# Tolerance, fixed before the tests ran: the stack's tracked inverse agrees
# with a dense solve to 1e-9 relative.  Its drift over at most
# REFACTOR_INTERVAL Sherman-Morrison updates is orders of magnitude smaller
# at these dimensions.
RTOL = 1e-9


def _assert_tracks_dense(stack):
    """Every trial's theta_hat, inverse and log_det against np.linalg.solve
    and slogdet of its own Gram matrix; the inverse is exactly symmetric."""
    gram = stack.gram
    theta = np.linalg.solve(gram, stack.xr_sum[..., None])[..., 0]
    theta_scale = np.maximum(1.0, np.abs(theta).max(axis=1, keepdims=True))
    assert (np.abs(stack.theta_hat - theta) <= RTOL * theta_scale).all()
    assert np.array_equal(stack.inv, stack.inv.transpose(0, 2, 1))
    residual = np.abs(stack.inv @ gram - np.eye(stack.dim))
    assert (residual <= RTOL * np.abs(gram).max(axis=(1, 2), keepdims=True)).all()
    sign, logdet = np.linalg.slogdet(gram)
    assert (sign > 0).all()
    assert (np.abs(stack.log_det - logdet) <= RTOL * np.maximum(1.0, np.abs(logdet))).all()


@pytest.mark.parametrize("dim", [1, 3, 4, 5, 9])
def test_one_state_matches_the_dense_reference(dim):
    # a one-state RidgeStack (empty batch shape) through its checking entry
    # points: 600 updates pass REFACTOR_INTERVAL, and every 50th update
    # (the first one included, while the reward sum is still zero) and
    # probe is zero
    from types import SimpleNamespace

    rng = np.random.default_rng(100 + dim)
    state = new_ridge_state(dim, 0.8)
    for step in range(600):
        x = np.zeros(dim) if step % 50 == 0 else rng.standard_normal(dim)
        assert rank_one_update(state, x, float(rng.standard_normal())) is state
        assert state.theta_hat.shape == (dim,) and state.log_det.shape == ()
        batched = SimpleNamespace(
            dim=dim, **{key: getattr(state, key)[None]
                        for key in ("gram", "inv", "xr_sum", "theta_hat", "log_det")}
        )
        _assert_tracks_dense(batched)
        probe = np.zeros(dim) if step % 50 == 7 else rng.standard_normal(dim)
        form = quadratic_form_inv(state, probe)
        assert type(form) is float
        ref = float(probe @ np.linalg.solve(state.gram, probe))
        assert form == ref if step % 50 == 7 else abs(form - ref) <= RTOL * ref
    assert state.update_count == 600
    assert state._since_refactor == 600 - REFACTOR_INTERVAL


@pytest.mark.parametrize(
    "trials, dim, k, form",
    [
        (1, 1, 1, "closed_form"),
        (1, 9, 20, "ball_maximization"),
        (3, 3, 2, "ball_maximization"),
        (3, 5, 20, "closed_form"),
        (20, 4, 2, "closed_form"),
        (20, 9, 2, "closed_form"),
    ],
)
def test_lockstep_kernel_matches_the_dense_reference(trials, dim, k, form):
    # 600 steps pass REFACTOR_INTERVAL; every 50th step trial 0 sees only
    # zero rows (so observes one) and every other trial's arm 0 is zero.
    # Each trial is checked against a dense solve of its own Gram matrix.
    from pulsebandit import arm_ucb_scores, current_gamma, gamma_zero, observe, select_arm

    rng = np.random.default_rng(1000 * trials + 10 * dim + k)
    lockstep = _lockstep_agent(trials, dim, k, form)
    stack = lockstep.ridge
    grams = np.tile(0.8 * np.eye(dim), (trials, 1, 1))
    dt_sums = np.zeros(trials)
    for step in range(600):
        feats = rng.standard_normal((trials, k, dim))
        if step % 50 == 0:
            feats[0] = 0.0
            feats[1::2, 0] = 0.0
        scores = arm_ucb_scores(lockstep, feats)
        gamma = current_gamma(lockstep)
        # each trial's radius from its own divergence sum; 0.05 is the scale
        radius = gamma_zero(lockstep.schedule, max(step, 1)) + 3.0 * dim**2 * dt_sums
        assert np.array_equal(gamma, 0.05 * radius)
        theta = np.linalg.solve(grams, stack.xr_sum[..., None])[..., 0]
        sigma_inv_feats = np.linalg.solve(grams, feats.transpose(0, 2, 1)).transpose(0, 2, 1)
        forms = np.einsum("nkd,nkd->nk", feats, sigma_inv_feats)
        ref = np.einsum("nkd,nd->nk", feats, theta) + np.sqrt(gamma[:, None] * forms)
        atol = RTOL * np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
        assert (np.abs(scores - ref) <= atol).all()
        arms = select_arm(lockstep, feats)
        assert np.array_equal(arms, np.argmax(scores, axis=1))
        if step % 50 == 0:
            assert arms[0] == 0  # all-zero rows tie, and ties go to the lowest index
        chosen = feats[np.arange(trials), arms]
        rewards = rng.standard_normal(trials)
        dts = rng.uniform(0.0, 0.01, trials)
        observe(lockstep, chosen, rewards, dt_value=dts)
        dt_sums += dts
        grams += chosen[:, :, None] * chosen[:, None, :]
        assert np.array_equal(stack.gram, grams)
        _assert_tracks_dense(stack)
        assert np.array_equal(lockstep.schedule.dt_cumsum, dt_sums)
        assert stack.update_count == step + 1
    # every trial took the forced re-inversion at update REFACTOR_INTERVAL
    assert stack._since_refactor.tolist() == [600 - REFACTOR_INTERVAL] * trials


def _plant(inv, x, trigger):
    """Corrupt one problem's inverse `inv` so that the named check trips at
    its next update, whose row `x` it adjusts; both are changed in place."""
    if trigger == "nonpositive_diagonal":
        # a zero row leaves the inverse as it is, and its 1 + q = 1 is healthy
        inv[0, 0] = -1.0
        x[:] = 0.0
    elif trigger == "nonpositive_denominator":
        # an indefinite inverse with a positive diagonal: 1 + q = -7, and
        # the updated diagonal, 1 + 16 / 7, stays positive
        inv[:] = [[1.0, -5.0], [-5.0, 1.0]]
        x[:] = [1.0, 1.0]
    elif trigger == "infinite_denominator":
        # Sigma^{-1} x overflows in its first entry, so 1 + q = +inf
        inv[:] = [[1e308, 1e-3], [1e-3, 1.0]]
        x[:] = [10.0, 0.0]
    elif trigger == "infinite_diagonal":
        # +inf times the row's zero entry makes 1 + q and the diagonal NaN
        inv[1, 1] = np.inf
        x[:] = [1.0, 0.0]
    else:
        # a NaN makes 1 + q and the updated diagonal NaN
        inv[0, 1] = inv[1, 0] = np.nan


TRIGGERS = [
    "nonpositive_diagonal",
    "nonpositive_denominator",
    "infinite_denominator",
    "infinite_diagonal",
    "nonfinite",
]


@pytest.mark.parametrize("trigger", TRIGGERS)
def test_stack_reinverts_only_the_flagged_trial(trigger):
    # a planted stack and a clean one take the same rows; at update 21 the
    # plant flags trial 1, which alone re-inverts and restarts its counter.
    # With the interval at 25, trials 0 and 2 re-invert at updates 25 and
    # 50 and trial 1 at 46, and trials 0 and 2 stay equal to the clean
    # stack's bit for bit.  No update raises a floating-point error: the
    # flagged trial's masked increment and denominator keep the planted
    # values out of its arithmetic.
    from pulsebandit import linalg

    rng = np.random.default_rng(23)
    planted = linalg.new_ridge_stack(3, 2, 1.0)
    clean = linalg.new_ridge_stack(3, 2, 1.0)
    keys = ("gram", "inv", "xr_sum", "theta_hat", "log_det", "_since_refactor")
    counters = {20: [21, 0, 21], 24: [0, 4, 0], 45: [21, 0, 21], 59: [10, 14, 10]}
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="raise"):
        mp.setattr(linalg, "REFACTOR_INTERVAL", 25)
        for step in range(60):
            x = rng.standard_normal((3, 2))
            r = rng.standard_normal(3)
            if step == 20:
                _plant(planted.inv[1], x[1], trigger)
            linalg.stack_rank_one_update(planted, x, r)
            linalg.stack_rank_one_update(clean, x, r)
            for key in keys:
                assert np.array_equal(getattr(planted, key)[[0, 2]], getattr(clean, key)[[0, 2]])
            assert np.array_equal(planted.gram, clean.gram)
            _assert_tracks_dense(planted)
            if step in counters:
                assert planted._since_refactor.tolist() == counters[step]
    assert clean._since_refactor.tolist() == [10, 10, 10]


@pytest.mark.parametrize("trigger", TRIGGERS)
def test_one_trial_agent_reinverts_after_a_plant(trigger):
    # the same plants in a one-trial agent's state, through observe: the
    # planted update re-inverts it and restarts its counter, without a
    # floating-point error, and it keeps the clean agent's Gram matrix and
    # reward sum bit for bit.  With the interval at 25, the clean agent
    # re-inverts at updates 25 and 50 and the planted one at 21 and 46.
    from types import SimpleNamespace

    from pulsebandit import linalg, observe

    rng = np.random.default_rng(29)
    planted = _lockstep_agent(None, 2, 2, "closed_form", lam=1.0)
    clean = _lockstep_agent(None, 2, 2, "closed_form", lam=1.0)
    counters = {19: (20, 20), 20: (0, 21), 24: (4, 0), 45: (0, 21), 49: (4, 0)}
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="raise"):
        mp.setattr(linalg, "REFACTOR_INTERVAL", 25)
        for step in range(50):
            x = rng.standard_normal(2)
            r = float(rng.standard_normal())
            if step == 20:
                _plant(planted.ridge.inv, x, trigger)
            observe(planted, x, r, dt_value=0.0)
            observe(clean, x, r, dt_value=0.0)
            state = planted.ridge
            assert np.array_equal(state.gram, clean.ridge.gram)
            assert np.array_equal(state.xr_sum, clean.ridge.xr_sum)
            _assert_tracks_dense(SimpleNamespace(
                dim=2, **{key: getattr(state, key)[None]
                          for key in ("gram", "inv", "xr_sum", "theta_hat", "log_det")}
            ))
            if step in counters:
                assert (state._since_refactor, clean.ridge._since_refactor) == counters[step]


def test_lockstep_ball_membership_check_still_raises():
    from pulsebandit import arm_ucb_scores, observe

    rng = np.random.default_rng(22)
    lockstep = _lockstep_agent(3, 3, 4, "ball_maximization")
    for _ in range(12):
        observe(lockstep, rng.standard_normal((3, 3)), rng.standard_normal(3),
                dt_value=np.zeros(3))
    feats = rng.standard_normal((3, 4, 3))
    arm_ucb_scores(lockstep, feats)
    # a Gram matrix that disagrees with its tracked inverse, in one trial only
    lockstep.ridge.gram[1] *= 4.0
    with pytest.raises(InputError, match="left the confidence ball"):
        arm_ucb_scores(lockstep, feats)


def test_lockstep_kernel_rejects_bad_input():
    # the stacked kernel checks shapes only; the finiteness of a lockstep
    # run's rows is checked once per block, before the first decision
    # (tests/test_harness.py), and the one-state entry points check theirs
    from pulsebandit.linalg import new_ridge_stack, stack_rank_one_update

    with pytest.raises(ParameterError):
        new_ridge_stack(0, 2, 1.0)
    stack = new_ridge_stack(2, 3, 1.0)
    with pytest.raises(InputError):
        stack_rank_one_update(stack, np.ones((3, 3)), np.zeros(3))
    with pytest.raises(InputError):
        stack_rank_one_update(stack, np.ones((2, 3)), np.zeros(3))
    assert stack.update_count == 0


@settings(max_examples=100, deadline=None)
@given(
    trials=st.integers(1, 4),
    dim=st.integers(1, 6),
    lam=st.floats(0.1, 10.0),
    interval=st.integers(2, 8),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    events=st.lists(
        st.tuples(
            st.integers(0, 39),
            st.integers(0, 3),
            st.sampled_from(["zero", "diagonal", "indefinite", "nan"]),
        ),
        max_size=12,
        unique_by=lambda event: event[:2],  # two plants could cancel out
    ),
)
def test_ridge_stack_tracks_the_inverse_of_its_gram(
    trials, dim, lam, interval, steps, seed, events
):
    # events zero a trial's row at a step, or corrupt its inverse first: a
    # nonpositive diagonal entry (with the zero row, which keeps it in
    # place), a sign flip that makes the inverse negative definite, or a
    # NaN.  Each corruption must make the update re-invert that trial.  A
    # small REFACTOR_INTERVAL forces the periodic re-inversion too.
    from pulsebandit import linalg

    rng = np.random.default_rng(seed)
    stack = linalg.new_ridge_stack(trials, dim, lam)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "REFACTOR_INTERVAL", interval)
        for step in range(steps):
            x = rng.uniform(-2.0, 2.0, (trials, dim))
            for at, trial, event in events:
                if at != step or trial >= trials:
                    continue
                k = rng.integers(dim)
                if event in ("zero", "diagonal"):
                    x[trial] = 0.0
                if event == "diagonal":
                    stack.inv[trial, k, k] = -1.0
                elif event == "indefinite":
                    stack.inv[trial] *= -1.0
                elif event == "nan":
                    stack.inv[trial, k, rng.integers(dim)] = np.nan
            linalg.stack_rank_one_update(stack, x, rng.standard_normal(trials))
            assert (stack._since_refactor < interval).all()
            _assert_tracks_dense(stack)

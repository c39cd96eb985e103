import math

import numpy as np
import pytest

from pulsebandit import (
    InputError,
    NumericalError,
    ParameterError,
    new_ridge_state,
    potential_bound_check,
    quadratic_form_inv,
    rank_one_update,
)
from pulsebandit.linalg import PIVOT_FLOOR, REFACTOR_INTERVAL


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


def test_potential_bound_rejects_bad_args():
    state = new_ridge_state(2, 1.0)
    with pytest.raises(ParameterError):
        potential_bound_check(state, -1, 1.0)
    with pytest.raises(ParameterError):
        potential_bound_check(state, 10, -1.0)


class _SliceReference:
    """The ridge kernel as scipy's `solve_triangular` wrapper and numpy
    column-slice updates compute it; the direct LAPACK kernel must match it
    bit for bit on single vectors."""

    def __init__(self, dim, lam):
        self.lam = lam
        self.gram = np.eye(dim) * lam
        self.factor = np.eye(dim) * math.sqrt(lam)
        self.xr_sum = np.zeros(dim)
        self.theta_hat = np.zeros(dim)
        self.since = 0

    def quad(self, v):
        from scipy.linalg import solve_triangular

        if not np.any(v):
            return 0.0
        z = solve_triangular(self.factor, v, lower=True, check_finite=False)
        return float(z @ z)

    def _chol_update(self, x):
        L, v = self.factor, x.copy()
        d = L.shape[0]
        for k in range(d):
            lkk = L[k, k]
            r = math.hypot(lkk, v[k])
            c = r / lkk
            s = v[k] / lkk
            L[k, k] = r
            if k + 1 < d:
                L[k + 1 :, k] = (L[k + 1 :, k] + s * v[k + 1 :]) / c
                v[k + 1 :] = c * v[k + 1 :] - s * L[k + 1 :, k]

    def update(self, x, reward):
        from scipy.linalg import solve_triangular

        self.gram += np.outer(x, x)
        self.xr_sum += reward * x
        self.since += 1
        if self.since >= REFACTOR_INTERVAL:
            self.factor, self.since = np.linalg.cholesky(self.gram), 0
        else:
            self._chol_update(x)
            diag = np.diagonal(self.factor)
            if np.any(diag * diag < PIVOT_FLOOR * self.lam):
                self.factor, self.since = np.linalg.cholesky(self.gram), 0
        if np.any(self.xr_sum):
            z = solve_triangular(self.factor, self.xr_sum, lower=True, check_finite=False)
            self.theta_hat = solve_triangular(
                self.factor.T, z, lower=False, check_finite=False
            )


@pytest.mark.parametrize("dim,steps", [(1, 200), (3, 600), (4, 200), (5, 200), (9, 200)])
def test_single_vector_kernel_is_bitwise_the_slice_reference(dim, steps):
    # dim 3 runs past REFACTOR_INTERVAL; every 50th update (the first one
    # included, while the reward sum is still zero) and probe is zero
    rng = np.random.default_rng(100 + dim)
    lam = 0.8
    state = new_ridge_state(dim, lam)
    ref = _SliceReference(dim, lam)
    for step in range(steps):
        x = np.zeros(dim) if step % 50 == 0 else rng.standard_normal(dim)
        r = float(rng.standard_normal())
        assert quadratic_form_inv(state, x) == ref.quad(x)
        rank_one_update(state, x, r)
        ref.update(x, r)
        assert np.array_equal(state.factor, ref.factor)
        assert np.array_equal(state.theta_hat, ref.theta_hat)
        assert state.factor.flags.c_contiguous and state.factor.dtype == np.float64
        probe = np.zeros(dim) if step % 50 == 7 else rng.standard_normal(dim)
        assert quadratic_form_inv(state, probe) == ref.quad(probe)
    assert state.update_count == steps


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

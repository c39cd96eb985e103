"""Incremental ridge-regression state with exact determinant tracking.

Maintains the regularized Gram matrix

    Sigma_t = lambda * I + sum_{tau<=t} x_tau x_tau^T

through rank-one Cholesky updates, together with the running least-squares
solution of Sigma_t theta = sum_tau r_tau x_tau and the log-determinant of
Sigma_t.  The log-determinant is advanced with Sylvester's identity

    det(Sigma + x x^T) = det(Sigma) * (1 + x^T Sigma^{-1} x),

so each update costs one triangular solve instead of a refactorization.
Triangular solves call LAPACK's dtrtrs directly, with the arguments scipy's
triangular-solve wrapper passes for a C-ordered lower factor but without its
per-call argument handling; the rank-one factor update runs on Python
floats, since at these dimensions numpy's per-slice overhead dominates.
A full Cholesky refactorization is forced every `REFACTOR_INTERVAL`
updates, and whenever a diagonal pivot of the factor degrades, to bound
floating-point drift.  Matrices are dense; dimensions here are tiny.

`RidgeStack` holds the states of many independent problems of one
dimension, one per trial, and advances them in lockstep: one call updates
every trial with a fixed number of numpy calls, whatever the trial count.
It tracks each trial's inverse Sigma^{-1} in place of a factor, next to the
exact Gram matrix.  The Sherman-Morrison identity

    (Sigma + x x^T)^{-1} = Sigma^{-1} - u u^T / (1 + q),
    u = Sigma^{-1} x,  q = x^T u,

advances it, and q gives the Sylvester increment log(1 + q).  A trial
re-inverts from its exact Gram matrix (a Cholesky factorization, which
also resets its log-determinant) when its own counter reaches
`REFACTOR_INTERVAL`, and when its 1 + q or a diagonal entry of its updated
inverse is not finite and positive; only that trial's counter restarts.
The stack's forms, `theta_hat` and log-determinants therefore agree with
the one-trial kernel's to rounding, not bit for bit.  The tests bound the
gap, and the gap to a dense solve, by 1e-9 relative; over 1000 updates at
dimension up to 9 it stays within 3e-15.
"""

import math

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import InputError, NumericalError, ParameterError

__all__ = [
    "RidgeState",
    "RidgeStack",
    "new_ridge_state",
    "new_ridge_stack",
    "rank_one_update",
    "stack_rank_one_update",
    "quadratic_form_inv",
    "stack_quadratic_forms",
    "potential_bound_check",
    "REFACTOR_INTERVAL",
]

# Forced refactorization (RidgeStack: re-inversion) cadence, and the
# relative pivot floor of RidgeState.  The floor is compared against
# squared factor diagonals, i.e. against matrix pivots.
REFACTOR_INTERVAL = 512
PIVOT_FLOOR = 1e-12


class RidgeState:
    """Mutable ridge state owned by exactly one agent.

    Attributes
    ----------
    dim : int
    lam : float
        Ridge weight lambda > 0.
    gram : (dim, dim) ndarray
        Sigma = lam * I + sum of outer products, kept exactly.
    factor : (dim, dim) ndarray
        Lower Cholesky factor of `gram`, maintained incrementally.
    xr_sum : (dim,) ndarray
        sum of reward-weighted feature vectors.
    theta_hat : (dim,) ndarray
        Solution of gram @ theta = xr_sum (two triangular solves).
    log_det : float
        log det(gram), advanced via the Sylvester identity.
    update_count : int
    """

    __slots__ = (
        "dim",
        "lam",
        "gram",
        "factor",
        "xr_sum",
        "theta_hat",
        "log_det",
        "update_count",
        "_since_refactor",
    )

    def __init__(self, dim, lam):
        self.dim = dim
        self.lam = lam
        self.gram = np.eye(dim) * lam
        self.factor = np.eye(dim) * math.sqrt(lam)
        self.xr_sum = np.zeros(dim)
        self.theta_hat = np.zeros(dim)
        self.log_det = dim * math.log(lam)
        self.update_count = 0
        self._since_refactor = 0


class RidgeStack:
    """Ridge states of `trials` independent problems, updated in lockstep.

    The attributes are RidgeState's with a leading trial axis, except that
    the stack keeps `inv`, the tracked inverse of `gram`, in place of a
    factor: `gram` and `inv` are (trials, dim, dim), `xr_sum` and
    `theta_hat` (trials, dim), `log_det` (trials,).  Every trial takes one
    update per call, so `update_count` is shared; the re-inversion counter
    is per trial, since a trial re-inverts early when its own inverse
    degrades.
    """

    __slots__ = (
        "trials",
        "dim",
        "lam",
        "gram",
        "inv",
        "xr_sum",
        "theta_hat",
        "log_det",
        "update_count",
        "_since_refactor",
    )

    def __init__(self, trials, dim, lam):
        self.trials = trials
        self.dim = dim
        self.lam = lam
        self.gram = np.tile(np.eye(dim) * lam, (trials, 1, 1))
        self.inv = np.tile(np.eye(dim) / lam, (trials, 1, 1))
        self.xr_sum = np.zeros((trials, dim))
        self.theta_hat = np.zeros((trials, dim))
        self.log_det = np.full(trials, dim * math.log(lam))
        self.update_count = 0
        self._since_refactor = np.zeros(trials, dtype=int)


def _check_dim_lam(dim, lam):
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        raise ParameterError(f"dim must be a positive integer, got {dim!r}")
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ParameterError(f"lambda must be finite and positive, got {lam!r}")
    return int(dim), lam


def new_ridge_state(dim, lam):
    """Fresh state with gram = lam * I."""
    return RidgeState(*_check_dim_lam(dim, lam))


def new_ridge_stack(trials, dim, lam):
    """`trials` fresh states with gram = lam * I, as one RidgeStack."""
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool) or trials < 1:
        raise ParameterError(f"trials must be a positive integer, got {trials!r}")
    return RidgeStack(int(trials), *_check_dim_lam(dim, lam))


def _check_vector(state, v, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (state.dim,):
        raise InputError(f"{name} must have shape ({state.dim},), got {v.shape}")
    if not np.isfinite(v).all():
        raise InputError(f"{name} contains non-finite entries")
    return v


def _solve(factor, b, trans):
    """factor^{-1} b (trans=1) or factor^{-T} b (trans=0), factor C-ordered lower.

    `factor.T` is the Fortran-ordered upper triangle LAPACK reads in place;
    b may be one vector or a (dim, k) block of right-hand sides.
    """
    x, info = dtrtrs(factor.T, b, lower=0, trans=trans)
    if info != 0:
        raise NumericalError(f"triangular solve failed (LAPACK info {info})")
    return x


def _sigma_inv(factor, v):
    """Sigma^{-1} v through the factor: two triangular solves."""
    return _solve(factor, _solve(factor, v, 1), 0)


def _quad(factor, v):
    # a zero v solves to exact zeros, so its form is exactly 0.0
    z = _solve(factor, v, 1)
    return float(z @ z)


def _forms(factor, v):
    """The forms of the k rows of v from one solve against all of them."""
    z = _solve(factor, v.T, 1)
    return np.einsum("ij,ij->j", z, z)


def quadratic_form_inv(state, v):
    """v^T Sigma^{-1} v via a triangular solve against the factor.

    `v` is one (dim,) vector, giving a float that is exactly 0.0 for the
    zero vector, or a (k, dim) stack, giving the k forms as a (k,)
    array from one solve against all k right-hand sides.  That block solve
    rounds differently from k single solves, by a few ulps.
    """
    v = np.asarray(v, dtype=float)
    stacked = v.ndim == 2 and v.shape[1] == state.dim
    if not stacked and v.shape != (state.dim,):
        raise InputError(
            f"v must have shape ({state.dim},) or (k, {state.dim}), got {v.shape}"
        )
    if not np.isfinite(v).all():
        raise InputError("v contains non-finite entries")
    if not stacked:
        return _quad(state.factor, v)
    return _forms(state.factor, v)


def stack_quadratic_forms(stack, v):
    """Every trial's forms v^T Sigma^{-1} v of its own k rows.

    `v` is (trials, k, dim) and the result (trials, k), read from the
    tracked inverses in one contraction; a zero row's form is exactly 0.0.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 3 or v.shape[0] != stack.trials or v.shape[2] != stack.dim:
        raise InputError(
            f"v must have shape ({stack.trials}, k, {stack.dim}), got {v.shape}"
        )
    if not np.isfinite(v).all():
        raise InputError("v contains non-finite entries")
    return np.einsum("nkd,nde,nke->nk", v, stack.inv, v)


def _cholesky(gram):
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "gram matrix lost positive definiteness; state is inconsistent"
        ) from exc


def _refactor(state):
    state.factor = _cholesky(state.gram)
    state._since_refactor = 0


def _chol_update(rows, x):
    """In-place rank-one update: L L^T + x x^T -> L' L'^T, L lower.

    `rows` is L as a list of row lists of floats and `x` a list of floats.
    Each entry is computed as (l + s v) / c, then v as c v - s l', in that
    order, so the result equals numpy's column-slice form bit for bit.
    """
    d = len(rows)
    v = list(x)
    for k in range(d):
        lkk = rows[k][k]
        vk = v[k]
        r = math.hypot(lkk, vk)
        if lkk <= 0.0 or not math.isfinite(r):
            raise NumericalError("cholesky rank-one update hit a nonpositive pivot")
        c = r / lkk
        s = vk / lkk
        rows[k][k] = r
        for i in range(k + 1, d):
            row = rows[i]
            lik = (row[k] + s * v[i]) / c
            row[k] = lik
            v[i] = c * v[i] - s * lik


def rank_one_update(state, x, reward):
    """Fold one observation (x, reward) into the state, in place.

    Advances log_det by log(1 + x^T Sigma^{-1} x) before touching the
    factor, so the Sylvester increment is exact with respect to the
    pre-update state.  Returns the same (mutated) state.
    """
    x = _check_vector(state, x, "x")
    reward = float(reward)
    if not math.isfinite(reward):
        raise InputError(f"reward must be finite, got {reward!r}")

    quad = _quad(state.factor, x)
    state.log_det += math.log1p(quad)
    state.gram += np.outer(x, x)
    state.xr_sum += reward * x
    state._since_refactor += 1

    if state._since_refactor >= REFACTOR_INTERVAL:
        _refactor(state)
    else:
        rows = state.factor.tolist()
        try:
            _chol_update(rows, x.tolist())
        except NumericalError:
            _refactor(state)
        else:
            floor = PIVOT_FLOOR * state.lam
            if any(row[k] * row[k] < floor for k, row in enumerate(rows)):
                _refactor(state)
            else:
                state.factor = np.array(rows)

    state.update_count += 1
    state.theta_hat = _sigma_inv(state.factor, state.xr_sum)
    return state


def _reinvert(stack, trials):
    """Re-invert the listed trials from their exact Gram matrices.

    One batched Cholesky factorization gives each trial's log-determinant
    and, through the inverse of its factor, an exactly symmetric inverse.
    """
    factor = _cholesky(stack.gram[trials])
    factor_inv = np.linalg.inv(factor)
    stack.inv[trials] = np.einsum("nki,nkj->nij", factor_inv, factor_inv)
    stack.log_det[trials] = 2.0 * np.log(np.diagonal(factor, axis1=1, axis2=2)).sum(axis=1)
    stack._since_refactor[trials] = 0


def stack_rank_one_update(stack, x, reward):
    """Fold one observation per trial into the stack, in place.

    Row i of `x` (trials, dim) and `reward[i]` go to trial i, as
    rank_one_update would fold them into trial i's own state.  Each
    trial's inverse takes the Sherman-Morrison update.  A trial re-inverts
    from its exact Gram matrix when its own counter reaches
    REFACTOR_INTERVAL, or when its 1 + x^T Sigma^{-1} x or a diagonal
    entry of its updated inverse is not finite and positive; only that
    trial's counter restarts.  Returns the same (mutated) stack.
    """
    x = np.asarray(x, dtype=float)
    reward = np.asarray(reward, dtype=float)
    if x.shape != (stack.trials, stack.dim):
        raise InputError(f"x must have shape ({stack.trials}, {stack.dim}), got {x.shape}")
    if reward.shape != (stack.trials,):
        raise InputError(f"reward must have shape ({stack.trials},), got {reward.shape}")
    if not np.isfinite(x).all():
        raise InputError("x contains non-finite entries")
    if not np.isfinite(reward).all():
        raise InputError("reward contains non-finite entries")

    u = np.einsum("nde,ne->nd", stack.inv, x)
    q = np.einsum("nd,nd->n", x, u)
    denom = 1.0 + q
    healthy = np.isfinite(denom) & (denom > 0.0)
    # an unhealthy trial is re-inverted below; a zero increment and a unit
    # denominator keep its arithmetic from raising floating-point warnings
    stack.log_det += np.log1p(np.where(healthy, q, 0.0))
    stack.inv -= u[:, :, None] * u[:, None, :] / np.where(healthy, denom, 1.0)[:, None, None]
    stack.gram += x[:, :, None] * x[:, None, :]
    stack.xr_sum += reward[:, None] * x
    stack._since_refactor += 1

    diag = np.diagonal(stack.inv, axis1=1, axis2=2)
    healthy &= (np.isfinite(diag) & (diag > 0.0)).all(axis=1)
    stale = ~healthy | (stack._since_refactor >= REFACTOR_INTERVAL)
    if stale.any():
        _reinvert(stack, np.flatnonzero(stale))

    stack.update_count += 1
    stack.theta_hat = np.einsum("nde,ne->nd", stack.inv, stack.xr_sum)
    return stack


def potential_bound_check(state, horizon, feat_norm_bound):
    """(ok, slack) for log det(Sigma_t) - d log(lam) <= d log(1 + T B^2 / (d lam)).

    The right side is the elliptical-potential ceiling for any sequence of
    at most `horizon` feature vectors with Euclidean norm at most
    `feat_norm_bound`; slack is ceiling minus realized growth (zero when a
    sequence saturates the bound exactly).
    """
    horizon = int(horizon)
    bound_b = float(feat_norm_bound)
    if horizon < 0:
        raise ParameterError(f"horizon must be nonnegative, got {horizon}")
    if not math.isfinite(bound_b) or bound_b < 0.0:
        raise ParameterError(f"feat_norm_bound must be finite and >= 0, got {bound_b!r}")
    lhs = state.log_det - state.dim * math.log(state.lam)
    rhs = state.dim * math.log1p(horizon * bound_b * bound_b / (state.dim * state.lam))
    # sequences that saturate the ceiling exactly sit within accumulation
    # roundoff of it; 1e-9 absorbs that without masking design violations
    return lhs <= rhs + 1e-9, rhs - lhs

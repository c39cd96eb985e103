"""Incremental ridge-regression states with exact determinant tracking.

Each state maintains the regularized Gram matrix

    Sigma_t = lambda * I + sum_{tau<=t} x_tau x_tau^T,

kept exactly, together with its tracked inverse Sigma_t^{-1}, the running
least-squares solution theta_hat = Sigma_t^{-1} sum_tau r_tau x_tau and
the log-determinant of Sigma_t.  The Sherman-Morrison identity

    (Sigma + x x^T)^{-1} = Sigma^{-1} - u u^T / (1 + q),
    u = Sigma^{-1} x,  q = x^T u,

advances the inverse, and q gives Sylvester's increment

    log det(Sigma + x x^T) = log det(Sigma) + log(1 + q),

so an update costs a few small products and no factorization.  A state
re-inverts from its exact Gram matrix (a Cholesky factorization, which
also resets its log-determinant) when its own counter reaches
`REFACTOR_INTERVAL`, and when its 1 + q or a diagonal entry of its updated
inverse is not finite and positive; only that state's counter restarts.
Each check is a min and a max over the batch (NaN fails both), so an
update of healthy states builds no mask: the masks that pick the states
to re-invert are built only when a check fails or a counter is due.
The tests bound the gap to a dense solve by 1e-9 relative; over 1000
updates at dimension up to 9 it stays within 3e-15.  Matrices are dense;
dimensions here are tiny.

`RidgeStack` holds the states of independent problems of one dimension
over a batch shape: () for one problem, (trials,) for a trial axis.  Every
array carries the batch shape in front, and one call updates every problem
with a fixed number of numpy calls, whatever the trial count.  The stacked
functions check shapes only: a caller that drives many steps from blocks
it built checks those blocks once.  The one-problem entry points
(`new_ridge_state`, `rank_one_update`, `quadratic_form_inv`) take their
rows one call at a time, so they also check that the rows are finite.
"""

import math

import numpy as np

from .errors import InputError, NumericalError, ParameterError

__all__ = [
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

# forced re-inversion cadence, counted per problem
REFACTOR_INTERVAL = 512


class RidgeStack:
    """Ridge states of independent problems over the batch shape `shape`.

    Attributes
    ----------
    shape : tuple
        () for one problem, (trials,) for problems on a trial axis.
    dim : int
    lam : float
        Ridge weight lambda > 0.
    gram : shape + (dim, dim) ndarray
        Sigma = lam * I + sum of outer products, kept exactly.
    inv : shape + (dim, dim) ndarray
        The tracked inverse of `gram`.
    xr_sum : shape + (dim,) ndarray
        sum of reward-weighted feature vectors.
    theta_hat : shape + (dim,) ndarray
        inv @ xr_sum.
    log_det : float, or shape ndarray
        log det(gram), advanced via the Sylvester identity: a numpy float
        for one problem.  Updates rebind it rather than write into it, so
        a value read before an update keeps its own value.
    update_count : int
        Updates taken; every problem takes one per call.

    The re-inversion counter is per problem, since a problem re-inverts
    early when its own inverse degrades.
    """

    __slots__ = (
        "shape",
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

    def __init__(self, shape, dim, lam):
        self.shape = shape
        self.dim = dim
        self.lam = lam
        self.gram = np.tile(np.eye(dim) * lam, shape + (1, 1))
        self.inv = np.tile(np.eye(dim) / lam, shape + (1, 1))
        self.xr_sum = np.zeros(shape + (dim,))
        self.theta_hat = np.zeros(shape + (dim,))
        self.log_det = np.full(shape, dim * math.log(lam))[()]  # [()]: a 0-d array as a float
        self.update_count = 0
        self._since_refactor = np.zeros(shape, dtype=int)


def _check_dim_lam(dim, lam):
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        raise ParameterError(f"dim must be a positive integer, got {dim!r}")
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ParameterError(f"lambda must be finite and positive, got {lam!r}")
    return int(dim), lam


def _batch_shape(trials):
    """() for one problem (`trials` None), else (trials,) for a positive
    integer count."""
    if trials is None:
        return ()
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool) or trials < 1:
        raise ParameterError(f"trials must be a positive integer, got {trials!r}")
    return (int(trials),)


def new_ridge_stack(trials, dim, lam):
    """Fresh states with gram = lam * I: `trials` of them on a leading
    trial axis, or one state without that axis for `trials` None."""
    return RidgeStack(_batch_shape(trials), *_check_dim_lam(dim, lam))


def new_ridge_state(dim, lam):
    """One fresh state with gram = lam * I: a RidgeStack of batch shape ()."""
    return new_ridge_stack(None, dim, lam)


def _check_finite(name, v):
    if not np.isfinite(v).all():
        raise InputError(f"{name} contains non-finite entries")


def stack_quadratic_forms(stack, v):
    """Every problem's forms v^T Sigma^{-1} v of its own k rows.

    `v` is shape + (k, dim) and the result shape + (k,), read from the
    tracked inverses in one contraction; a zero row's form is exactly 0.0.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != len(stack.shape) + 2 or v.shape[:-2] != stack.shape or v.shape[-1] != stack.dim:
        raise InputError(
            f"v must have shape {stack.shape} + (k, {stack.dim}), got {v.shape}"
        )
    return np.einsum("...kd,...de,...ke->...k", v, stack.inv, v)


def quadratic_form_inv(state, v):
    """v^T Sigma^{-1} v of one state, after checking that v is finite.

    `v` is one (dim,) vector, giving a float that is exactly 0.0 for the
    zero vector, or a (k, dim) stack, giving the k forms as a (k,) array.
    """
    v = np.asarray(v, dtype=float)
    _check_finite("v", v)
    if v.shape == (state.dim,):
        return float(stack_quadratic_forms(state, v[None])[0])
    return stack_quadratic_forms(state, v)


def _cholesky(gram):
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "gram matrix lost positive definiteness; state is inconsistent"
        ) from exc


def _reinvert(stack, stale):
    """Re-invert the problems flagged in the batch-shaped mask `stale` from
    their exact Gram matrices.

    One batched Cholesky factorization gives each problem's log-determinant
    and, through the inverse of its factor, an exactly symmetric inverse.
    """
    factor = _cholesky(stack.gram[stale])
    factor_inv = np.linalg.inv(factor)
    stack.inv[stale] = np.einsum("nki,nkj->nij", factor_inv, factor_inv)
    log_det = np.array(stack.log_det)
    log_det[stale] = 2.0 * np.log(np.diagonal(factor, axis1=1, axis2=2)).sum(axis=1)
    stack.log_det = log_det[()]
    stack._since_refactor[stale] = 0


def stack_rank_one_update(stack, x, reward):
    """Fold one observation per problem into the stack, in place.

    `x` is shape + (dim,) and `reward` shape.  Each problem's inverse takes
    the Sherman-Morrison update, and log_det the Sylvester increment of the
    pre-update state.  A problem re-inverts from its exact Gram matrix when
    its own counter reaches REFACTOR_INTERVAL, or when its
    1 + x^T Sigma^{-1} x or a diagonal entry of its updated inverse is not
    finite and positive; only that problem's counter restarts.  The
    masks of those problems are built only when a check fails or a counter
    is due.  Returns the same (mutated) stack.
    """
    x = np.asarray(x, dtype=float)
    reward = np.asarray(reward, dtype=float)
    if x.shape != stack.shape + (stack.dim,):
        raise InputError(f"x must have shape {stack.shape + (stack.dim,)}, got {x.shape}")
    if reward.shape != stack.shape:
        raise InputError(f"reward must have shape {stack.shape}, got {reward.shape}")

    u = np.einsum("...de,...e->...d", stack.inv, x)
    q = np.einsum("...d,...d->...", x, u)
    denom = 1.0 + q
    # the masks are built only when a check fails: NaN fails both
    # comparisons, so each test holds exactly when every problem passes
    stale = None
    if not (denom.min() > 0.0 and denom.max() < math.inf):
        stale = ~(np.isfinite(denom) & (denom > 0.0))
        # a stale problem is re-inverted below; a zero increment and a unit
        # denominator keep its arithmetic from raising floating-point warnings
        q = np.where(stale, 0.0, q)
        denom = np.where(stale, 1.0, denom)
    stack.log_det = stack.log_det + np.log1p(q)
    stack.inv -= u[..., :, None] * u[..., None, :] / denom[..., None, None]
    stack.gram += x[..., :, None] * x[..., None, :]
    stack.xr_sum += reward[..., None] * x
    stack._since_refactor += 1

    diag = np.diagonal(stack.inv, axis1=-2, axis2=-1)
    if not (diag.min() > 0.0 and diag.max() < math.inf):
        sick = ~(np.isfinite(diag) & (diag > 0.0)).all(axis=-1)
        stale = sick if stale is None else stale | sick
    if stack._since_refactor.max() >= REFACTOR_INTERVAL:
        due = stack._since_refactor >= REFACTOR_INTERVAL
        stale = due if stale is None else stale | due
    if stale is not None:
        _reinvert(stack, stale)

    stack.update_count += 1
    stack.theta_hat = np.einsum("...de,...e->...d", stack.inv, stack.xr_sum)
    return stack


def rank_one_update(state, x, reward):
    """Fold one observation (x, reward) into one state, in place, after
    checking that both are finite.  Returns the same (mutated) state."""
    x = np.asarray(x, dtype=float)
    _check_finite("x", x)
    reward = float(reward)
    if not math.isfinite(reward):
        raise InputError(f"reward must be finite, got {reward!r}")
    return stack_rank_one_update(state, x, reward)


def potential_bound_check(state, horizon, feat_norm_bound):
    """(ok, slack) for log det(Sigma_t) - d log(lam) <= d log(1 + T B^2 / (d lam)).

    The right side is the elliptical-potential ceiling for any sequence of
    at most `horizon` feature vectors with Euclidean norm at most
    `feat_norm_bound`; slack is ceiling minus realized growth (zero when a
    sequence saturates the bound exactly).  A stack gets one pair per
    problem.
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

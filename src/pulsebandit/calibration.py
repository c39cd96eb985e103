"""Imputation-error accounting.

The per-step divergence fed to confidence schedules is

    D_t = (1/2) KL( P(W_t | S_{1:t}) || P_hat(W_t | S_{1:t}) ),

with the closed Gaussian form used whenever both laws are Gaussian.  The
Pinsker-style diagnostic checks the implied mean-gap bound

    sup_g ( E_truth g - E_model g ) <= sqrt(D_t)

over a family of test functions whose range fits inside a unit-length
interval (for such g the supremum equals at most the total variation
distance, and TV <= sqrt(KL/2) = sqrt(D_t) is exactly Pinsker).  Functions
with range [-1, 1] can exceed the bound by up to a factor of two and are
deliberately excluded from the default family.

estimate_dt_band produces a data-driven surrogate D_hat when no oracle law
is available: a local-constant reference fit on one half of the historical
data, a multiplier-bootstrap uniform confidence band for it on a grid, and
a triangle-inequality combination with the target imputer fit on the other
half.  It needs d_S = 1, where sorted windows make it O(n log n) in the n
pairs; higher-dimensional observed contexts need a different reference.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParameterError

__all__ = [
    "GaussianConditional",
    "gaussian_kl",
    "gaussian_dt",
    "unit_range_test_family",
    "TvKlReport",
    "tv_kl_check",
    "BandEstimate",
    "estimate_dt_band",
    "linear_quantile",
]


@dataclass(frozen=True)
class GaussianConditional:
    """A univariate Gaussian conditional law N(mean, sd^2).

    `mean` may also be an array, such as (T,) or (T, trials): the laws of
    many steps sharing one sd, which gaussian_kl and gaussian_dt evaluate
    step by step.  `sample` takes a scalar mean.
    """

    mean: float
    sd: float

    def __post_init__(self):
        if not np.isfinite(self.mean).all():
            raise ParameterError(f"mean must be finite, got {self.mean!r}")
        if not math.isfinite(self.sd) or self.sd <= 0.0:
            raise ParameterError(f"sd must be finite and positive, got {self.sd!r}")

    def sample(self, rng, n):
        return self.mean + self.sd * rng.standard_normal(n)


def gaussian_kl(truth, model):
    """KL( N(mu, s^2) || N(mu_hat, s_hat^2) ), exact; per step, as an
    array of the means' shape, for laws with array means."""
    s2 = truth.sd * truth.sd
    sh2 = model.sd * model.sd
    dmu = truth.mean - model.mean
    return math.log(model.sd / truth.sd) + (s2 + dmu * dmu) / (2.0 * sh2) - 0.5


def gaussian_dt(truth, model):
    """D_t = KL/2 for Gaussian truth and model laws.

    With equal unit variances this reduces to (mu - mu_hat)^2 / 4, i.e.
    sqrt(D_t) = |mu - mu_hat| / 2.
    """
    return 0.5 * gaussian_kl(truth, model)


def unit_range_test_family(centers=None, scales=(0.5, 1.0, 2.0)):
    """Default test functions: each has range inside [0, 1].

    Step indicators 1{x > c}, logistic ramps, and shifted cosines.  A
    unit-length range keeps the mean gap below the total variation
    distance, which Pinsker bounds by sqrt(D_t).
    """
    if centers is None:
        centers = np.linspace(-3.0, 3.0, 13)
    fns = []
    for c in centers:
        fns.append(lambda x, c=c: (x > c).astype(float))
    for c in centers:
        for s in scales:
            fns.append(lambda x, c=c, s=s: 1.0 / (1.0 + np.exp(-(x - c) / s)))
    for s in scales:
        fns.append(lambda x, s=s: 0.5 * (1.0 + np.cos(x / s)))
    return fns


@dataclass(frozen=True)
class TvKlReport:
    max_gap: float
    dt: float
    bound: float
    mc_se: float
    passed: bool
    n_samples: int


def tv_kl_check(truth, model, test_functions=None, dt=None, n_samples=200_000, rng=None):
    """Monte-Carlo check of the mean-gap bound sup_g |E_t g - E_m g| <= sqrt(D_t).

    `truth` and `model` must be sampleable (GaussianConditional or any
    object with .sample(rng, n)).  D_t is computed in closed form when both
    are GaussianConditional; otherwise pass `dt` explicitly.  The asserted
    bound is sqrt(D_t) + 3 * (Monte-Carlo standard error of the largest
    gap); a report with passed=False flags a violation, as planted negative
    controls must.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if dt is None:
        if isinstance(truth, GaussianConditional) and isinstance(
            model, GaussianConditional
        ):
            dt = gaussian_dt(truth, model)
        else:
            raise InputError("dt must be given when laws are not Gaussian")
    dt = float(dt)
    if dt < 0 or not math.isfinite(dt):
        raise InputError(f"dt must be finite and nonnegative, got {dt!r}")
    if test_functions is None:
        test_functions = unit_range_test_family()
    if n_samples < 2:
        raise ParameterError("n_samples must be at least 2")

    xt = truth.sample(rng, n_samples)
    xm = model.sample(rng, n_samples)
    max_gap = -np.inf
    se_at_max = 0.0
    for g in test_functions:
        gt = np.asarray(g(xt), dtype=float)
        gm = np.asarray(g(xm), dtype=float)
        gap = abs(gt.mean() - gm.mean())
        if gap > max_gap:
            max_gap = gap
            se_at_max = math.sqrt(
                gt.var(ddof=1) / n_samples + gm.var(ddof=1) / n_samples
            )
    bound = math.sqrt(dt) + 3.0 * se_at_max
    return TvKlReport(
        max_gap=float(max_gap),
        dt=dt,
        bound=float(bound),
        mc_se=float(se_at_max),
        passed=bool(max_gap <= bound),
        n_samples=int(n_samples),
    )


# -- data-driven band ---------------------------------------------------------

# multipliers per bootstrap block (128 KiB of float64, so that the few
# block-sized arrays live at once stay in cache); a block holds
# max(1, BOOTSTRAP_BLOCK_ELEMENTS // n_reference) draws
BOOTSTRAP_BLOCK_ELEMENTS = 2**14
# historical (S, W) pairs the band needs at least
MIN_BAND_PAIRS = 10


@dataclass
class BandEstimate:
    """Uniform confidence band for the reference conditional mean on a grid.

    centers[j, k] is the reference fit of E[W_k | S = grid[j]];
    half_widths[j, k] the band half-width; cross_term[j, k] the absolute
    gap between the reference and the target imputer on the grid.  dhat is
    the grid supremum of (half_width + cross_term), and dhat_sq = dhat**2
    is the plug-in D_t surrogate (the band bounds a mean gap, so its square
    is a conservative stand-in for the Gaussian divergence; surrogate=True
    records that this is not an exact KL).
    """

    grid: np.ndarray
    centers: np.ndarray
    half_widths: np.ndarray
    cross_term: np.ndarray
    alpha: float
    dhat: float
    surrogate: bool = True
    metadata: dict = field(default_factory=dict)

    @property
    def dhat_sq(self):
        return self.dhat * self.dhat

    @property
    def empirical_modulus(self):
        """Largest jump of (half_width + cross_term) between neighbouring
        grid points; bounds how much a grid refinement can move the sup."""
        total = self.half_widths + self.cross_term
        if total.shape[0] < 2:
            return 0.0
        return float(np.abs(np.diff(total, axis=0)).max())


def linear_quantile(values, q, axis=None):
    """numpy's default (linear) quantile of the float `values`, bit for bit.

    `q` is one level or a sequence of levels, the leading axis of the
    result; `axis` None reads the values flattened.  One sort and numpy's
    interpolation formula: `np.quantile` itself calls `np.unique`, whose
    import of `numpy.ma` costs a run about 10 ms.
    """
    a = np.sort(np.asarray(values, dtype=float), axis=axis)
    if axis is not None:
        a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    levels = np.asarray(q, dtype=float)
    virtual = (n - 1) * levels
    top = virtual >= n - 1  # the last value, at any weight
    below = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(top, -1, below + 1)
    weight = (virtual - below).reshape(levels.shape + (1,) * (a.ndim - 1))
    left, right = a[below], a[above]
    diff = right - left
    result = np.where(weight >= 0.5, right - diff * (1 - weight), left + diff * weight)
    # a slice holding NaN, which sorts last, has quantile NaN
    return np.where(np.isnan(a[-1]), a[-1], result)[()]


def _box_windows(s_sorted, points, h):
    """[lo, hi) bounds in s_sorted of each box {s : |point - s| <= h/2}."""
    lo = np.searchsorted(s_sorted, points - 0.5 * h, "left")
    return lo, np.searchsorted(s_sorted, points + 0.5 * h, "right")


def _window_sums(values, lo, hi):
    """Sums of values[lo:hi] along axis 0 for each [lo, hi), by prefix sums."""
    sums = np.zeros((values.shape[0] + 1,) + values.shape[1:])
    np.cumsum(values, axis=0, out=sums[1:])
    return sums[hi] - sums[lo]


def estimate_dt_band(
    history,
    query_points=None,
    alpha=0.1,
    split_seed=0,
    bootstrap_draws=200,
    bandwidth=None,
    beta=1.0,
    fit_target=None,
    rng=None,
):
    """Data-driven divergence surrogate from historical data alone.

    The flattened pairs are split 50/50 at random.  A local-constant (box
    kernel) reference is fit on the first half; a multiplier bootstrap of
    the studentized process over the grid gives the 1-alpha uniform
    half-widths.  Studentization uses a pooled noise variance (the W noise
    is conditionally homoskedastic in this model class), which keeps the
    studentized field Gaussian rather than t-tailed at realistic window
    counts.  `fit_target(first_dataset_half) -> Imputer` fits the model
    under audit on the second half; with fit_target=None the reference
    itself is audited (p_hat_0 = p_hat) and the cross term is identically
    zero.  Coordinates of W are combined by a Bonferroni split of alpha.
    Needs d_S = 1; sorted windows and prefix sums make it O(n log n).

    The bootstrap draws its multipliers in blocks of
    max(1, BOOTSTRAP_BLOCK_ELEMENTS // n_reference) draws, first to last:
    each block is the next rows of one (bootstrap_draws, n_reference)
    standard-normal fill, and leaves only each draw's sup.  Its memory is a
    few arrays of one block's size plus the (d_W, bootstrap_draws) sups,
    however long the history.  The band, and the state it leaves `rng` in,
    are those of drawing every multiplier at once.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if (
        isinstance(bootstrap_draws, bool)
        or not isinstance(bootstrap_draws, numbers.Integral)
        or bootstrap_draws < 10
    ):
        raise ParameterError(f"bootstrap_draws must be an integer >= 10, got {bootstrap_draws!r}")
    if bandwidth is not None and (
        isinstance(bandwidth, bool)
        or not isinstance(bandwidth, numbers.Real)
        or not (math.isfinite(bandwidth) and bandwidth > 0)
    ):
        raise ParameterError(f"bandwidth must be finite and positive, got {bandwidth!r}")
    s_flat, w_flat = history.flatten()
    n = s_flat.shape[0]
    if n < MIN_BAND_PAIRS:
        raise InputError(f"need at least {MIN_BAND_PAIRS} historical pairs to form a band")
    d_s, d_w = s_flat.shape[1], w_flat.shape[1]
    if d_s != 1:
        raise InputError(f"the band's box-kernel reference needs d_S = 1, got d_S = {d_s}")
    if rng is None:
        rng = np.random.default_rng(split_seed)

    perm = np.random.default_rng(split_seed).permutation(n)
    half = n // 2
    i0, i1 = perm[:half], perm[half:]
    order = np.argsort(s_flat[i0, 0], kind="stable")
    s0 = s_flat[i0[order], 0]
    w0 = w_flat[i0[order]]

    if bandwidth is None:
        bandwidth = float(half ** (-1.0 / (2.0 * beta + d_s)))
    if query_points is None:
        lo, hi = linear_quantile(s0, [0.05, 0.95])
        spacing = bandwidth / 4.0
        count = max(int(math.ceil((hi - lo) / spacing)) + 1, 9)
        grid = np.linspace(lo, hi, count)[:, None]
    else:
        grid = np.asarray(query_points, dtype=float)
        if grid.ndim == 1:
            grid = grid[:, None]
        if grid.shape[1] != d_s:
            raise InputError(f"query points must have {d_s} columns")

    grid_lo, grid_hi = _box_windows(s0, grid[:, 0], bandwidth)
    counts = grid_hi - grid_lo
    ok = counts > 0
    counts_safe = np.maximum(counts, 1)
    centers = _window_sums(w0, grid_lo, grid_hi) / counts_safe[:, None]
    centers[~ok] = w0.mean(axis=0)

    # residuals against the local-constant fit evaluated at the training
    # points themselves (each window includes its own point)
    own_lo, own_hi = _box_windows(s0, s0, bandwidth)
    own_counts = own_hi - own_lo
    resid = w0 - _window_sums(w0, own_lo, own_hi) / own_counts[:, None]

    # pooled homoskedastic noise variance per W coordinate.  Studentizing
    # every window by a local variance estimate leaves t-like tails that a
    # Gaussian multiplier sup systematically undershoots; the conditional
    # noise here is constant by model assumption, and pooling makes the
    # denominator concentrate so the studentized field is asymptotically
    # standard normal.  E sum resid^2 = sigma^2 sum(1 - 1/m_i) because each
    # window's fit absorbs 1/m_i of its own noise.
    denom = max(float((1.0 - 1.0 / own_counts).sum()), 1e-12)
    sigma_sq = (resid * resid).sum(axis=0) / denom
    se = np.sqrt(np.maximum(sigma_sq, 0.0)[None, :] / counts_safe[:, None])
    se = np.maximum(se, 1e-12)

    # multiplier bootstrap of the studentized supremum, per W coordinate:
    # G_b(s_j) = sum_i e_{b,i} 1{i in window j} eps_i / count_j over se(s_j);
    # Gaussian multipliers e, drawn in split order, then sorted with the points
    alpha_coord = alpha / d_w
    sup_draws = np.empty((d_w, bootstrap_draws))
    block = max(1, BOOTSTRAP_BLOCK_ELEMENTS // half)
    for start in range(0, bootstrap_draws, block):
        stop = min(start + block, bootstrap_draws)
        multipliers = rng.standard_normal((stop - start, half)).T[order]
        for k in range(d_w):
            boot = _window_sums(multipliers * resid[:, k, None], grid_lo, grid_hi)
            boot /= counts_safe[:, None]
            sup_draws[k, start:stop] = (np.abs(boot) / se[:, k, None]).max(axis=0)
    half_widths = linear_quantile(sup_draws, 1.0 - alpha_coord, axis=1) * se

    if fit_target is None:
        cross = np.zeros_like(centers)
        target_desc = "reference"
    else:
        from .imputation import HistoricalDataset  # local import avoids a cycle

        target = fit_target(
            HistoricalDataset(s_flat[i1][:, None, :], w_flat[i1][:, None, :])
        )
        # each grid point is a lane of one step
        cross = np.abs(centers - target.conditional_means(grid[None])[0][0])
        target_desc = target.kind

    dhat = float((half_widths + cross).max())
    return BandEstimate(
        grid=grid,
        centers=centers,
        half_widths=half_widths,
        cross_term=cross,
        alpha=alpha,
        dhat=dhat,
        surrogate=True,
        metadata={
            "bandwidth": bandwidth,
            "beta": beta,
            "split_seed": split_seed,
            "bootstrap_draws": bootstrap_draws,
            "n_reference": int(half),
            "n_target": int(n - half),
            "alpha_per_coordinate": alpha_coord,
            "target": target_desc,
            "grid_points_without_support": int((~ok).sum()),
            "d_s_limit_note": "band reference is local-constant; d_S = 1 only, O(n log n) in n pairs",
        },
    )

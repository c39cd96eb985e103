import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from pulsebandit import (
    GaussianConditional,
    HistoricalDataset,
    InputError,
    ParameterError,
    estimate_dt_band,
    fit_linear_ar,
    gaussian_dt,
    gaussian_kl,
    substream,
    tv_kl_check,
    unit_range_test_family,
)


def kl_quadrature(p, q):
    """Oracle: numerically integrate p(x) log(p(x)/q(x))."""

    def integrand(x):
        lp = -0.5 * ((x - p.mean) / p.sd) ** 2 - math.log(p.sd * math.sqrt(2 * math.pi))
        lq = -0.5 * ((x - q.mean) / q.sd) ** 2 - math.log(q.sd * math.sqrt(2 * math.pi))
        return math.exp(lp) * (lp - lq)

    lo = min(p.mean - 12 * p.sd, q.mean - 12 * q.sd)
    hi = max(p.mean + 12 * p.sd, q.mean + 12 * q.sd)
    val, err = integrate.quad(
        integrand, lo, hi, limit=400, points=[p.mean, q.mean],
        epsabs=1e-10, epsrel=1e-10,
    )
    assert err < 5e-7  # comfortably below the 1e-6 comparison tolerance
    return val


def test_gaussian_kl_worked_example():
    # equal unit variances, mean gap 2: KL = 2, divergence D = 1
    p = GaussianConditional(2.0, 1.0)
    q = GaussianConditional(0.0, 1.0)
    assert gaussian_kl(p, q) == pytest.approx(2.0, abs=1e-12)
    assert gaussian_dt(p, q) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_kl_identical_is_exactly_zero():
    p = GaussianConditional(0.7, 0.3)
    assert gaussian_kl(p, GaussianConditional(0.7, 0.3)) == 0.0


def test_gaussian_dt_over_step_means_is_the_per_step_value():
    # laws of T steps sharing one sd give each step's closed form, bit for bit
    rng = substream(22, "kl-steps")
    mu, mu_hat = rng.normal(0, 2, 50), rng.normal(0, 2, 50)
    dts = gaussian_dt(GaussianConditional(mu, 0.4), GaussianConditional(mu_hat, 1.3))
    assert dts.shape == (50,)
    for i in range(50):
        step = gaussian_dt(
            GaussianConditional(float(mu[i]), 0.4), GaussianConditional(float(mu_hat[i]), 1.3)
        )
        assert dts[i] == step
    mu[7] = np.nan
    with pytest.raises(ParameterError, match="mean must be finite"):
        GaussianConditional(mu, 0.4)


def test_gaussian_kl_matches_quadrature():
    rng = substream(21, "kl")
    for _ in range(25):
        p = GaussianConditional(float(rng.normal(0, 2)), float(rng.uniform(0.2, 3)))
        q = GaussianConditional(float(rng.normal(0, 2)), float(rng.uniform(0.2, 3)))
        assert gaussian_kl(p, q) == pytest.approx(kl_quadrature(p, q), abs=1e-6)


def test_gaussian_validation():
    with pytest.raises(ParameterError):
        GaussianConditional(0.0, 0.0)
    with pytest.raises(ParameterError):
        GaussianConditional(float("nan"), 1.0)


def test_test_family_is_unit_range():
    rng = substream(22, "fam")
    xs = rng.normal(0, 5, 2000)
    for fn in unit_range_test_family():
        vals = fn(xs)
        assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_tv_kl_check_passes_on_true_divergence():
    # unit-variance pair with mean gap 1: TV = 2 Phi(1/2) - 1 ~ 0.3829,
    # sqrt(D) = sqrt(KL/2) = 0.5; indicator mean gaps stay below the bound
    truth = GaussianConditional(1.0, 1.0)
    model = GaussianConditional(0.0, 1.0)
    report = tv_kl_check(truth, model, n_samples=60_000, rng=substream(3, "tv"))
    assert report.passed
    from scipy.stats import norm

    tv = float(norm.cdf(0.5) - norm.cdf(-0.5))
    assert report.max_gap == pytest.approx(tv, abs=0.02)
    assert report.dt == pytest.approx(0.25, abs=1e-12)
    assert math.sqrt(report.dt) == pytest.approx(0.5, abs=1e-12)


def test_tv_kl_check_flags_planted_underreport():
    # claim a tiny divergence for a well-separated pair: must flag
    truth = GaussianConditional(2.0, 1.0)
    model = GaussianConditional(0.0, 1.0)
    report = tv_kl_check(
        truth, model, dt=1e-4, n_samples=60_000, rng=substream(4, "tv")
    )
    assert not report.passed
    assert report.max_gap > report.bound


def test_tv_kl_check_requires_dt_for_non_gaussian():
    class Sampler:
        def sample(self, rng, n):
            return rng.uniform(-1, 1, n)

    with pytest.raises(InputError):
        tv_kl_check(Sampler(), Sampler(), n_samples=1000, rng=substream(5, "tv"))


def make_band_dataset(rng, n, f, noise_sd=0.2):
    s = rng.uniform(-2.0, 2.0, (n, 1, 1))
    w = f(s) + rng.normal(0.0, noise_sd, (n, 1, 1))
    return HistoricalDataset(s=s, w=w)


def test_band_covers_known_function_mostly():
    rng = substream(31, "band")
    f = lambda s: 0.3 * s + 0.2 * np.sin(2.0 * s)
    hits = 0
    reps = 30
    for rep in range(reps):
        data = make_band_dataset(substream(31, "band", rep), 1500, f)
        band = estimate_dt_band(data, alpha=0.1, split_seed=rep)
        truth = f(band.grid[:, 0])[:, None]
        inside = np.abs(band.centers - truth) <= band.half_widths
        hits += bool(inside.all())
    assert hits / reps >= 0.8  # 1 - alpha - MC slack


def test_band_cross_term_zero_without_target():
    data = make_band_dataset(substream(32, "band"), 800, lambda s: 0.5 * s)
    band = estimate_dt_band(data, alpha=0.1)
    assert float(np.abs(band.cross_term).max()) == 0.0
    assert band.surrogate
    assert band.dhat == pytest.approx(float(band.half_widths.max()), abs=0)
    assert band.dhat_sq == pytest.approx(band.dhat**2, abs=0)


def test_band_with_linear_target_cross_term():
    # target audited on the second half: linear fit of a linear truth ->
    # cross term stays small relative to the band widths
    data = make_band_dataset(substream(33, "band"), 2000, lambda s: 0.4 * s, 0.1)
    band = estimate_dt_band(
        data,
        alpha=0.1,
        fit_target=lambda half: fit_linear_ar(half, lag=0),
    )
    assert float(band.cross_term.max()) < float(band.half_widths.max()) * 2.0
    assert band.metadata["target"] == "linear_ar"


def test_band_deterministic_given_split_seed():
    data = make_band_dataset(substream(34, "band"), 600, lambda s: np.cos(s))
    b1 = estimate_dt_band(data, split_seed=9, rng=substream(9, "boot"))
    b2 = estimate_dt_band(data, split_seed=9, rng=substream(9, "boot"))
    assert b1.dhat == b2.dhat
    np.testing.assert_array_equal(b1.half_widths, b2.half_widths)


def test_band_dhat_shrinks_with_more_data():
    f = lambda s: 0.3 * s
    small = []
    large = []
    for rep in range(5):
        d1 = make_band_dataset(substream(35, "band", rep), 400, f)
        d2 = make_band_dataset(substream(36, "band", rep), 6400, f)
        small.append(estimate_dt_band(d1, split_seed=rep).dhat)
        large.append(estimate_dt_band(d2, split_seed=rep).dhat)
    assert np.mean(large) < np.mean(small)


def test_band_rejects_bad_grid():
    data = make_band_dataset(substream(37, "band"), 100, lambda s: s)
    with pytest.raises(InputError):
        estimate_dt_band(data, query_points=np.zeros((5, 3)))
    with pytest.raises(ParameterError):
        estimate_dt_band(data, alpha=1.5)
    with pytest.raises(ParameterError):
        estimate_dt_band(data, bootstrap_draws=3)
    # the box-kernel reference is one-dimensional
    wide = HistoricalDataset(s=np.zeros((100, 1, 2)), w=np.zeros((100, 1, 1)))
    with pytest.raises(InputError, match="d_S = 1"):
        estimate_dt_band(wide)


@pytest.mark.parametrize(
    "bad, name",
    [
        ({"bandwidth": -1.0}, "bandwidth"),
        ({"bandwidth": 0.0}, "bandwidth"),
        ({"bandwidth": math.inf}, "bandwidth"),
        ({"bandwidth": math.nan}, "bandwidth"),
        ({"bandwidth": True}, "bandwidth"),
        ({"bandwidth": "0.3"}, "bandwidth"),
        ({"bootstrap_draws": 200.0}, "bootstrap_draws"),
        ({"bootstrap_draws": True}, "bootstrap_draws"),
        ({"bootstrap_draws": 9}, "bootstrap_draws"),
    ],
)
def test_band_rejects_bad_bandwidth_and_draw_count(bad, name):
    data = make_band_dataset(substream(37, "band"), 100, lambda s: s)
    with pytest.raises(ParameterError, match=name):
        estimate_dt_band(data, **bad)


def test_band_takes_numpy_scalars():
    data = make_band_dataset(substream(37, "band"), 100, lambda s: s)
    band = estimate_dt_band(data, bandwidth=np.float64(0.5), bootstrap_draws=np.int64(20))
    assert band.metadata["bootstrap_draws"] == 20


def test_band_empirical_modulus_reports_refinement_stability():
    data = make_band_dataset(substream(38, "band"), 1200, lambda s: 0.2 * s)
    band = estimate_dt_band(data, alpha=0.1)
    # neighbouring grid points are a quarter-bandwidth apart; the sup can
    # move by at most one inter-point jump under refinement
    assert band.empirical_modulus < band.dhat


# -- sorted windows against a dense box count ----------------------------------


def dense_box(s, points, h):
    """inside[j, i] = 1{ |points_j - s_i| <= h/2 }: the O(n^2) reference."""
    return np.abs(points[:, None] - s[None, :]) <= 0.5 * h


def dense_band(data, grid, split_seed, bootstrap_draws=200, alpha=0.1):
    """Centers, half-widths and empty-window count of the default band on
    `grid`, by a dense box count and the dense multiplier product."""
    s, w = data.flatten()
    half = s.shape[0] // 2
    i0 = np.random.default_rng(split_seed).permutation(s.shape[0])[:half]
    s0, w0 = s[i0, 0], w[i0]
    h = half ** (-1.0 / 3.0)
    inside = dense_box(s0, grid, h)
    counts = np.maximum(inside.sum(axis=1), 1)
    centers = inside @ w0 / counts[:, None]
    centers[inside.sum(axis=1) == 0] = w0.mean(axis=0)
    own = dense_box(s0, s0, h)
    own_counts = own.sum(axis=1)
    resid = w0 - own @ w0 / own_counts[:, None]
    sigma_sq = (resid * resid).sum(axis=0) / (1.0 - 1.0 / own_counts).sum()
    se = np.sqrt(sigma_sq[None, :] / counts[:, None])
    multipliers = np.random.default_rng(split_seed).standard_normal((bootstrap_draws, half))
    widths = np.empty_like(centers)
    for k in range(w0.shape[1]):
        boot = multipliers @ (inside * resid[:, k] / counts[:, None]).T
        sup = (np.abs(boot) / se[:, k]).max(axis=1)
        widths[:, k] = np.quantile(sup, 1.0 - alpha / w0.shape[1]) * se[:, k]
    return centers, widths, int((inside.sum(axis=1) == 0).sum())


def window_cases():
    """(s, w, points, h): random data; duplicate s; points exactly at
    g +- h/2 (all values dyadic, so exact); windows beyond the data; and
    the 10-point minimum."""
    rng = substream(39, "windows")
    s = rng.normal(0.0, 1.0, 400)
    yield s, rng.normal(3.0, 1.0, (400, 2)), np.linspace(-3.0, 3.0, 41), 0.3
    s = rng.integers(-6, 7, 300) * 0.25
    yield s, rng.normal(0.0, 1.0, (300, 1)), np.arange(-8, 9) * 0.25, 0.5
    s = np.arange(-16, 17) * 0.125
    yield s, rng.normal(0.0, 1.0, (33, 1)), np.arange(-4, 5) * 0.25, 0.5
    s = rng.uniform(-1.0, 1.0, 50)
    yield s, rng.normal(0.0, 1.0, (50, 1)), np.array([-5.0, -1.5, 0.0, 1.5, 5.0]), 0.2
    s = rng.normal(0.0, 1.0, 10)
    yield s, rng.normal(0.0, 1.0, (10, 1)), np.linspace(-2.0, 2.0, 9), 0.8


@pytest.mark.parametrize("case", range(5))
def test_sorted_windows_match_dense_box_count(case):
    from pulsebandit.calibration import _box_windows, _window_sums

    s, w, points, h = list(window_cases())[case]
    order = np.argsort(s, kind="stable")
    s_sorted, w_sorted = s[order], w[order]
    for at in (points, s_sorted):
        inside = dense_box(s_sorted, at, h)
        lo, hi = _box_windows(s_sorted, at, h)
        np.testing.assert_array_equal(hi - lo, inside.sum(axis=1))
        counts = np.maximum(hi - lo, 1)[:, None]
        np.testing.assert_allclose(
            _window_sums(w_sorted, lo, hi) / counts, inside @ w_sorted / counts,
            rtol=0, atol=1e-12,
        )
    assert (hi - lo).min() >= 1  # each own window holds its own point
    if case == 3:
        assert (dense_box(s_sorted, points, h).sum(axis=1) == 0).sum() == 4


def band_datasets():
    rng = substream(40, "band")
    s = rng.uniform(-2.0, 2.0, (600, 1, 1))
    w = np.concatenate([3.0 + np.sin(s), rng.normal(0.0, 0.3, (600, 1, 1))], axis=2)
    yield HistoricalDataset(s=s, w=w + rng.normal(0.0, 0.2, w.shape))
    s = rng.integers(-4, 5, (400, 1, 1)) * 0.25  # duplicates on a dyadic lattice
    yield HistoricalDataset(s=s, w=0.5 * s + rng.normal(0.0, 0.2, s.shape))
    s = np.where(rng.random((300, 1, 1)) < 0.5, -1.0, 1.0)  # a gap: empty windows
    yield HistoricalDataset(s=s, w=s + rng.normal(0.0, 0.2, s.shape))
    s = rng.normal(0.0, 1.0, (10, 1, 1))
    yield HistoricalDataset(s=s, w=s + rng.normal(0.0, 0.2, s.shape))


@pytest.mark.parametrize("case", range(4))
def test_band_matches_dense_reference(case):
    data = list(band_datasets())[case]
    band = estimate_dt_band(data, split_seed=case)
    centers, widths, empty = dense_band(data, band.grid[:, 0], split_seed=case)
    np.testing.assert_allclose(band.centers, centers, rtol=0, atol=1e-12)
    np.testing.assert_allclose(band.half_widths, widths, rtol=1e-12, atol=0)
    assert band.metadata["grid_points_without_support"] == empty
    if case == 2:
        assert empty > 0


# -- the streamed bootstrap against one (draws, half) multiplier fill -----------


def one_shot_band(data, grid, split_seed, bootstrap_draws, rng, alpha=0.1):
    """Centers and half-widths of the default band on `grid` with every
    bootstrap multiplier drawn by one (bootstrap_draws, half) call."""
    from pulsebandit.calibration import _box_windows, _window_sums

    s, w = data.flatten()
    half = s.shape[0] // 2
    i0 = np.random.default_rng(split_seed).permutation(s.shape[0])[:half]
    order = np.argsort(s[i0, 0], kind="stable")
    s0, w0 = s[i0[order], 0], w[i0[order]]
    h = float(half ** (-1.0 / 3.0))
    lo, hi = _box_windows(s0, grid, h)
    counts = np.maximum(hi - lo, 1)
    centers = _window_sums(w0, lo, hi) / counts[:, None]
    centers[hi == lo] = w0.mean(axis=0)
    own_lo, own_hi = _box_windows(s0, s0, h)
    own = own_hi - own_lo
    resid = w0 - _window_sums(w0, own_lo, own_hi) / own[:, None]
    sigma_sq = (resid * resid).sum(axis=0) / max(float((1.0 - 1.0 / own).sum()), 1e-12)
    se = np.maximum(np.sqrt(np.maximum(sigma_sq, 0.0)[None, :] / counts[:, None]), 1e-12)
    multipliers = rng.standard_normal((bootstrap_draws, half)).T[order]
    widths = np.empty_like(centers)
    for k in range(w0.shape[1]):
        boot = _window_sums(multipliers * resid[:, k, None], lo, hi) / counts[:, None]
        sup = (np.abs(boot) / se[:, k, None]).max(axis=0)
        widths[:, k] = np.quantile(sup, 1.0 - alpha / w0.shape[1]) * se[:, k]
    return centers, widths


@pytest.mark.parametrize("d_w", [1, 2])
@pytest.mark.parametrize(
    "draws, block",
    # below, equal to and one above a 16-draw block, 2.5 blocks, and the
    # module's own block (54 draws at 300 reference points) crossed nine times
    [(10, 16), (16, 16), (17, 16), (40, 16), (500, None)],
)
def test_streamed_bootstrap_is_the_one_shot_band_bit_for_bit(monkeypatch, d_w, draws, block):
    import pulsebandit.calibration as calibration

    rng = substream(42, "stream", d_w)
    s = rng.uniform(-2.0, 2.0, (600, 1, 1))
    w = np.concatenate([np.sin(s), 0.5 * s][:d_w], axis=2)
    data = HistoricalDataset(s=s, w=w + rng.normal(0.0, 0.2, w.shape))
    if block is not None:
        monkeypatch.setattr(calibration, "BOOTSTRAP_BLOCK_ELEMENTS", block * 300)
    streamed_rng, one_shot_rng = substream(42, "boot"), substream(42, "boot")
    band = estimate_dt_band(data, split_seed=3, bootstrap_draws=draws, rng=streamed_rng)
    centers, widths = one_shot_band(data, band.grid[:, 0], 3, draws, one_shot_rng)
    assert band.metadata["n_reference"] == 300
    assert (band.centers == centers).all()
    assert (band.half_widths == widths).all()
    assert band.dhat == float(widths.max())
    # a shared generator is left where the one-shot fill leaves it
    assert streamed_rng.standard_normal() == one_shot_rng.standard_normal()


def test_band_bootstrap_memory_does_not_grow_with_the_draws():
    # 20,000 pairs x 200 draws: one multiplier fill of (200, 10,000) floats
    # is 15 MiB, and the one-shot bootstrap held four such arrays at once
    rng = substream(43, "band")
    s = rng.uniform(-2.0, 2.0, (20_000, 1, 1))
    w = np.concatenate([0.5 * s, np.cos(s)], axis=2) + rng.normal(0.0, 0.2, (20_000, 1, 2))
    data = HistoricalDataset(s=s, w=w)
    boot_rng = substream(43, "boot")
    tracemalloc.start()
    try:
        estimate_dt_band(data, bootstrap_draws=200, rng=boot_rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_calibration_demo_plug_in_dt_is_pinned():
    # recorded with the dense box count; the sorted windows agree to rounding
    import importlib.resources as ir

    import pulsebandit.configs as configs
    from pulsebandit.harness import load_config, pretrain

    cfg = load_config(str(ir.files(configs) / "calibration_demo.json"))
    assert pretrain(cfg)["plug_in_dt"] == pytest.approx(0.002133885479790829, rel=1e-12)


def _same_bits(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) and (
        np.asarray(a).tobytes() == np.asarray(b).tobytes()
    )


@pytest.mark.parametrize("n", list(range(1, 41)) + [200, 960, 10_000])
def test_linear_quantile_is_np_quantile_bit_for_bit(n):
    # the run's quantiles (B, the band's grid and half-widths) skip
    # np.quantile's import of numpy.ma, and keep its every bit: a scalar
    # level, a list of levels and levels along an axis, ties included
    from pulsebandit.calibration import linear_quantile

    rng = substream(61, "quantile", n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 6)
    values[: n // 4] = values[-1]  # ties
    for q in (0.0, 0.05, 0.3333, 0.5, 0.95, 0.999, 1.0, [0.05, 0.95], (1.0, 0.0, 0.5)):
        assert _same_bits(linear_quantile(values, q), np.quantile(values, q)), q
    block = rng.standard_normal((3, n))
    for q in (0.9, 1.0 - 0.1 / 3, [0.1, 0.9]):
        for axis in (None, 0, 1, -1):
            want = np.quantile(block, q, axis=axis)
            assert _same_bits(linear_quantile(block, q, axis=axis), want), (q, axis)
    values[n // 2] = np.nan
    assert np.isnan(linear_quantile(values, 0.5)) and np.isnan(np.quantile(values, 0.5))

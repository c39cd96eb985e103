import json

import numpy as np
import pytest

from pulsebandit import (
    FitError,
    HistoricalDataset,
    Imputer,
    ImputerKind,
    InputError,
    PersistenceError,
    expected_feature_matrix,
    fit_kernel,
    fit_linear_ar,
    load_imputer,
    null_imputer,
    phi,
    phi_batch,
    save_imputer,
    substream,
    synthetic_interaction_map,
)


MISSING = object()  # the entry is left out


def make_linear_dataset(rng, n, t0, coef, intercept, noise_sd=0.0):
    """W_t = intercept + coef . (S_t, S_{t-1}) + noise, S i.i.d. N(0,1)."""
    s = rng.standard_normal((n, t0, 1))
    w = np.empty((n, t0, 1))
    for i in range(n):
        for t in range(t0):
            lag1 = s[i, t - 1, 0] if t >= 1 else 0.0
            w[i, t, 0] = intercept + coef[0] * s[i, t, 0] + coef[1] * lag1
            if noise_sd > 0:
                w[i, t, 0] += rng.normal(0.0, noise_sd)
    return HistoricalDataset(s=s, w=w)


def test_linear_ar_exact_recovery_noiseless():
    rng = substream(101, "fit")
    data = make_linear_dataset(rng, 40, 30, coef=(0.8, -0.3), intercept=0.25)
    imp = fit_linear_ar(data, lag=1)
    np.testing.assert_allclose(imp.params["intercept"], [0.25], atol=1e-10)
    np.testing.assert_allclose(
        imp.params["coef"].ravel(), [0.8, -0.3], atol=1e-10
    )
    assert imp.params["noise_sd"][0] < 1e-8


def test_linear_ar_conditional_mean_worked_example():
    # known beta = (0.5, -0.14), lag 0: mu = 0.5 - 0.14 * s
    imp = Imputer(
        kind=ImputerKind.LINEAR_AR,
        d_s=1,
        d_w=1,
        params={
            "lag": 0,
            "intercept": np.array([0.5]),
            "coef": np.array([[-0.14]]),
            "noise_sd": np.array([0.1]),
        },
    )
    mu = imp.conditional_mean(np.array([[0.4]]))
    assert mu[0] == pytest.approx(0.5 - 0.14 * 0.4, abs=1e-15)


def test_expected_features_analytic_matches_map():
    imp = Imputer(
        kind=ImputerKind.LINEAR_AR,
        d_s=1,
        d_w=1,
        params={
            "lag": 0,
            "intercept": np.array([0.5]),
            "coef": np.array([[-0.14]]),
            "noise_sd": np.array([0.1]),
        },
    )
    fmap = synthetic_interaction_map()
    hist = np.array([[0.4]])
    out = expected_feature_matrix(imp, fmap, hist)
    mu = 0.5 - 0.14 * 0.4
    np.testing.assert_allclose(out[1], [1.0, 0.4, mu, 0.4], atol=1e-15)


def test_lag_zero_padding_before_history_fills():
    imp = Imputer(
        kind=ImputerKind.LINEAR_AR,
        d_s=1,
        d_w=1,
        params={
            "lag": 2,
            "intercept": np.array([0.0]),
            "coef": np.array([[1.0], [10.0], [100.0]]),
            "noise_sd": np.array([0.1]),
        },
    )
    # only one step of history: both lags are zero-padded
    mu = imp.conditional_mean(np.array([[2.0]]))
    assert mu[0] == pytest.approx(2.0, abs=1e-12)
    # two steps: first lag live, second padded
    mu2 = imp.conditional_mean(np.array([[3.0], [2.0]]))
    assert mu2[0] == pytest.approx(2.0 + 30.0, abs=1e-12)


def test_fit_linear_ar_rank_failure_names_the_problem():
    s = np.zeros((5, 8, 1))  # constant zero S: design collinear with intercept
    w = np.ones((5, 8, 1))
    with pytest.raises(FitError) as err:
        fit_linear_ar(HistoricalDataset(s=s, w=w), lag=1, ridge_eps=0.0)
    assert "rank" in str(err.value)


def test_fit_linear_ar_needs_enough_steps():
    data = HistoricalDataset(s=np.zeros((3, 2, 1)), w=np.zeros((3, 2, 1)))
    with pytest.raises(InputError):
        fit_linear_ar(data, lag=5)


def test_kernel_box_average_hand_example():
    # train pairs: s in {0.0, 0.05, 1.0}, w = {1, 3, 10}; bandwidth 0.2
    # query 0.025: window holds the first two points -> mean 2
    s = np.array([[[0.0]], [[0.05]], [[1.0]]])
    w = np.array([[[1.0]], [[3.0]], [[10.0]]])
    imp = fit_kernel(HistoricalDataset(s=s, w=w), bandwidth=0.2)
    assert imp.conditional_mean(np.array([[0.025]]))[0] == pytest.approx(2.0)
    # query far from all points: global-mean fallback
    far = imp.conditional_mean(np.array([[50.0]]))
    assert far[0] == pytest.approx((1.0 + 3.0 + 10.0) / 3.0)
    assert imp.fallback_count == 1


def test_kernel_default_bandwidth_rate():
    # n^(-1/(2 beta + d_S)) with beta=1, d_S=1 -> n^(-1/3)
    rng = substream(7, "kern")
    s = rng.standard_normal((64, 1, 1))
    w = s.copy()
    imp = fit_kernel(HistoricalDataset(s=s, w=w))
    assert imp.params["bandwidth"] == pytest.approx(64 ** (-1.0 / 3.0), rel=1e-12)


def test_kernel_consistency_improves_with_n():
    rng = substream(8, "kern-rate")
    errs = []
    for n in (200, 3200):
        s = rng.uniform(-1, 1, (n, 1, 1))
        w = np.sin(3 * s) + rng.normal(0, 0.1, (n, 1, 1))
        imp = fit_kernel(HistoricalDataset(s=s, w=w))
        grid = np.linspace(-0.8, 0.8, 41)
        pred = np.array([imp.conditional_mean(np.array([[g]]))[0] for g in grid])
        errs.append(np.abs(pred - np.sin(3 * grid)).mean())
    assert errs[1] < errs[0]


def test_null_imputer_returns_zero():
    imp = null_imputer(2, 3)
    np.testing.assert_allclose(imp.conditional_mean(np.zeros((4, 2))), np.zeros(3))


def test_history_shape_validation():
    imp = null_imputer(2, 1)
    with pytest.raises(InputError):
        imp.conditional_mean(np.zeros((4, 3)))  # wrong d_S
    with pytest.raises(InputError):
        imp.conditional_mean(np.zeros((0, 2)))  # empty history


def test_dataset_validation():
    with pytest.raises(InputError):
        HistoricalDataset(s=np.zeros((2, 3)), w=np.zeros((2, 3, 1)))
    with pytest.raises(InputError):
        HistoricalDataset(s=np.zeros((2, 3, 1)), w=np.zeros((2, 4, 1)))
    data = HistoricalDataset(s=np.zeros((2, 3, 1)), w=np.ones((2, 3, 2)))
    assert data.n_traj == 2 and data.t0 == 3 and data.d_s == 1 and data.d_w == 2
    s_flat, w_flat = data.flatten()
    assert s_flat.shape == (6, 1) and w_flat.shape == (6, 2)


def test_save_load_linear_ar_roundtrip_bitexact(tmp_path):
    rng = substream(55, "persist")
    data = make_linear_dataset(rng, 30, 20, coef=(0.4, 0.2), intercept=-0.1,
                               noise_sd=0.2)
    imp = fit_linear_ar(data, lag=1)
    path = tmp_path / "imp.json"
    save_imputer(imp, str(path))
    back = load_imputer(str(path))
    assert back.kind == imp.kind
    np.testing.assert_array_equal(back.params["intercept"], imp.params["intercept"])
    np.testing.assert_array_equal(back.params["coef"], imp.params["coef"])
    np.testing.assert_array_equal(back.params["noise_sd"], imp.params["noise_sd"])
    hist = np.array([[0.3], [0.1]])
    assert back.conditional_mean(hist)[0] == imp.conditional_mean(hist)[0]


def test_save_load_kernel_roundtrip_bitexact(tmp_path):
    rng = substream(56, "persist")
    s = rng.standard_normal((50, 1, 1))
    w = 2 * s + rng.normal(0, 0.1, (50, 1, 1))
    imp = fit_kernel(HistoricalDataset(s=s, w=w))
    path = tmp_path / "kern.json"
    save_imputer(imp, str(path))
    back = load_imputer(str(path))
    q = np.array([[0.2]])
    assert back.conditional_mean(q)[0] == imp.conditional_mean(q)[0]
    assert back.params["bandwidth"] == imp.params["bandwidth"]


@pytest.mark.parametrize("kind", ["linear_ar", "kernel", "null"])
def test_save_load_roundtrip_keeps_every_field(tmp_path, kind):
    rng = substream(58, "persist", kind)
    s = rng.standard_normal((40, 5, 1))
    data = HistoricalDataset(s=s, w=0.5 * s + rng.normal(0, 0.1, s.shape))
    if kind == "linear_ar":
        imp = fit_linear_ar(data, lag=1)
    elif kind == "kernel":
        imp = fit_kernel(data)
    else:
        imp = null_imputer(1, 1)
    path = tmp_path / f"{kind}.json"
    save_imputer(imp, str(path))
    doc = json.loads(path.read_text())
    assert "analytic" not in doc and "mc_samples" not in doc
    # format-1 files of older versions carry the retired Monte-Carlo keys
    old = tmp_path / f"old_{kind}.json"
    old.write_text(json.dumps({**doc, "mc_samples": 64, "analytic": True}))
    for back in (load_imputer(str(path)), load_imputer(str(old))):
        assert (back.kind, back.d_s, back.d_w) == (imp.kind, imp.d_s, imp.d_w)
        assert back.params.keys() == imp.params.keys()
        for key, value in imp.params.items():
            assert np.asarray(back.params[key]).tobytes() == np.asarray(value).tobytes(), key


# (imputer kind, dotted entry, bad value) of a saved file; every case must
# be a PersistenceError naming the entry
CORRUPT = [
    ("linear_ar", "params.coef", MISSING),
    ("linear_ar", "format_version", True),
    ("linear_ar", "params", 5),
    ("linear_ar", "analytic", False),
    ("linear_ar", "analytic", "false"),
    ("linear_ar", "analytic", 0),
    ("linear_ar", "d_s", "one"),
    ("linear_ar", "d_s", 1.7),
    ("linear_ar", "d_s", True),
    ("linear_ar", "d_s", -1),
    ("linear_ar", "d_w", "1"),
    ("linear_ar", "d_w", 0),
    ("linear_ar", "params.lag", "x"),
    ("linear_ar", "params.lag", -1),
    ("linear_ar", "params.ridge_eps", "tiny"),
    ("linear_ar", "params.ridge_eps", -1e-3),
    ("linear_ar", "params.noise_sd", [-1.0]),
    ("linear_ar", "params.intercept", [float("nan")]),
    ("linear_ar", "params.intercept", [True]),
    ("linear_ar", "params.coef", ["0.5", "0.5"]),
    ("kernel", "params.n_train", "many"),
    ("kernel", "params.n_train", 0),
    ("kernel", "params.bandwidth", "wide"),
    ("kernel", "params.beta", float("inf")),
    ("kernel", "params.train_s", [float("nan")] * 20),
]


def test_corrupt_imputer_file_names_field(tmp_path):
    rng = substream(57, "persist")
    data = make_linear_dataset(rng, 2, 10, coef=(0.4, 0.2), intercept=0.0)
    saved = {}
    for kind, imp in (("linear_ar", fit_linear_ar(data, lag=1)), ("kernel", fit_kernel(data))):
        save_imputer(imp, str(tmp_path / "imp.json"))
        saved[kind] = (tmp_path / "imp.json").read_text()
    path = tmp_path / "corrupt.json"
    for kind, field, value in CORRUPT:
        doc = json.loads(saved[kind])
        *sections, last = field.split(".")
        node = doc["params"] if sections else doc
        if value is MISSING:
            del node[last]
        else:
            node[last] = value
        path.write_text(json.dumps(doc))
        try:
            load_imputer(str(path))
        except PersistenceError as exc:
            assert exc.field == field, (kind, field, value)
        else:
            pytest.fail(f"a {kind} file with {field} = {value!r} loaded")


def test_unsupported_format_version_rejected(tmp_path):
    rng = substream(58, "persist")
    data = make_linear_dataset(rng, 10, 10, coef=(0.1, 0.1), intercept=0.0)
    imp = fit_linear_ar(data, lag=1)
    path = tmp_path / "imp.json"
    save_imputer(imp, str(path))
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(PersistenceError) as err:
        load_imputer(str(path))
    assert "format_version" in str(err.value)
    # a document that is not a mapping has no format_version entry
    path.write_text("5")
    with pytest.raises(PersistenceError, match="format_version"):
        load_imputer(str(path))


def test_expected_feature_matrix_shape():
    imp = null_imputer(1, 1)
    fmap = synthetic_interaction_map()
    mat = expected_feature_matrix(imp, fmap, np.array([[0.3]]))
    assert mat.shape == (2, 4)
    np.testing.assert_allclose(mat[1], [1.0, 0.3, 0.0, 0.3])


def test_expected_feature_matrix_makes_one_query_per_decision():
    s = np.array([[[0.0]], [[0.05]], [[1.0]]])
    w = np.array([[[1.0]], [[3.0]], [[10.0]]])
    imp = fit_kernel(HistoricalDataset(s=s, w=w), bandwidth=0.2)
    fmap = synthetic_interaction_map()
    far = np.array([[50.0]])
    mat = expected_feature_matrix(imp, fmap, far)
    assert imp.fallback_count == 1  # one query, not one per arm
    fallback = fmap.assemble_context(far[-1], imp.params["global_mean"])
    for a in range(2):
        assert mat[a].tobytes() == phi(fmap, fallback, a).tobytes()


@pytest.mark.parametrize("kind", ["linear_ar", "kernel"])
def test_feature_block_matches_one_step_matrices(kind):
    # the trial build's pulse block, Phi at [observed | the stream's means],
    # equals T one-step calls over the lag windows
    from pulsebandit.imputation import _conditional_means
    rng = np.random.default_rng(5)
    data = make_linear_dataset(rng, 30, 12, coef=[0.6, -0.3], intercept=0.2, noise_sd=0.1)
    imp = fit_linear_ar(data, lag=2) if kind == "linear_ar" else fit_kernel(data)
    fmap = synthetic_interaction_map()
    observed = rng.standard_normal((25, 1))
    w_block = _conditional_means(imp, observed)
    block = phi_batch(fmap, np.concatenate([observed, w_block], axis=1))
    for i in range(25):
        one = expected_feature_matrix(imp, fmap, observed[max(0, i - 2) : i + 1])
        assert block[i].tobytes() == one.tobytes()


@pytest.mark.parametrize(
    "steps, lag, d_s, d_w",
    # short streams fall inside the zero padding; (2, 4, ...) never fills it
    [(200, 2, 1, 1), (500, 3, 2, 3), (300, 0, 3, 2), (1000, 4, 1, 2), (2, 4, 1, 1), (3, 2, 2, 1)],
)
def test_linear_ar_stream_means_are_the_one_row_queries(steps, lag, d_s, d_w):
    # the stacked product equals each step's own query bit for bit
    from pulsebandit.imputation import _conditional_means

    rng = substream(44, "ar-stream", steps, lag)
    data = HistoricalDataset(s=rng.normal(size=(20, 30, d_s)), w=rng.normal(size=(20, 30, d_w)))
    imp = fit_linear_ar(data, lag)
    observed = rng.normal(0.0, 3.0, (steps, d_s))
    means = _conditional_means(imp, observed)
    assert means.shape == (steps, d_w)
    for i in range(steps):
        assert means[i].tobytes() == imp.conditional_mean(observed[max(0, i - lag) : i + 1]).tobytes()
    observed[steps // 2, 0] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        _conditional_means(imp, observed)

"""Pretrained imputation of late-observed context coordinates.

An imputer models the conditional law of W_t given the observed history
S_{1:t}.  Expected arm features are

    phi_hat(t, a) = E_model[ Phi(Y_t, a) | S_{1:t} ],

evaluated exactly as Phi at the model's conditional mean of W: both
feature maps are affine in W.

Two estimators can be fit from historical full-context trajectories:

* LinearAR: ordinary least squares of W_t on the stacked lags
  (S_t, ..., S_{t-m}) plus an intercept, pooled across trajectories over
  t in [m+1, T0].  The lag stack is zero-padded at prediction time when
  fewer than m+1 observations exist.  The stored coefficient stack has
  exactly (m+1) * d_S * d_W entries; the intercept is kept separately.
* Kernel: Nadaraya-Watson regression with the box kernel
  K(u) = 1{||u||_inf <= 1/2}; an empty window falls back to the global
  training mean.

Both store a residual standard deviation, the scale of their Gaussian
model of W around the conditional mean.  The Null imputer imputes W = 0.
Every imputer answers one query, `conditional_means`, over a (T, ..., d_S)
block of observed streams, with the mask of the kernel queries that fell
back; `conditional_mean` is its one-history form.  Every imputer can be
saved and loaded.  The "oracle" config kind builds no imputer: the
harness reads the true conditional law of W from each trial's rollout.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, InputError, ParameterError, PersistenceError
from .features import phi  # unused: features come from phi_batch; kept for tracers
from .features import phi_batch

__all__ = [
    "ImputerKind",
    "HistoricalDataset",
    "Imputer",
    "fit_linear_ar",
    "fit_kernel",
    "null_imputer",
    "expected_feature_matrix",
    "save_imputer",
    "load_imputer",
]


class ImputerKind:
    ORACLE = "oracle"
    LINEAR_AR = "linear_ar"
    KERNEL = "kernel"
    NULL = "null"

    ALL = (ORACLE, LINEAR_AR, KERNEL, NULL)
    # the kinds an Imputer is built for; an oracle run reads the true law
    MODELS = (LINEAR_AR, KERNEL, NULL)


@dataclass
class HistoricalDataset:
    """N pretraining trajectories of T0 fully observed (S, W) pairs.

    s has shape (N, T0, d_S) and w has shape (N, T0, d_W).  Trajectories
    are mutually independent draws from the same joint law as the bandit
    phase contexts.
    """

    s: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.s.ndim != 3 or self.w.ndim != 3:
            raise InputError("s and w must be (N, T0, dim) arrays")
        if self.s.shape[:2] != self.w.shape[:2]:
            raise InputError(
                f"s and w disagree on (N, T0): {self.s.shape[:2]} vs {self.w.shape[:2]}"
            )
        if self.s.shape[0] < 1 or self.s.shape[1] < 1:
            raise InputError("dataset must contain at least one trajectory and step")
        if not (np.all(np.isfinite(self.s)) and np.all(np.isfinite(self.w))):
            raise InputError("historical data contains non-finite entries")

    @property
    def n_traj(self):
        return self.s.shape[0]

    @property
    def t0(self):
        return self.s.shape[1]

    @property
    def d_s(self):
        return self.s.shape[2]

    @property
    def d_w(self):
        return self.w.shape[2]

    def flatten(self):
        """(N*T0, d_S) and (N*T0, d_W) views of all pairs."""
        return (
            self.s.reshape(-1, self.d_s),
            self.w.reshape(-1, self.d_w),
        )


@dataclass
class Imputer:
    """A fitted conditional model of W given observed history."""

    kind: str
    d_s: int
    d_w: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ImputerKind.MODELS:
            raise ParameterError(f"no imputer model of kind {self.kind!r}")

    # -- conditional law ---------------------------------------------------

    def conditional_means(self, observed):
        """Model conditional means of W over a (T, ..., d_S) observed block,
        each lane's step-t mean from that lane's own rows up to t.

        Returns the (T, ..., d_W) means and the (T, ...) mask of the kernel
        queries that fell back to the global training mean.
        """
        block = _as_block(observed, self.d_s)
        lanes, p = block.shape[:-1], self.params
        if self.kind == ImputerKind.NULL:
            return np.zeros(lanes + (self.d_w,)), np.zeros(lanes, dtype=bool)
        if self.kind == ImputerKind.KERNEL:
            means, fell_back = _box_kernel_means(p, block.reshape(-1, self.d_s))
            return means.reshape(lanes + (self.d_w,)), fell_back.reshape(lanes)
        # one product over the zero-padded lag rows: (..., 1, p) @ (p, d_W)
        # runs the one-row matmul per step and lane, so each mean is the
        # one-row query's bit for bit
        lags = np.zeros(lanes + ((p["lag"] + 1) * self.d_s,))
        for j in range(min(p["lag"] + 1, len(block))):
            lags[j:, ..., j * self.d_s : (j + 1) * self.d_s] = block[: len(block) - j]
        means = p["intercept"] + (lags[..., None, :] @ p["coef"])[..., 0, :]
        return means, np.zeros(lanes, dtype=bool)

    def conditional_mean(self, observed_history):
        """Model conditional mean of W_t given one observed history.

        `observed_history` is a (t, d_S) array (or a single (d_S,) row);
        the last row is S_t.  This is the last row of conditional_means
        over the rows the model reads: the last lag + 1 of a linear-AR
        model, the last one otherwise.
        """
        hist = _as_history(observed_history, self.d_s)
        memory = self.params["lag"] + 1 if self.kind == ImputerKind.LINEAR_AR else 1
        return self.conditional_means(hist[-memory:])[0][-1]

    def conditional_sd(self):
        """Per-coordinate scale of the model law."""
        if self.kind == ImputerKind.NULL:
            return np.zeros(self.d_w)
        return np.asarray(self.params["noise_sd"], dtype=float)


def _as_block(observed, d_s):
    block = np.asarray(observed, dtype=float)
    if block.ndim < 2 or block.shape[-1] != d_s or block.shape[0] < 1:
        raise InputError(
            f"observed block must have shape (T, ..., {d_s}) with T >= 1, got {block.shape}"
        )
    if not np.all(np.isfinite(block)):
        raise InputError("observed history contains non-finite entries")
    return block


def _as_history(observed_history, d_s):
    hist = np.asarray(observed_history, dtype=float)
    hist = hist[None, :] if hist.ndim == 1 else hist
    if hist.ndim != 2:
        raise InputError(f"observed history must be one (t, {d_s}) stream, got {hist.shape}")
    return _as_block(hist, d_s)


def _distinct_count(values):
    """How many distinct values the finite 1-d `values` holds."""
    ordered = np.sort(values)
    return 1 + np.count_nonzero(ordered[1:] != ordered[:-1])


def _box_kernel_means(params, queries):
    """A kernel model's means at each (n, d_S) query row, and the (n,) mask
    of the rows whose box held no training point and fell back to the
    global mean.  Each mean is a full scan's bit for bit, over the points
    in training order, but only a window is tested: a binary search on the
    coordinate with the most distinct values, padded by a few ulps so that
    it holds every point |s - q| <= h/2 accepts however q -+ h/2 round.
    """
    train_s, train_w, half = params["train_s"], params["train_w"], 0.5 * params["bandwidth"]
    col = max(range(train_s.shape[1]), key=lambda c: _distinct_count(train_s[:, c]))
    order = np.argsort(train_s[:, col])
    sorted_s = train_s[order]
    q = queries[:, col]
    pad = 4.0 * np.spacing(np.abs(q) + half)
    lo = np.searchsorted(sorted_s[:, col], q - half - pad, "left")
    hi = np.searchsorted(sorted_s[:, col], q + half + pad, "right")
    means = np.empty((len(queries), train_w.shape[1]))
    fell_back = np.zeros(len(queries), dtype=bool)
    for i, query in enumerate(queries):
        test = (np.abs(sorted_s[lo[i] : hi[i]] - query) <= half).all(axis=1)
        inside = np.sort(order[lo[i] : hi[i]][test])
        fell_back[i] = inside.size == 0
        means[i] = params["global_mean"] if fell_back[i] else train_w[inside].mean(axis=0)
    return means, fell_back


# -- fitting ----------------------------------------------------------------


def fit_linear_ar(data, lag, ridge_eps=1e-10):
    """Pooled OLS of W_t on (1, S_t, ..., S_{t-lag}) over t in [lag+1, T0].

    A tiny ridge `ridge_eps * I` is added to the normal equations; with
    ridge_eps = 0 a rank-deficient design raises FitError naming the rank.
    The residual standard deviation per W coordinate is stored as the
    model's scale.
    """
    if lag < 0:
        raise ParameterError(f"lag must be nonnegative, got {lag}")
    if ridge_eps < 0:
        raise ParameterError(f"ridge_eps must be nonnegative, got {ridge_eps}")
    if data.t0 <= lag:
        raise InputError(
            f"T0 = {data.t0} is too short for lag {lag}; need T0 >= lag + 1"
        )

    n, t0, d_s = data.n_traj, data.t0, data.d_s
    p = (lag + 1) * d_s
    # one row per (trajectory, t) with t in [lag, t0), trajectory-major
    design = np.empty((n * (t0 - lag), p + 1))
    design[:, 0] = 1.0
    for j in range(lag + 1):
        design[:, 1 + j * d_s : 1 + (j + 1) * d_s] = data.s[:, lag - j : t0 - j].reshape(-1, d_s)
    target = data.w[:, lag:].reshape(-1, data.d_w)

    gram = design.T @ design
    if ridge_eps == 0.0:
        rank = np.linalg.matrix_rank(gram)
        if rank < p + 1:
            raise FitError(
                f"design is rank deficient (rank {rank} < {p + 1}) and ridge_eps is 0"
            )
    coef_full = np.linalg.solve(
        gram + ridge_eps * np.eye(p + 1), design.T @ target
    )
    resid = target - design @ coef_full
    dof = max(design.shape[0] - (p + 1), 1)
    noise_sd = np.sqrt((resid * resid).sum(axis=0) / dof)

    return Imputer(
        kind=ImputerKind.LINEAR_AR,
        d_s=d_s,
        d_w=data.d_w,
        params={
            "lag": int(lag),
            "intercept": coef_full[0].copy(),
            "coef": coef_full[1:].copy(),
            "noise_sd": noise_sd,
            "ridge_eps": float(ridge_eps),
        },
    )


def fit_kernel(data, bandwidth=None, beta=1.0):
    """Nadaraya-Watson estimator over the flattened (S, W) pairs.

    The default bandwidth follows the smoothness-rate recipe
    h = n^{-1/(2 beta + d_S)} for n training pairs.  The box kernel gives
    piecewise-constant predictions; queries with no training point within
    the window fall back to the global mean.
    """
    if beta <= 0 or beta > 1:
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    s_flat, w_flat = data.flatten()
    n = s_flat.shape[0]
    if bandwidth is None:
        bandwidth = float(n ** (-1.0 / (2.0 * beta + data.d_s)))
    bandwidth = float(bandwidth)
    if not math.isfinite(bandwidth) or bandwidth <= 0:
        raise ParameterError(f"bandwidth must be positive, got {bandwidth!r}")

    params = {
        "bandwidth": bandwidth,
        "beta": float(beta),
        "train_s": s_flat.copy(),
        "train_w": w_flat.copy(),
        "global_mean": w_flat.mean(axis=0),
    }
    # in-sample residual scale on a capped, evenly spaced subset; each
    # window contains its own point, so the estimate is slightly optimistic
    # but stable
    idx = np.linspace(0, n - 1, min(n, 1000)).astype(int)
    resid = w_flat[idx] - _box_kernel_means(params, s_flat[idx])[0]
    params["noise_sd"] = np.sqrt((resid * resid).mean(axis=0))
    return Imputer(kind=ImputerKind.KERNEL, d_s=data.d_s, d_w=data.d_w, params=params)


def null_imputer(d_s, d_w):
    """Imputes W = 0 deterministically."""
    return Imputer(kind=ImputerKind.NULL, d_s=d_s, d_w=d_w)


# -- expected features -------------------------------------------------------


def _check_imputes_for(imputer, feature_map):
    if imputer.d_s != feature_map.d_s or imputer.d_w != feature_map.d_w:
        raise InputError(
            f"imputer layout ({imputer.d_s}, {imputer.d_w}) does not match "
            f"feature map layout ({feature_map.d_s}, {feature_map.d_w})"
        )


def expected_feature_matrix(imputer, feature_map, observed_history):
    """Stack of expected features over all arms; row a is arm a.

    Phi at [S_t | the model's conditional mean of W_t], from one
    conditional_mean query.
    """
    _check_imputes_for(imputer, feature_map)
    hist = _as_history(observed_history, imputer.d_s)
    context = np.concatenate([hist[-1], imputer.conditional_mean(hist)])
    return phi_batch(feature_map, context[None, :])[0]


# -- persistence --------------------------------------------------------------

FORMAT_VERSION = 1


def _flat(a):
    return [float(v) for v in np.asarray(a, dtype=float).ravel(order="C")]


def save_imputer(imputer, path):
    """Write a fitted imputer as a structured text document.

    Arrays are stored as flat row-major decimal lists; floats round-trip
    bit-exactly through the shortest-repr encoding.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": imputer.kind,
        "d_s": imputer.d_s,
        "d_w": imputer.d_w,
        "params": {},
    }
    p = imputer.params
    if imputer.kind == ImputerKind.LINEAR_AR:
        doc["params"] = {
            "lag": p["lag"],
            "intercept": _flat(p["intercept"]),
            "coef": _flat(p["coef"]),
            "noise_sd": _flat(p["noise_sd"]),
            "ridge_eps": p["ridge_eps"],
        }
    elif imputer.kind == ImputerKind.KERNEL:
        doc["params"] = {
            "bandwidth": p["bandwidth"],
            "beta": p["beta"],
            "n_train": int(p["train_s"].shape[0]),
            "train_s": _flat(p["train_s"]),
            "train_w": _flat(p["train_w"]),
            "global_mean": _flat(p["global_mean"]),
            "noise_sd": _flat(p["noise_sd"]),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _require(doc, key, where):
    if not isinstance(doc, dict) or key not in doc:
        raise PersistenceError("missing required entry", field=f"{where}{key}")
    return doc[key]


def _count(doc, key, where, minimum):
    """The integer entry `key`, at least `minimum`; a bool is not one."""
    value = _require(doc, key, where)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise PersistenceError(
            f"must be an integer >= {minimum}, got {value!r}", field=f"{where}{key}"
        )
    return value


def _number(raw, key, positive=False):
    """The finite number entry params.`key`, nonnegative or, with
    `positive`, positive; a bool is not one."""
    value = _require(raw, key, "params.")
    sign, name = ("positive" if positive else "nonnegative"), f"params.{key}"
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            pass
    if not (math.isfinite(number) and (number > 0 if positive else number >= 0)):
        raise PersistenceError(f"must be a finite {sign} number, got {value!r:.80}", field=name)
    return number


def _array(raw, key, shape, nonnegative=False):
    """The flat list entry params.`key` as a finite array of `shape`; a
    bool or a string is not a number."""
    name = f"params.{key}"
    values = _require(raw, key, "params.")
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise PersistenceError(f"not a flat list of numbers, got {values!r:.80}", field=name)
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:  # an int past the float range
        raise PersistenceError("contains non-finite entries", field=name) from None
    if arr.size != int(np.prod(shape)):
        raise PersistenceError(
            f"expected {int(np.prod(shape))} entries, got {arr.size}", field=name
        )
    if not np.isfinite(arr).all():
        raise PersistenceError("contains non-finite entries", field=name)
    if nonnegative and (arr < 0).any():
        raise PersistenceError("contains negative entries", field=name)
    return arr.reshape(shape, order="C")


def load_imputer(path):
    """Inverse of save_imputer; bit-exact round trip for all parameters.

    Every entry is checked here, at the boundary: a malformed one is a
    PersistenceError naming its field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError covers a bad encoding, malformed JSON and an integer
        # past Python's digit limit
        raise PersistenceError(f"cannot parse imputer file {path}: {exc}")
    version = _require(doc, "format_version", "")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported value {version!r} (expected {FORMAT_VERSION})",
            field="format_version",
        )
    kind = _require(doc, "kind", "")
    if kind not in ImputerKind.MODELS:
        raise PersistenceError(f"unsupported value {kind!r}", field="kind")
    # files of older versions carry the retired Monte-Carlo keys, whose
    # default, features at the conditional mean, is the only path left
    if doc.get("analytic", True) is not True:
        raise PersistenceError(
            f"Monte-Carlo features are retired; only true is supported, got {doc['analytic']!r}",
            field="analytic",
        )
    d_s = _count(doc, "d_s", "", 1)
    d_w = _count(doc, "d_w", "", 1)
    raw = _require(doc, "params", "")
    if not isinstance(raw, dict):
        raise PersistenceError(f"must be a mapping, got {raw!r}", field="params")

    if kind == ImputerKind.NULL:
        params = {}
    elif kind == ImputerKind.LINEAR_AR:
        lag = _count(raw, "lag", "params.", 0)
        params = {
            "lag": lag,
            "intercept": _array(raw, "intercept", (d_w,)),
            "coef": _array(raw, "coef", ((lag + 1) * d_s, d_w)),
            "noise_sd": _array(raw, "noise_sd", (d_w,), nonnegative=True),
            "ridge_eps": _number(raw, "ridge_eps"),
        }
    else:
        n_train = _count(raw, "n_train", "params.", 1)
        params = {
            "bandwidth": _number(raw, "bandwidth", positive=True),
            "beta": _number(raw, "beta", positive=True),
            "train_s": _array(raw, "train_s", (n_train, d_s)),
            "train_w": _array(raw, "train_w", (n_train, d_w)),
            "global_mean": _array(raw, "global_mean", (d_w,)),
            "noise_sd": _array(raw, "noise_sd", (d_w,), nonnegative=True),
        }
    return Imputer(kind=kind, d_s=d_s, d_w=d_w, params=params)

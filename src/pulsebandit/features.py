"""Arm-feature maps Phi(Y_t, a).

A FeatureMap turns a full context vector Y (observed part S plus the
late-observed part W) and an arm index into a feature vector.  Maps are
pure and deterministic; all state lives in the frozen map object.  Arm
indices follow one convention everywhere: for two-armed maps, index 0 is
the arm a = -1 and index 1 is the arm a = +1.

Phi reads the full context Y alone; its first d_S coordinates are S.
Both maps are affine in W for each fixed (S, a), so expected features
under an imputer can be evaluated at the imputed conditional mean.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .calibration import linear_quantile
from .errors import InputError, ParameterError

__all__ = [
    "MapKind",
    "FeatureMap",
    "synthetic_interaction_map",
    "lower_bound_two_arm_map",
    "phi",
    "phi_batch",
    "arm_feature_matrix",
    "calibrate_feat_norm_bound",
]


class MapKind(Enum):
    SYNTHETIC_INTERACTION = "synthetic_interaction"
    LOWER_BOUND_TWO_ARM = "lower_bound_two_arm"


@dataclass(frozen=True)
class FeatureMap:
    """Immutable description of an arm-feature map.

    d_s and d_w give the layout of the full context: Y = (S, W) with S the
    observed prefix and W the late-observed suffix.
    """

    kind: MapKind
    output_dim: int
    arm_count: int
    d_s: int
    d_w: int
    params: dict = field(default_factory=dict)


def synthetic_interaction_map():
    """Phi(Y, a) = (1, S, W, S*a) for scalar S, W and arms a in {-1, +1}."""
    return FeatureMap(
        kind=MapKind.SYNTHETIC_INTERACTION,
        output_dim=4,
        arm_count=2,
        d_s=1,
        d_w=1,
    )


def lower_bound_two_arm_map(d_lin, d_non):
    """Two-armed map over Y = (Q, O, W).

    The first arm (index 0) keeps Y itself; the second arm (index 1) maps
    to (-Q, 0, 0): the linear block is negated and the nonparametric block
    and W coordinate are zeroed.
    """
    if d_lin < 1 or d_non < 1:
        raise ParameterError("d_lin and d_non must be positive")
    return FeatureMap(
        kind=MapKind.LOWER_BOUND_TWO_ARM,
        output_dim=d_lin + d_non + 1,
        arm_count=2,
        d_s=d_lin + d_non,
        d_w=1,
        params={"d_lin": int(d_lin), "d_non": int(d_non)},
    )


def phi_batch(feature_map, full_contexts):
    """Features of every arm at every step: a (T, arm_count, output_dim)
    block whose [t, a] row is Phi(Y_t, a).

    `full_contexts` is (T, d_S + d_W).  The block is validated once:
    contexts must have the map's layout and be finite.  Pure; identical
    inputs give identical outputs bit for bit.
    """
    y = np.asarray(full_contexts, dtype=float)
    expected = feature_map.d_s + feature_map.d_w
    if y.ndim != 2 or y.shape[1] != expected:
        raise InputError(
            f"full contexts must have shape (T, {expected}), got {y.shape}"
        )
    if not np.isfinite(y).all():
        raise InputError("full context contains non-finite entries")

    kind = feature_map.kind
    n = y.shape[0]
    if kind is MapKind.SYNTHETIC_INTERACTION:
        # (1, S, W, S * a) with a = -1 for arm 0 and a = +1 for arm 1
        s = y[:, 0]
        out = np.empty((n, 2, 4))
        out[:, :, 0] = 1.0
        out[:, :, 1:3] = y[:, None, :]
        out[:, 0, 3] = -s
        out[:, 1, 3] = s
        return out
    if kind is MapKind.LOWER_BOUND_TWO_ARM:
        d_lin = feature_map.params["d_lin"]
        out = np.zeros((n, 2, feature_map.output_dim))
        out[:, 0] = y
        out[:, 1, :d_lin] = -y[:, :d_lin]
        return out
    raise ParameterError(f"unknown feature map kind {kind!r}")


def phi(feature_map, full_context, arm):
    """Feature vector Phi(Y, a): row `arm` of the one-step phi_batch."""
    if not isinstance(arm, (int, np.integer)) or isinstance(arm, bool):
        raise InputError(f"arm must be an integer index, got {arm!r}")
    if not 0 <= arm < feature_map.arm_count:
        raise InputError(f"arm index {arm} out of range for {feature_map.arm_count} arms")
    return arm_feature_matrix(feature_map, full_context)[int(arm)]


def arm_feature_matrix(feature_map, full_context):
    """Stack of phi over all arm indices; row a is arm a's features."""
    y = np.atleast_1d(np.asarray(full_context, dtype=float))
    expected = feature_map.d_s + feature_map.d_w
    if y.shape != (expected,):
        raise InputError(f"full context must have shape ({expected},), got {y.shape}")
    return phi_batch(feature_map, y[None, :])[0]


def calibrate_feat_norm_bound(feature_map, full_contexts, quantile=0.999):
    """Empirical feature-norm bound B from a dry run.

    `full_contexts` (n, d_S + d_W) holds one row per dry-run step drawn
    from the target context law.  Returns (bound, diagnostics) where the
    bound is the `quantile` quantile of max-over-arms Euclidean feature
    norms and diagnostics reports the sup-norm violation rate of the
    nominal ||Phi||_inf <= 1 assumption (monitored, never enforced).
    """
    if not 0.0 < quantile <= 1.0:
        raise ParameterError("quantile must lie in (0, 1]")
    ys = np.asarray(full_contexts, dtype=float)
    width = feature_map.d_s + feature_map.d_w
    n_steps = len(ys) if ys.ndim == 2 and ys.shape[1] == width else 0
    if n_steps < 1:
        raise InputError(
            f"dry-run contexts have shape {ys.shape}, expected (n, {width}) with n >= 1"
        )
    mats = phi_batch(feature_map, ys)
    norms = np.sqrt((mats * mats).sum(axis=2).max(axis=1))
    inf_violations = int((np.abs(mats).max(axis=(1, 2)) > 1.0).sum())
    bound = float(linear_quantile(norms, quantile))
    diagnostics = {
        "n_steps": int(n_steps),
        "quantile": float(quantile),
        "max_feature_norm": float(norms.max()),
        "sup_norm_violation_rate": inf_violations / n_steps,
    }
    return bound, diagnostics

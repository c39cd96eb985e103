import numpy as np
import pytest

from pulsebandit import (
    InputError,
    ParameterError,
    arm_feature_matrix,
    calibrate_feat_norm_bound,
    lower_bound_two_arm_map,
    phi,
    phi_batch,
    synthetic_interaction_map,
)


def test_interaction_map_positive_arm():
    fmap = synthetic_interaction_map()
    y = np.array([0.2, 0.5])
    out = phi(fmap, y, 1)
    np.testing.assert_allclose(out, [1.0, 0.2, 0.5, 0.2], atol=0)


def test_interaction_map_negative_arm():
    fmap = synthetic_interaction_map()
    y = np.array([0.2, 0.5])
    out = phi(fmap, y, 0)
    np.testing.assert_allclose(out, [1.0, 0.2, 0.5, -0.2], atol=0)


def test_arm_feature_matrix_stacks_both_arms():
    fmap = synthetic_interaction_map()
    y = np.array([-0.3, 0.1])
    mat = arm_feature_matrix(fmap, y)
    assert mat.shape == (2, 4)
    np.testing.assert_allclose(mat[0], [1.0, -0.3, 0.1, 0.3])
    np.testing.assert_allclose(mat[1], [1.0, -0.3, 0.1, -0.3])


def test_lower_bound_map_branch_structure():
    fmap = lower_bound_two_arm_map(2, 3)
    q = np.array([1.0, 0.0])
    o = np.array([0.2, -0.1, 0.4])
    w = np.array([0.35])
    y = np.concatenate([q, o, w])
    arm0 = phi(fmap, y, 0)
    arm1 = phi(fmap, y, 1)
    np.testing.assert_allclose(arm0, y)
    np.testing.assert_allclose(arm1, np.concatenate([-q, np.zeros(4)]))
    assert fmap.output_dim == 6 and fmap.arm_count == 2


def test_invalid_arm_rejected():
    fmap = synthetic_interaction_map()
    y = np.array([0.0, 0.0])
    with pytest.raises(InputError):
        phi(fmap, y, 2)
    with pytest.raises(InputError):
        phi(fmap, y, -1)


def test_bad_context_shape_rejected():
    fmap = synthetic_interaction_map()
    with pytest.raises(InputError):
        phi(fmap, np.array([1.0, 2.0, 3.0]), 0)
    with pytest.raises(InputError):
        phi(fmap, np.array([np.nan, 0.0]), 0)


def test_calibrate_feat_norm_bound_constant_stream():
    fmap = synthetic_interaction_map()
    ys = np.tile([0.2, 0.5], (50, 1))
    bound, diag = calibrate_feat_norm_bound(fmap, ys, quantile=1.0)
    expected = float(np.linalg.norm([1.0, 0.2, 0.5, 0.2]))
    assert bound == pytest.approx(expected, rel=1e-12)
    assert diag["max_feature_norm"] == pytest.approx(expected, rel=1e-12)
    assert diag["sup_norm_violation_rate"] == 0.0


def test_calibrate_feat_norm_bound_validates():
    fmap = synthetic_interaction_map()
    ys = np.zeros((5, 2))
    with pytest.raises(ParameterError):
        calibrate_feat_norm_bound(fmap, ys, quantile=1.5)
    # wrong context width, no rows, one row without the step axis
    for full in (np.zeros((5, 3)), ys[:0], np.zeros(2)):
        with pytest.raises(InputError):
            calibrate_feat_norm_bound(fmap, full)


@pytest.mark.parametrize(
    "fmap",
    [synthetic_interaction_map(), lower_bound_two_arm_map(2, 3)],
    ids=lambda m: m.kind.value,
)
def test_phi_batch_rows_are_phi(fmap):
    rng = np.random.default_rng(5)
    n, d_y = 25, fmap.d_s + fmap.d_w
    ys = rng.uniform(-2.0, 2.0, (n, d_y))
    block = phi_batch(fmap, ys)
    assert block.shape == (n, fmap.arm_count, fmap.output_dim)
    for t in range(n):
        mat = arm_feature_matrix(fmap, ys[t])
        assert mat.tobytes() == block[t].tobytes()
        for a in range(fmap.arm_count):
            assert phi(fmap, ys[t], a).tobytes() == block[t, a].tobytes()


def test_phi_batch_interaction_formula():
    ys = np.array([[0.2, 0.5], [-0.3, 0.1]])
    block = phi_batch(synthetic_interaction_map(), ys)
    np.testing.assert_array_equal(
        block,
        [[[1.0, 0.2, 0.5, -0.2], [1.0, 0.2, 0.5, 0.2]],
         [[1.0, -0.3, 0.1, 0.3], [1.0, -0.3, 0.1, -0.3]]],
    )


def test_phi_batch_validates_the_block():
    fmap = synthetic_interaction_map()
    with pytest.raises(InputError):
        phi_batch(fmap, np.zeros((3, 3)))
    with pytest.raises(InputError):
        phi_batch(fmap, np.zeros(2))
    bad = np.zeros((4, 2))
    bad[2, 1] = np.inf
    with pytest.raises(InputError):
        phi_batch(fmap, bad)


def test_calibrate_feat_norm_bound_matches_per_step_reference():
    fmap = lower_bound_two_arm_map(2, 2)
    rng = np.random.default_rng(9)
    ys = rng.uniform(-1.2, 1.2, (500, 5))
    bound, diag = calibrate_feat_norm_bound(fmap, ys, quantile=0.9)
    norms, violations = [], 0
    for y in ys:
        mat = np.stack([phi(fmap, y, a) for a in range(2)])
        norms.append(np.sqrt((mat * mat).sum(axis=1).max()))
        violations += int(np.abs(mat).max() > 1.0)
    assert bound == float(np.quantile(np.array(norms), 0.9))
    assert diag == {
        "n_steps": 500,
        "quantile": 0.9,
        "max_feature_norm": float(max(norms)),
        "sup_norm_violation_rate": violations / 500,
    }

"""Property-based tests (hypothesis) of core invariants: autograd
linearity, rotation round-trips, kinematic rigidity, LBS consistency,
DSP energy relationships, angle-bin config validity and metric
bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import DspConfig, RadarConfig
from repro.dsp.radar_cube import CubeBuilder
from repro.errors import ConfigError
from repro.eval.metrics import auc, mpjpe, pck, pck_curve
from repro.hand.joints import FINGER_CHAINS, FINGERS
from repro.hand.kinematics import (
    HandPose,
    forward_kinematics,
    rotation_about_axis,
)
from repro.hand.shape import HandShape
from repro.mano.rotations import (
    axis_angle_to_matrix,
    axis_angle_to_quaternion,
    matrix_to_axis_angle,
    quaternion_to_matrix,
)
from repro.nn.tensor import Tensor


finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False,
    allow_infinity=False, width=32,
)


def small_arrays(shape):
    return arrays(np.float64, shape, elements=finite_floats)


# ----------------------------------------------------------------------
# Autograd invariants
# ----------------------------------------------------------------------
@given(small_arrays((3, 4)), small_arrays((3, 4)))
@settings(max_examples=30, deadline=None)
def test_addition_gradient_is_linear(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    (ta + tb).sum().backward()
    assert np.allclose(ta.grad, 1.0)
    assert np.allclose(tb.grad, 1.0)


@given(small_arrays((4,)), st.floats(min_value=-3, max_value=3,
                                     allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_scalar_mul_gradient(a, c):
    t = Tensor(a, requires_grad=True)
    (t * c).sum().backward()
    assert np.allclose(t.grad, c, atol=1e-6)


@given(small_arrays((2, 5)))
@settings(max_examples=30, deadline=None)
def test_sum_then_mean_consistency(a):
    t = Tensor(a)
    assert float(t.mean().data) == pytest.approx(
        float(t.sum().data) / a.size, rel=1e-5, abs=1e-6
    )


@given(small_arrays((3, 3)))
@settings(max_examples=30, deadline=None)
def test_relu_output_non_negative_grad_masked(a):
    t = Tensor(a, requires_grad=True)
    out = t.relu()
    assert np.all(out.data >= 0)
    out.sum().backward()
    assert np.all((t.grad == 0) | (t.grad == 1))
    assert np.all(t.grad[a > 0] == 1)


# ----------------------------------------------------------------------
# Rotation invariants
# ----------------------------------------------------------------------
unit_axis = arrays(
    np.float64, (3,),
    elements=st.floats(min_value=-1, max_value=1, allow_nan=False),
).filter(lambda v: np.linalg.norm(v) > 1e-3)


@given(unit_axis, st.floats(min_value=0.01, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_rotation_preserves_norm(axis, angle):
    rot = rotation_about_axis(axis, angle)
    vec = np.array([1.0, 2.0, 3.0])
    assert np.linalg.norm(rot @ vec) == pytest.approx(
        np.linalg.norm(vec), rel=1e-9
    )


@given(unit_axis, st.floats(min_value=0.01, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_axis_angle_round_trip_property(axis, angle):
    aa = axis / np.linalg.norm(axis) * angle
    recovered = matrix_to_axis_angle(axis_angle_to_matrix(aa))
    assert np.allclose(recovered, aa, atol=1e-7)


@given(unit_axis, st.floats(min_value=0.01, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_quaternion_matrix_equivalence_property(axis, angle):
    aa = axis / np.linalg.norm(axis) * angle
    assert np.allclose(
        quaternion_to_matrix(axis_angle_to_quaternion(aa)),
        axis_angle_to_matrix(aa),
        atol=1e-9,
    )


# ----------------------------------------------------------------------
# Kinematics invariants
# ----------------------------------------------------------------------
angle_rows = arrays(
    np.float64, (5, 4),
    elements=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
)


@given(angle_rows)
@settings(max_examples=25, deadline=None)
def test_fk_bone_lengths_invariant(angles):
    angles = angles.copy()
    angles[:, 1] -= 0.45  # centre abduction in its valid range
    shape = HandShape()
    joints = forward_kinematics(shape, HandPose(finger_angles=angles))
    for finger in FINGERS:
        chain = FINGER_CHAINS[finger]
        for seg in range(3):
            measured = np.linalg.norm(
                joints[chain[seg + 1]] - joints[chain[seg]]
            )
            assert measured == pytest.approx(
                shape.phalange_lengths[finger][seg], rel=1e-8
            )


@given(angle_rows)
@settings(max_examples=25, deadline=None)
def test_fk_translation_equivariance(angles):
    angles = angles.copy()
    angles[:, 1] -= 0.45
    shape = HandShape()
    offset = np.array([0.1, -0.2, 0.3])
    base = forward_kinematics(
        shape, HandPose(finger_angles=angles, wrist_position=np.zeros(3))
    )
    moved = forward_kinematics(
        shape, HandPose(finger_angles=angles, wrist_position=offset)
    )
    assert np.allclose(moved, base + offset, atol=1e-12)


@given(angle_rows)
@settings(max_examples=15, deadline=None)
def test_mano_fk_matches_hand_fk_property(angles):
    from repro.mano.model import ManoHandModel, pose_to_theta

    angles = angles.copy()
    angles[:, 1] -= 0.45
    pose = HandPose(
        finger_angles=angles, wrist_position=np.zeros(3),
        orientation=np.eye(3),
    )
    model = _cached_model()
    theta = pose_to_theta(pose)
    assert np.allclose(
        model(theta=theta).joints,
        forward_kinematics(HandShape(), pose),
        atol=1e-8,
    )


_MODEL_CACHE = []


def _cached_model():
    if not _MODEL_CACHE:
        from repro.mano.model import ManoHandModel

        _MODEL_CACHE.append(ManoHandModel())
    return _MODEL_CACHE[0]


# ----------------------------------------------------------------------
# Metric invariants
# ----------------------------------------------------------------------
joints_arrays = arrays(
    np.float64, (4, 21, 3),
    elements=st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)


@given(joints_arrays, joints_arrays)
@settings(max_examples=25, deadline=None)
def test_mpjpe_symmetry_and_nonnegativity(a, b):
    assert mpjpe(a, b) >= 0
    assert mpjpe(a, b) == pytest.approx(mpjpe(b, a))
    assert mpjpe(a, a) == 0


@given(joints_arrays, joints_arrays)
@settings(max_examples=25, deadline=None)
def test_pck_bounds_and_monotonicity(a, b):
    p20 = pck(a, b, threshold_mm=20.0)
    p40 = pck(a, b, threshold_mm=40.0)
    assert 0.0 <= p20 <= p40 <= 100.0


@given(joints_arrays, joints_arrays)
@settings(max_examples=20, deadline=None)
def test_auc_bounded(a, b):
    thresholds, curve = pck_curve(a, b)
    assert 0.0 <= auc(thresholds, curve) <= 1.0


@given(joints_arrays)
@settings(max_examples=20, deadline=None)
def test_mpjpe_triangle_with_offset(a):
    offset = np.array([0.02, 0.0, 0.0])
    assert mpjpe(a + offset, a) == pytest.approx(20.0, rel=1e-6)


# ----------------------------------------------------------------------
# Angle-bin configs
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_angle_bin_config_rejected_or_builds_matching_cube(
    azimuth_bins, elevation_bins, zoom_factor
):
    """A DspConfig either refuses its angle bins at construction or
    builds cubes whose angle axes match the values' angle axis."""
    try:
        dsp = DspConfig(
            range_bins=4, doppler_bins=2, azimuth_bins=azimuth_bins,
            elevation_bins=elevation_bins, zoom_factor=zoom_factor,
            segment_frames=1,
        )
    except ConfigError:
        return
    radar = RadarConfig(samples_per_chirp=8, chirp_loops=2)
    builder = CubeBuilder(radar, dsp)
    raw = np.random.default_rng(0).normal(
        size=(
            radar.num_virtual_antennas, radar.chirp_loops,
            radar.samples_per_chirp,
        )
    )
    cube = builder.build(raw)
    assert cube.values.shape[-1] == azimuth_bins + elevation_bins
    assert len(cube.azimuth_axis_rad) == azimuth_bins
    assert len(cube.elevation_axis_rad) == elevation_bins

import numpy as np
import pytest

from wlflow.core import (
    EPS_CONF,
    FlowMap,
    Hyperparams,
    KeypointFrame,
    PointSet,
    SubjectMask,
    Vec2,
    validate_pairing,
)
from wlflow.errors import DimensionMismatch, ValidationError


def test_validate_pairing_matching_shapes():
    validate_pairing(FlowMap.zeros(64, 64), SubjectMask(np.zeros((64, 64), dtype=np.int32)))


def test_validate_pairing_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_pairing(FlowMap.zeros(64, 64), SubjectMask(np.zeros((64, 32), dtype=np.int32)))


def test_validate_pairing_minimal():
    validate_pairing(FlowMap.zeros(1, 1), SubjectMask(np.zeros((1, 1), dtype=np.int32)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vec2_rejects_non_finite(bad):
    with pytest.raises(ValidationError):
        Vec2(bad, 0.0)


def test_flowmap_rejects_non_finite():
    arr = np.zeros((4, 4, 2))
    arr[1, 2, 0] = np.nan
    with pytest.raises(ValidationError):
        FlowMap(arr)


def test_flowmap_rejects_bad_shape():
    with pytest.raises(ValidationError):
        FlowMap(np.zeros((4, 4, 3)))
    with pytest.raises(ValidationError):
        FlowMap(np.zeros((0, 4, 2)))


def test_flowmap_immutable():
    f = FlowMap.zeros(4, 4)
    with pytest.raises(ValueError):
        f.vectors[0, 0, 0] = 1.0


def test_pointset_rejects_nan():
    with pytest.raises(ValidationError):
        PointSet(np.array([[0.0, np.nan]]))


def test_pointset_may_be_empty():
    assert len(PointSet(np.zeros((0, 2)))) == 0


def test_keypoint_confidence_range():
    for ok in (0.0, 0.5, 1.0):
        arr = np.ones((17, 3))
        arr[0, 2] = ok
        KeypointFrame((arr,))
    for bad in (1.5, -0.1):
        arr = np.ones((17, 3))
        arr[0, 2] = bad
        with pytest.raises(ValidationError):
            KeypointFrame((arr,))


def test_keypoint_frame_needs_17_joints():
    with pytest.raises(ValidationError):
        KeypointFrame((np.ones((16, 3)),))
    KeypointFrame((np.ones((17, 3)),))


def test_keypoint_frame_rejects_bad_confidence():
    arr = np.ones((17, 3))
    arr[4, 2] = 1.5
    with pytest.raises(ValidationError):
        KeypointFrame((arr,))


def test_mask_labels_must_be_contiguous():
    bad = np.zeros((4, 4), dtype=np.int32)
    bad[0, 0] = 2
    with pytest.raises(ValidationError):
        SubjectMask(bad)
    good = np.zeros((4, 4), dtype=np.int32)
    good[0, 0] = 1
    good[1, 1] = 2
    assert SubjectMask(good).subject_ids == (1, 2)


def test_hyperparams_defaults():
    hp = Hyperparams()
    assert hp.alpha == 0.1
    assert hp.beta == 0.01
    assert hp.theta_a == 15.0
    assert hp.theta_il == 0.8
    assert hp.theta_ih == 1.2
    assert hp.scales == (8, 16, 32)


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.0},
    {"beta": -1.0},
    {"theta_il": 1.2, "theta_ih": 0.8},
    {"theta_a": 95.0},
    {"scales": ()},
    {"scales": (1,)},
    {"scales": (2.5, 8.9)},
    {"alpha": float("inf")},
    {"beta": float("nan")},
    {"theta_ih": float("inf")},
    {"edge_theta_i": float("inf")},
    {"edge_theta_a": float("inf")},
    {"edge_theta_a": 360.0},
    {"alpha": True},
    {"scales": (8, float("inf"))},
    {"scales": (float("nan"),)},
])
def test_hyperparams_invariants(kwargs):
    with pytest.raises(ValidationError):
        Hyperparams(**kwargs)


def test_hyperparams_integral_float_scales_become_ints():
    scales = Hyperparams(scales=(8.0, 16)).scales
    assert scales == (8, 16)
    assert all(type(s) is int for s in scales)


def test_confidence_floor_constant():
    assert EPS_CONF == 1e-3

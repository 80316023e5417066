import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wlflow.core import (
    EPS_CONF,
    FlowMap,
    Hyperparams,
    KeypointFrame,
    PointSet,
    SubjectMask,
    Vec2,
    _UNCONVERGED,
    _sigmoid,
    armijo_descent,
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


@pytest.mark.parametrize("trial_value, converged", [(np.inf, False), (2.0, True)])
def test_armijo_exhausted_line_search_converges_only_on_a_finite_value(trial_value, converged):
    """Every trial is rejected, so all 40 halvings run and the start point is
    returned. A search exhausted on finite values stops on "line_search" and
    has converged; one whose trial values overflow to inf stops on
    "overflow" and has not."""
    x = np.array([1.0, -2.0])
    trials = []

    def fn(cand):
        trials.append(cand)
        return trial_value, lambda: pytest.fail("a rejected trial built its gradient")

    def on_step(*_):
        pytest.fail("a step was accepted")

    out, stop = armijo_descent(fn, x, 1.0, np.array([0.5, 0.5]), 1.0, 3, 1e-9, on_step)
    assert out is x and stop == ("line_search" if converged else "overflow")
    assert (stop not in _UNCONVERGED) is converged
    assert len(trials) == 40


@given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(width=64)))
def test_sigmoid_equals_the_two_sided_clip_bitwise(x):
    """`_sigmoid` is bitwise the formula with `np.clip` for any float, NaN
    and ±inf included, and raises no floating-point error on a number: the
    clip keeps e^-x from overflowing and from underflowing."""
    x = np.concatenate([x, [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 36.0, 38.0, 500.0, 501.0, 800.0]])
    clipped = 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))
    assert _sigmoid(x).view(np.uint64).tolist() == clipped.view(np.uint64).tolist()
    with np.errstate(all="raise"):
        _sigmoid(x[~np.isnan(x)])


def test_armijo_writes_neither_its_start_point_nor_its_gradient():
    """Read-only start point and gradient keep their bytes, and each accepted
    iterate keeps its own: no trial or move is built in an array that the
    caller or an earlier step holds."""
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    grad = 2.0 * x
    for arr in (x, grad):
        arr.setflags(write=False)
    start = x.tobytes(), grad.tobytes()
    seen = []

    def fn(cand):
        return float((cand ** 2).sum()), lambda: 2.0 * cand

    def on_step(it, value, step):
        seen.append((it, it.tobytes()))

    out, stop = armijo_descent(fn, x, float((x ** 2).sum()), grad, 0.125, 3, 1e-12, on_step)
    assert (x.tobytes(), grad.tobytes()) == start
    assert len(seen) == 3 and stop == "budget" and out is seen[-1][0]
    assert all(it.tobytes() == saved for it, saved in seen)
    assert seen[0][1] == (x - 0.125 * grad).tobytes()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlflow import kinematics as kin
from wlflow.core import FlowMap, Hyperparams, SubjectMask
from wlflow.skeleton import SkeletonMap, SkeletonOffsets, match_all


def test_angular_parallel_is_normal():
    assert kin.angular_term((1.0, 0.0), (1.0, 0.0), 15.0) == 0.0


def test_angular_orthogonal_is_abnormal():
    assert kin.angular_term((0.0, 1.0), (1.0, 0.0), 15.0) == 1.0


def test_angular_inside_cone():
    u = (np.cos(np.deg2rad(10)), np.sin(np.deg2rad(10)))
    assert kin.angular_term(u, (1.0, 0.0), 15.0) == 0.0


def test_angular_static_rules():
    assert kin.angular_term((0.0, 0.0), (0.0, 0.0), 15.0) == 0.0
    assert kin.angular_term((1.0, 0.0), (0.0, 0.0), 15.0) == 1.0
    assert kin.angular_term((0.0, 0.0), (1.0, 0.0), 15.0) == 1.0


def test_angular_boundary_angle_not_abnormal():
    u = (np.cos(np.deg2rad(15)), np.sin(np.deg2rad(15)))
    assert kin.angular_term(u, (1.0, 0.0), 15.0) == 0.0


def test_angular_scale_covariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.normal(size=2)
        k = rng.normal(size=2)
        s = rng.uniform(0.1, 10.0)
        assert kin.angular_term(u, k, 15.0) == kin.angular_term(s * u, s * k, 15.0)


def test_intensity_band_values():
    assert kin.intensity_term((1.0, 0.0), (1.0, 0.0), 0.8, 1.2) == 0.0
    assert kin.intensity_term((2.0, 0.0), (1.0, 0.0), 0.8, 1.2) == pytest.approx(0.96)
    assert kin.intensity_term((0.5, 0.0), (1.0, 0.0), 0.8, 1.2) == pytest.approx(0.21)


def test_intensity_band_characterization():
    k = (2.0, 0.0)
    for mag in np.linspace(0.0, 4.0, 81):
        v = kin.intensity_term((mag, 0.0), k, 0.8, 1.2)
        inside = 0.8 * 2.0 <= mag <= 1.2 * 2.0
        assert (v == 0.0) == inside


def test_intensity_quadratic_scaling():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.normal(size=2) * 3
        k = rng.normal(size=2) * 2
        s = rng.uniform(0.2, 5.0)
        expect = s * s * kin.intensity_term(u, k, 0.8, 1.2)
        assert kin.intensity_term(s * u, s * k, 0.8, 1.2) == pytest.approx(expect, rel=1e-9)


_MAGNITUDES = st.one_of(st.sampled_from([0.0, 5e-7, 1e-6, 1.0]), st.floats(0.0, 50.0))


@st.composite
def _term_pair(draw):
    """(u, k, theta_a): k of any direction and magnitude, static ones included,
    and u either any vector or rotated from k by exactly theta_a degrees."""
    theta_a = draw(st.floats(0.5, 89.5))
    phi = draw(st.floats(-np.pi, np.pi))
    rk = draw(_MAGNITUDES)
    k = (rk * np.cos(phi), rk * np.sin(phi))
    if draw(st.booleans()):
        angle = phi + draw(st.sampled_from([-1.0, 1.0])) * np.deg2rad(theta_a)
        ru = draw(_MAGNITUDES)
        return (ru * np.cos(angle), ru * np.sin(angle)), k, theta_a
    return draw(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))), k, theta_a


@settings(max_examples=50)
@given(pair=_term_pair(), theta_il=st.floats(0.1, 1.5), width=st.floats(1e-3, 1.0))
def test_scalar_terms_equal_the_constraints_per_pixel_terms(pair, theta_il, width):
    """On a one-pixel raster, `skeleton_constraint`'s angular violation fraction
    and intensity penalty are that pixel's terms, which the scalar functions
    must give exactly, on the edge of the angular cone too."""
    u, k, theta_a = pair
    hp = Hyperparams(theta_a=theta_a, theta_il=theta_il, theta_ih=theta_il + width)
    report = kin.skeleton_constraint(FlowMap(np.array([[u]])), SkeletonOffsets(np.array([k])),
                                     np.zeros((1, 1), dtype=np.int64), SubjectMask(np.ones((1, 1), dtype=np.int32)),
                                     hp)
    assert report.angular_violation_fraction == kin.angular_term(u, k, theta_a)
    assert report.intensity_mean_penalty == kin.intensity_term(u, k, hp.theta_il, hp.theta_ih)


def _instance(rng, n=16):
    """Random matched instance on an n x n raster with a 16-point skeleton."""
    labels = np.zeros((n, n), dtype=np.int32)
    labels[2:-2, 2:-2] = 1
    mask = SubjectMask(labels)
    pts = np.column_stack([
        rng.uniform(2, n - 2, 16),
        rng.uniform(2, n - 2, 16),
        rng.uniform(0.2, 1.0, 16),
    ])
    sk = SkeletonMap(pts)
    matches = match_all({1: sk}, mask)
    offsets = SkeletonOffsets(rng.normal(0, 2, (16, 2)))
    flow = FlowMap(rng.normal(0, 2, (n, n, 2)))
    return flow, offsets, matches, mask


def test_constraint_zero_when_flow_equals_offsets(small_truth, small_priors, hp):
    flow = FlowMap(np.zeros((small_truth.mask_t.height, small_truth.mask_t.width, 2)))
    arr = flow.vectors.copy()
    m = small_priors.matches
    sel = m >= 0
    arr[sel] = small_priors.offsets.vectors[m[sel]]
    report = kin.skeleton_constraint(FlowMap(arr), small_priors.offsets, m,
                                     small_truth.mask_t, hp)
    assert report.f_value == 0.0
    assert report.angular_violation_fraction == 0.0


def test_constraint_orthogonal_counts_matched_pixels(hp):
    rng = np.random.default_rng(3)
    flow, offsets, matches, mask = _instance(rng)
    k = offsets.vectors[matches[matches >= 0]]
    perp = np.stack([-k[:, 1], k[:, 0]], axis=1)
    arr = np.zeros(flow.vectors.shape)
    arr[matches >= 0] = perp  # orthogonal, same magnitude: no intensity penalty
    report = kin.skeleton_constraint(FlowMap(arr), offsets, matches, mask, hp)
    n_matched = int((matches >= 0).sum())
    assert report.f_value == pytest.approx(n_matched / (16 * 16))
    assert report.angular_violation_fraction == 1.0
    assert report.intensity_mean_penalty == 0.0


def test_constraint_matches_pixel_loop_oracle(hp):
    rng = np.random.default_rng(7)
    flow, offsets, matches, mask = _instance(rng)
    report = kin.skeleton_constraint(flow, offsets, matches, mask, hp)
    total = 0.0
    for y in range(16):
        for x in range(16):
            mi = matches[y, x]
            if mi < 0:
                continue
            u = flow.vectors[y, x]
            k = offsets.vectors[mi]
            total += kin.angular_term(u, k, hp.theta_a)
            total += hp.beta * kin.intensity_term(u, k, hp.theta_il, hp.theta_ih)
    assert report.f_value == pytest.approx(total / (16 * 16), rel=1e-12)


def test_smooth_deep_satisfaction_is_tiny(hp):
    sk = SkeletonMap(np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 1.0]]))
    labels = np.zeros((4, 4), dtype=np.int32)
    labels[1, 1] = 1
    mask = SubjectMask(labels)
    matches = match_all({1: sk}, mask)
    offsets = SkeletonOffsets(np.array([[2.0, 0.0], [2.0, 0.0]]))
    arr = np.zeros((4, 4, 2))
    arr[1, 1] = (2.0, 0.0)  # same direction/magnitude as the offset
    value, _ = kin.smooth_skeleton_constraint(FlowMap(arr), offsets, matches, mask, hp, tau=0.01)
    assert value < 1e-4


def test_smooth_gradient_matches_finite_differences(small_truth, small_priors, hp):
    rng = np.random.default_rng(0)
    base = small_truth.gt_world.vectors + rng.normal(0, 0.7, small_truth.gt_world.vectors.shape)
    tau = 0.1
    _, gradient = kin.smooth_skeleton_constraint(
        FlowMap(base), small_priors.offsets, small_priors.matches, small_truth.mask_t, hp, tau
    )
    grad = gradient()
    h = 1e-4
    n = small_truth.mask_t.height
    worst = 0.0
    for y, x, c in zip(rng.integers(0, n, 200), rng.integers(0, n, 200), rng.integers(0, 2, 200)):
        plus = base.copy()
        plus[y, x, c] += h
        minus = base.copy()
        minus[y, x, c] -= h
        vp, _ = kin.smooth_skeleton_constraint(
            FlowMap(plus), small_priors.offsets, small_priors.matches, small_truth.mask_t, hp, tau
        )
        vm, _ = kin.smooth_skeleton_constraint(
            FlowMap(minus), small_priors.offsets, small_priors.matches, small_truth.mask_t, hp, tau
        )
        fd = (vp - vm) / (2 * h)
        denom = max(abs(fd), abs(grad[y, x, c]), 1e-8)
        worst = max(worst, abs(fd - grad[y, x, c]) / denom)
    assert worst < 1e-4


def test_smooth_approaches_hard_constraint(small_truth, small_priors, hp):
    rng = np.random.default_rng(1)
    arr = small_truth.gt_world.vectors + rng.normal(0, 1.0, small_truth.gt_world.vectors.shape)
    flow = FlowMap(arr)
    hard = kin.skeleton_constraint(
        flow, small_priors.offsets, small_priors.matches, small_truth.mask_t, hp
    ).f_value
    gaps = []
    for tau in (1e-1, 1e-2, 1e-3):
        sv, _ = kin.smooth_skeleton_constraint(
            flow, small_priors.offsets, small_priors.matches, small_truth.mask_t, hp, tau
        )
        gaps.append(abs(sv - hard))
    assert gaps[2] < 1e-3
    assert gaps[2] <= gaps[1] <= gaps[0]


def test_smooth_surrogate_monotone_in_angle(hp):
    sk = SkeletonMap(np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 1.0]]))
    labels = np.zeros((3, 3), dtype=np.int32)
    labels[1, 1] = 1
    mask = SubjectMask(labels)
    matches = match_all({1: sk}, mask)
    offsets = SkeletonOffsets(np.array([[3.0, 0.0], [3.0, 0.0]]))
    values = []
    for ang in np.linspace(0, np.pi, 37):
        arr = np.zeros((3, 3, 2))
        arr[1, 1] = (3.0 * np.cos(ang), 3.0 * np.sin(ang))
        v, _ = kin.smooth_skeleton_constraint(FlowMap(arr), offsets, matches, mask, hp, tau=0.05)
        values.append(v)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlflow import skeleton as skel
from wlflow.core import EPS_CONF, KeypointFrame, SubjectMask
from wlflow.errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    InsufficientHeadPoints,
    NoCandidates,
    ValidationError,
)

from conftest import loop_match_all


def _joints(rng=None, conf=1.0):
    rng = rng or np.random.default_rng(0)
    j = np.full((17, 3), conf)
    j[:, 0] = rng.uniform(20, 80, 17)
    j[:, 1] = rng.uniform(20, 80, 17)
    return j


# Bone 0 of the default layout runs from the left shoulder (5) to the left elbow (7).
_BONE0 = slice(0, skel.DEFAULT_SAMPLES_PER_BONE)


def test_single_bone_interpolation():
    j = np.zeros((17, 3))
    j[:, 2] = 1.0
    j[7, 0] = 14.0
    sk = skel.interpolate_skeleton(j)
    assert np.allclose(sk.xy[_BONE0, 0], np.arange(15.0))
    assert np.all(sk.xy[_BONE0, 1] == 0.0)
    assert np.all(sk.confidences[_BONE0] == 1.0)


def test_default_topology_yields_210_points():
    sk = skel.interpolate_skeleton(_joints())
    assert len(sk.points) == 210
    assert len(skel.DEFAULT_BONES) * skel.DEFAULT_SAMPLES_PER_BONE == 14 * 15


def test_endpoint_samples_bit_exact():
    j = _joints(np.random.default_rng(5))
    sk = skel.interpolate_skeleton(j)
    m = skel.DEFAULT_SAMPLES_PER_BONE
    for bi, (a, b) in enumerate(skel.DEFAULT_BONES):
        assert np.array_equal(sk.xy[bi * m], j[a, :2])
        assert np.array_equal(sk.xy[bi * m + m - 1], j[b, :2])


def test_interpolated_confidence_is_min_of_endpoints():
    j = np.zeros((17, 3))
    j[5, 2] = 0.9
    j[7, 2] = 0.4
    sk = skel.interpolate_skeleton(j)
    assert np.all(sk.confidences[_BONE0] == 0.4)


def test_confidence_clamped_at_floor():
    j = np.zeros((17, 3))
    sk = skel.interpolate_skeleton(j)
    assert np.all(sk.confidences[_BONE0] == EPS_CONF)


def test_offsets_identical_maps_are_zero():
    sk = skel.interpolate_skeleton(_joints())
    off = skel.skeleton_offsets(sk, sk)
    assert np.all(off.vectors == 0.0)


def test_offsets_translation():
    j = _joints()
    j2 = j.copy()
    j2[:, 0] += 3.0
    j2[:, 1] -= 2.0
    off = skel.skeleton_offsets(skel.interpolate_skeleton(j), skel.interpolate_skeleton(j2))
    assert np.allclose(off.vectors, (3.0, -2.0))


def test_offsets_single_moved_point():
    j = np.zeros((17, 3))
    j2 = j.copy()
    j2[5, :2] = (1.0, 1.0)
    off = skel.skeleton_offsets(skel.interpolate_skeleton(j), skel.interpolate_skeleton(j2))
    assert np.allclose(off.vectors[0], (1.0, 1.0))


def test_point_count_mismatch_raises():
    a = skel.interpolate_skeleton(_joints())
    b = skel.SkeletonMap(a.points[:200])
    transform = skel.AlignTransform("translation", np.eye(3))
    for call in (lambda: skel.skeleton_offsets(a, b), lambda: skel.fit_alignment(a, b, "translation"),
                 lambda: skel.aligned_offsets(a, b, transform)):
        with pytest.raises(DimensionMismatch):
            call()


def test_skeleton_map_needs_points():
    with pytest.raises(ValidationError):
        skel.SkeletonMap(np.zeros((0, 3)))


def _mask_all_subject(n=100):
    return SubjectMask(np.ones((n, n), dtype=np.int32))


def test_match_coincident_point_wins():
    pts = np.array([[10.0, 10.0, 0.9], [20.0, 10.0, 1.0], [30.0, 10.0, 1.0], [40.0, 10.0, 1.0]])
    sk = skel.SkeletonMap(pts)
    assert skel.match_body_point((10.0, 10.0), sk, _mask_all_subject()) == 0


def test_match_prefers_higher_confidence_at_equal_distance():
    pts = np.array([[8.0, 10.0, 1.0], [12.0, 10.0, 0.5]])
    sk = skel.SkeletonMap(pts)
    # scores: 2/1.0 = 2 vs 2/0.5 = 4
    assert skel.match_body_point((10.0, 10.0), sk, _mask_all_subject()) == 0


def test_match_requires_subject_pixel():
    sk = skel.interpolate_skeleton(_joints())
    empty = SubjectMask(np.zeros((100, 100), dtype=np.int32))
    with pytest.raises(ValidationError):
        skel.match_body_point((10.0, 10.0), sk, empty)


@pytest.mark.parametrize("point", [(np.nan, 10.0), (10.0, np.inf), (-np.inf, 10.0), ("10", 10.0), (True, 10.0),
                                   (10.0,), (10.0, 10.0, 1.0), 10.0])
def test_match_refuses_a_point_that_is_not_two_finite_numbers(point):
    """A point is a pair of finite numbers, as a `Vec2` takes them; NaN
    and infinities are refused as such, not rounded to a pixel, and so is
    a point of another length."""
    sk = skel.interpolate_skeleton(_joints())
    with pytest.raises(ValidationError, match="finite numbers"):
        skel.match_body_point(point, sk, _mask_all_subject())


def test_match_against_bruteforce_oracle():
    rng = np.random.default_rng(42)
    pts = np.column_stack([
        rng.uniform(0, 99, 50),
        rng.uniform(0, 99, 50),
        rng.uniform(0.05, 1.0, 50),
    ])
    sk = skel.SkeletonMap(pts)
    mask = _mask_all_subject()
    for _ in range(100):
        p = rng.uniform(0, 99, 2)
        got = skel.match_body_point(p, sk, mask)
        scores = [
            np.hypot(p[0] - q[0], p[1] - q[1]) / max(q[2], EPS_CONF) for q in pts
        ]
        assert got == int(np.argmin(scores))
        assert scores[got] <= min(scores)


def test_match_all_background_is_none():
    mask = SubjectMask(np.zeros((8, 8), dtype=np.int32))
    table = skel.match_all({}, mask)
    assert np.all(table == -1)


def test_match_all_single_pixel_subject():
    labels = np.zeros((8, 8), dtype=np.int32)
    labels[3, 4] = 1
    mask = SubjectMask(labels)
    sk = skel.SkeletonMap(np.array([[4.0, 3.0, 1.0], [7.0, 7.0, 1.0]]))
    table = skel.match_all({1: sk}, mask)
    assert table[3, 4] == 0
    assert (table >= 0).sum() == 1


def test_match_all_equals_per_pixel_oracle(small_truth):
    mask = small_truth.mask_t
    frame = small_truth.keypoints[0]
    assignment = skel.assign_subjects(frame, mask)
    skeletons = {
        lab: skel.interpolate_skeleton(frame.persons[pi]) for lab, pi in assignment.items()
    }
    table = skel.match_all(skeletons, mask)
    ys, xs = np.nonzero(mask.labels)
    for y, x in zip(ys[::7], xs[::7]):  # stride keeps the oracle loop fast
        lab = int(mask.labels[y, x])
        expect = skel.match_body_point((float(x), float(y)), skeletons[lab], mask)
        assert table[y, x] == expect
    assert np.all(table[mask.labels == 0] == -1)


def test_match_all_missing_skeleton_raises():
    labels = np.zeros((8, 8), dtype=np.int32)
    labels[1, 1] = 1
    with pytest.raises(NoCandidates):
        skel.match_all({}, SubjectMask(labels))


def test_match_all_across_chunks_equals_oracle_everywhere():
    """Subjects larger than one scoring chunk match the oracle on every pixel."""
    rng = np.random.default_rng(4)
    labels = np.zeros((64, 96), dtype=np.int32)
    labels[8:52, 4:44] = 1
    labels[10:56, 50:90] = 2
    mask = SubjectMask(labels)
    assert min((labels == 1).sum(), (labels == 2).sum()) > skel._MATCH_CHUNK
    skeletons = {}
    for lab in (1, 2):
        joints = _joints(rng)
        joints[:, 2] = rng.uniform(0.0, 1.0, 17)
        joints[7, 2] = 0.0  # an elbow the detector missed
        skeletons[lab] = skel.interpolate_skeleton(joints)
    table = skel.match_all(skeletons, mask)
    n1 = skeletons[1].points.shape[0]
    for y, x in zip(*np.nonzero(labels)):
        lab = int(labels[y, x])
        expect = skel.match_body_point((float(x), float(y)), skeletons[lab], mask)
        assert table[y, x] == expect + (n1 if lab == 2 else 0)
    assert np.all(table[labels == 0] == -1)


@st.composite
def match_cases(draw):
    """A label plane up to 20x20 with one or two subjects, and a skeleton per
    subject from 17 joints. Joint confidences lie in [0, 1], 0 and values
    below EPS_CONF included, so bones differ in confidence and the floor is
    reached. Some joints sit on one of their subject's pixels, so skeleton
    points lie exactly on pixels; some coincide with another joint, so
    skeleton points repeat and scores tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    k = draw(st.integers(1, min(2, h * w)))
    labels = rng.integers(0, k + 1, (h, w)).astype(np.int32)
    spots = rng.choice(h * w, k, replace=False)
    labels.flat[spots] = np.arange(1, k + 1)
    mask = SubjectMask(labels)
    conf_choices = np.array([0.0, 0.5 * EPS_CONF, EPS_CONF, 0.25, 1.0])
    skeletons = {}
    for lab in range(1, k + 1):
        joints = np.empty((17, 3))
        joints[:, 0] = rng.uniform(-3.0, w + 2.0, 17)
        joints[:, 1] = rng.uniform(-3.0, h + 2.0, 17)
        joints[:, 2] = np.where(rng.random(17) < 0.5, rng.choice(conf_choices, 17), rng.random(17))
        ys, xs = np.nonzero(labels == lab)
        on_pixel = rng.random(17) < draw(st.sampled_from([0.0, 0.3, 1.0]))
        pick = rng.integers(0, ys.size, 17)
        joints[on_pixel, 0], joints[on_pixel, 1] = xs[pick[on_pixel]], ys[pick[on_pixel]]
        twins = rng.random(17) < draw(st.sampled_from([0.0, 0.3]))
        joints[twins, :2] = joints[rng.integers(0, 17, 17)[twins], :2]
        skeletons[lab] = skel.interpolate_skeleton(joints)
    return skeletons, mask


@settings(max_examples=150)
@given(match_cases())
def test_match_all_equals_the_per_pixel_loop_bitwise(case):
    """The squared-score prefilter never changes a match: the table is the
    per-pixel `match_body_point` loop's, ties to the lowest index included."""
    skeletons, mask = case
    assert skel.match_all(skeletons, mask).tobytes() == loop_match_all(skeletons, mask).tobytes()


@pytest.mark.parametrize("conf", [1.0, 0.5 * EPS_CONF])
def test_match_all_equals_the_loop_where_squares_overflow(conf):
    """Far points, whose squared distance or squared score overflows, leave
    the table the loop's, without a floating-point warning."""
    labels = np.zeros((6, 7), dtype=np.int32)
    labels[1:5, 1:6] = 1
    pts = np.array([[2.0, 2.0, 1.0], [4.0, 3.0, conf], [4.0, 3.0, conf], [1e150, 0.0, conf],
                    [1e200, -1e250, 1.0], [3.0, 2.0, 0.5], [2.5, 4.0, 1.0], [1e154, 0.0, conf]])
    skeletons = {1: skel.SkeletonMap(pts)}
    mask = SubjectMask(labels)
    assert skel.match_all(skeletons, mask).tobytes() == loop_match_all(skeletons, mask).tobytes()


@pytest.mark.parametrize("conf", [-1.0, 5.0, 1e154, 1e200])
def test_skeleton_map_refuses_confidences_outside_0_1(conf):
    pts = np.array([[2.0, 2.0, 1.0], [4.0, 3.0, conf]])
    with pytest.raises(ValidationError, match=r"skeleton map has a confidence outside \[0, 1\]"):
        skel.SkeletonMap(pts)


@pytest.mark.parametrize("joints", [np.zeros(3), np.ones((4, 3))], ids=["flat", "four-joints"])
def test_skeleton_map_refuses_joints_that_are_not_a_person(joints):
    """Head alignment indexes the 17 joints, so a map carries 17 or none."""
    pts = skel.interpolate_skeleton(_joints()).points
    with pytest.raises(ValidationError, match=r"joint array must have shape \(17, 3\)"):
        skel.SkeletonMap(pts, joints=joints)


def test_skeleton_map_joints_take_the_keypoint_rule():
    pts = skel.interpolate_skeleton(_joints()).points
    for value, message in ((np.nan, "non-finite"), (1.5, "confidence outside"), (-0.5, "confidence outside")):
        joints = _joints()
        joints[3, 2] = value
        with pytest.raises(ValidationError, match=message):
            skel.SkeletonMap(pts, joints=joints)
        with pytest.raises(ValidationError, match=message):
            skel.interpolate_skeleton(joints)


# Confidences in [0, 1]: 0, below the EPS_CONF floor, subnormal, 1, and any other.
_UNIT_CONFIDENCES = st.one_of(st.sampled_from([0.0, 0.5 * EPS_CONF, 5e-324, 2.2250738585072014e-308, 1.0]),
                              st.floats(0.0, 1.0))
_OUTSIDE_CONFIDENCES = st.one_of(st.floats(max_value=-5e-324, allow_infinity=False),
                                 st.floats(min_value=1.0, exclude_min=True, allow_infinity=False))


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.lists(_UNIT_CONFIDENCES, min_size=1, max_size=12), st.data())
def test_skeleton_maps_take_every_confidence_in_0_1_and_no_other(seed, confs, data):
    """A finite (n, 3) map is accepted when its confidences lie in [0, 1],
    and then `match_all` is the per-pixel loop's; one confidence outside
    [0, 1] is refused."""
    rng = np.random.default_rng(seed)
    labels = (rng.random((6, 7)) < 0.6).astype(np.int32)
    labels[2, 3] = 1
    pts = np.column_stack([rng.uniform(-2.0, 8.0, len(confs)), rng.uniform(-2.0, 7.0, len(confs)), confs])
    skeletons = {1: skel.SkeletonMap(pts)}
    mask = SubjectMask(labels)
    assert skel.match_all(skeletons, mask).tobytes() == loop_match_all(skeletons, mask).tobytes()
    bad = pts.copy()
    bad[data.draw(st.integers(0, len(confs) - 1)), 2] = data.draw(_OUTSIDE_CONFIDENCES)
    with pytest.raises(ValidationError, match=r"skeleton map has a confidence outside \[0, 1\]"):
        skel.SkeletonMap(bad)


def test_fit_translation_exact():
    j = _joints()
    j2 = j.copy()
    j2[:, 0] += 5.0
    t = skel.fit_alignment(
        skel.interpolate_skeleton(j), skel.interpolate_skeleton(j2), "translation"
    )
    assert t.kind == "translation"
    assert np.allclose(t.matrix[:2, 2], (-5.0, 0.0))
    moved = t.apply(np.array([[12.0, 7.0]]))
    assert np.allclose(moved, [[7.0, 7.0]])


def test_translation_alignment_cancels_rigid_motion():
    j = _joints()
    j2 = j.copy()
    j2[:, :2] += (5.0, -3.0)
    k_t = skel.interpolate_skeleton(j)
    k_t1 = skel.interpolate_skeleton(j2)
    t = skel.fit_alignment(k_t, k_t1, "translation")
    off = skel.aligned_offsets(k_t, k_t1, t)
    assert np.hypot(off.vectors[:, 0], off.vectors[:, 1]).max() < 1e-9


def test_head_anchor_recovers_rotation():
    j = _joints()
    head = j[:5, :2].mean(axis=0)
    ang = np.deg2rad(30)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    j2 = j.copy()
    j2[:, :2] = (j[:, :2] - head) @ rot.T + head
    t = skel.fit_alignment(
        skel.interpolate_skeleton(j), skel.interpolate_skeleton(j2), "head"
    )
    assert t.kind == "similarity"
    m = t.matrix[:2, :2]
    recovered = np.arctan2(m[1, 0], m[0, 0])
    assert abs(recovered - (-ang)) < 1e-6
    scale = np.sqrt(abs(np.linalg.det(m)))
    assert abs(scale - 1.0) < 1e-9


def test_head_anchor_needs_head_points():
    j = _joints()
    j[:5, 2] = 0.0  # kill all head confidences
    k_t = skel.interpolate_skeleton(j)
    k_t1 = skel.interpolate_skeleton(j)
    with pytest.raises(InsufficientHeadPoints):
        skel.fit_alignment(k_t, k_t1, "head")


def _warp(points, h):
    hp = np.hstack([points, np.ones((points.shape[0], 1))]) @ h.T
    return hp[:, :2] / hp[:, 2:3]


def test_homography_recovery_max_reprojection():
    k_t = skel.interpolate_skeleton(_joints(np.random.default_rng(2)))
    h_true = np.array([
        [1.02, 0.03, 2.0],
        [-0.01, 0.98, -1.5],
        [1e-4, -2e-4, 1.0],
    ])
    warped = np.ones((210, 3))
    warped[:, :2] = _warp(k_t.xy, np.linalg.inv(h_true))
    k_t1 = skel.SkeletonMap(warped)
    t = skel.fit_alignment(k_t, k_t1, "homography")
    assert t.kind == "homography"
    err = np.hypot(*(t.apply(k_t1.xy) - k_t.xy).T)
    assert err.max() < 1e-3


@pytest.mark.parametrize("n", [4, 5])
def test_homography_from_few_points_maps_them(n):
    """Four point pairs give an 8 x 9 DLT system, whose null vector only the
    full SVD holds; five give 10 x 9, where the reduced one does."""
    h_true = np.array([
        [1.1, 0.2, 3.0],
        [-0.15, 0.9, -2.0],
        [2e-3, -1e-3, 1.0],
    ])
    pts = np.ones((n, 3))
    pts[:, :2] = [[10.0, 12.0], [70.0, 15.0], [65.0, 80.0], [12.0, 75.0], [40.0, 30.0]][:n]
    warped = pts.copy()
    warped[:, :2] = _warp(pts[:, :2], np.linalg.inv(h_true))
    k_t, k_t1 = skel.SkeletonMap(pts), skel.SkeletonMap(warped)
    t = skel.fit_alignment(k_t, k_t1, "homography")
    assert t.kind == "homography"
    assert np.hypot(*(t.apply(k_t1.xy) - k_t.xy).T).max() < 1e-9
    np.testing.assert_allclose(t.matrix, h_true, rtol=1e-9, atol=1e-12)


def test_homography_scale_invariance():
    rng = np.random.default_rng(9)
    k_t = skel.interpolate_skeleton(_joints(rng))
    h_true = np.array([
        [0.99, -0.02, 1.0],
        [0.015, 1.03, 0.5],
        [2e-4, 1e-4, 1.0],
    ])
    warped = np.ones((210, 3))
    warped[:, :2] = _warp(k_t.xy, np.linalg.inv(h_true))
    k_t1 = skel.SkeletonMap(warped)

    def reproj_error(k_a, k_b):
        t = skel.fit_alignment(k_a, k_b, "homography")
        return np.hypot(*(t.apply(k_b.xy) - k_a.xy).T).max()

    e1 = reproj_error(k_t, k_t1)
    scaled_t = skel.SkeletonMap(k_t.points * (10.0, 10.0, 1.0))
    scaled_t1 = skel.SkeletonMap(k_t1.points * (10.0, 10.0, 1.0))
    e10 = reproj_error(scaled_t, scaled_t1)
    assert abs(e10 - 10.0 * e1) <= 1e-9 * max(e10, 10.0 * e1, 1e-12) + 1e-12


def test_homography_coincident_points_degenerate():
    pts = np.ones((5, 3))
    pts[:, :2] = (10.0, 10.0)
    sk = skel.SkeletonMap(pts)
    with pytest.raises(DegenerateConfiguration):
        skel.fit_alignment(sk, sk, "homography")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "method", ["homography", "head"], ids=["full_body_homography", "head_anchor_similarity"]
)
def test_fit_that_overflows_is_degenerate_without_warning(method):
    j = _joints()
    far = j.copy()
    far[:, :2] *= 1e300
    with pytest.raises(DegenerateConfiguration):
        skel.fit_alignment(skel.interpolate_skeleton(j), skel.interpolate_skeleton(far), method)


@pytest.mark.filterwarnings("error")
def test_offsets_beyond_the_float_range_refused_without_warning():
    j = _joints()
    near, far = j.copy(), j.copy()
    near[:, 0] = -1.5e308
    far[:, 0] = 1.5e308  # the difference overflows
    with pytest.raises(ValidationError):
        skel.skeleton_offsets(skel.interpolate_skeleton(near), skel.interpolate_skeleton(far))
    with pytest.raises(ValidationError):
        skel.SkeletonOffsets(np.array([[1e150, 0.0]]))


def test_homography_collinear_falls_back_to_similarity():
    pts = np.ones((50, 3))
    pts[:, 0] = np.linspace(10, 60, 50)
    pts[:, 1] = 20.0
    sk_a = skel.SkeletonMap(pts)
    moved = pts.copy()
    moved[:, 0] += 4.0
    sk_b = skel.SkeletonMap(moved)
    t = skel.fit_alignment(sk_a, sk_b, "homography")
    assert t.kind == "similarity"


def test_aligned_offsets_identity_matches_plain_offsets():
    j = _joints()
    j2 = _joints(np.random.default_rng(11))
    k_t = skel.interpolate_skeleton(j)
    k_t1 = skel.interpolate_skeleton(j2)
    ident = skel.AlignTransform("translation", np.eye(3))
    off_a = skel.aligned_offsets(k_t, k_t1, ident)
    off_b = skel.skeleton_offsets(k_t, k_t1)
    assert np.allclose(off_a.vectors, off_b.vectors)


def test_aligned_offsets_rotating_figure_closed_form():
    """Global rotation about the head plus an extra forearm swing: alignment
    removes the global part, leaving exactly the local limb motion."""
    j = _joints(np.random.default_rng(21))
    elbow = j[7, :2]
    swing = np.deg2rad(25)
    rs = np.array([[np.cos(swing), -np.sin(swing)], [np.sin(swing), np.cos(swing)]])
    j_local = j.copy()
    j_local[9, :2] = (j[9, :2] - elbow) @ rs.T + elbow  # wrist rotates about elbow

    head = j[:5, :2].mean(axis=0)
    ang = np.deg2rad(40)
    rg = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    j_global = j_local.copy()
    j_global[:, :2] = (j_local[:, :2] - head) @ rg.T + head

    k_t = skel.interpolate_skeleton(j)
    k_t1 = skel.interpolate_skeleton(j_global)
    t = skel.fit_alignment(k_t, k_t1, "head")
    got = skel.aligned_offsets(k_t, k_t1, t)
    expected = skel.skeleton_offsets(k_t, skel.interpolate_skeleton(j_local))
    assert np.abs(got.vectors - expected.vectors).max() < 1e-9


def test_assign_subjects_by_hip_midpoint():
    labels = np.zeros((40, 40), dtype=np.int32)
    labels[5:15, 5:15] = 1
    labels[25:35, 25:35] = 2
    mask = SubjectMask(labels)
    p1 = np.ones((17, 3))
    p1[:, :2] = 30.0  # hips at 30 -> subject 2
    p2 = np.ones((17, 3))
    p2[:, :2] = 10.0  # hips at 10 -> subject 1
    frame = KeypointFrame((p1, p2))
    assignment = skel.assign_subjects(frame, mask)
    assert assignment == {2: 0, 1: 1}


def _square_mask():
    labels = np.zeros((40, 40), dtype=np.int32)
    labels[5:15, 5:15] = 1
    return SubjectMask(labels)


def _person_at(x, y):
    person = np.ones((17, 3))
    person[:, :2] = (x, y)
    return person


_THREE_POINTS = skel.SkeletonMap(np.array([[0.0, 0.0, 1.0], [4.0, 0.0, 1.0], [0.0, 4.0, 1.0]]))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: skel.SkeletonMap(np.array([[0.0, np.nan, 1.0]])), ValidationError,
                 "skeleton points contain non-finite values", id="map-nan"),
    pytest.param(lambda: skel.SkeletonOffsets(np.zeros((3, 3))), ValidationError,
                 "offsets need (n, 2) vectors, got shape (3, 3)", id="offsets-three-columns"),
    pytest.param(lambda: skel.SkeletonOffsets(np.zeros(2)), ValidationError,
                 "offsets need (n, 2) vectors, got shape (2,)", id="offsets-1d"),
    pytest.param(lambda: skel.AlignTransform("affine", np.eye(3)), ValidationError,
                 "unknown transform kind 'affine'", id="transform-kind"),
    pytest.param(lambda: skel.AlignTransform("translation", np.eye(2)), ValidationError,
                 "transform matrix must be 3x3, got (2, 2)", id="transform-2x2"),
    pytest.param(lambda: skel.AlignTransform("similarity", [[1, 0, 0], [0, 1, 0], [0.1, 0, 1]]), ValidationError,
                 "similarity transform must have affine bottom row", id="transform-projective-similarity"),
    pytest.param(lambda: skel.AlignTransform("homography", [[1, 1, 0], [1, 1, 1], [1, 0, 1]]), ValidationError,
                 "upper-left 2x2 block is singular", id="transform-singular-block"),
    pytest.param(lambda: skel.assign_subjects(KeypointFrame((_person_at(10, 10),) * 2), _square_mask()),
                 ValidationError, "persons 0 and 1 both map to subject 1", id="assign-two-persons"),
    pytest.param(lambda: skel.fit_alignment(_THREE_POINTS, _THREE_POINTS, "homography"), DegenerateConfiguration,
                 "homography needs at least 4 point pairs", id="homography-three-points"),
    pytest.param(lambda: skel.fit_alignment(_THREE_POINTS, _THREE_POINTS, "head"), InsufficientHeadPoints,
                 "skeleton maps carry no source joints", id="head-without-joints"),
    pytest.param(lambda: skel.fit_alignment(_THREE_POINTS, _THREE_POINTS, "affine"), ValidationError,
                 "unknown alignment method 'affine'", id="unknown-method"),
])
def test_skeleton_types_and_fits_refuse_with_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message

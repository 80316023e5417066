import struct

import numpy as np
import pytest

from wlflow import boundary as bnd
from wlflow import io, kinematics as kin, skeleton as skel
from wlflow.core import FlowMap, SubjectMask, Vec2
from wlflow.errors import FormatError


def test_align_transform_inverse_roundtrip():
    m = np.array([[1.1, 0.02, 3.0], [-0.03, 0.95, -2.0], [1e-4, 2e-4, 1.0]])
    t = skel.AlignTransform("homography", m)
    pts = np.random.default_rng(0).uniform(10, 50, (20, 2))
    back = t.inverse().apply(t.apply(pts))
    assert np.abs(back - pts).max() < 1e-9


def test_pgm_header_comments_accepted(tmp_path):
    path = tmp_path / "c.pgm"
    labels = np.zeros((2, 3), dtype=np.uint8)
    labels[1, 2] = 1
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + labels.tobytes())
    mask = io.read_mask(path)
    assert mask.labels[1, 2] == 1


def test_flo_implausible_dimensions_rejected(tmp_path):
    path = tmp_path / "huge.flo"
    path.write_bytes(struct.pack("<fii", 202021.25, 2 ** 24, 2 ** 24))
    with pytest.raises(FormatError):
        io.read_flo(path)


def test_concat_points_matches_match_all_indexing():
    sk1 = skel.SkeletonMap(np.array([[2.0, 2.0, 1.0], [3.0, 2.0, 1.0], [4.0, 2.0, 1.0]]))
    sk2 = skel.SkeletonMap(np.array([[8.0, 8.0, 1.0], [9.0, 8.0, 1.0], [9.0, 9.0, 1.0]]))
    labels = np.zeros((12, 12), dtype=np.int32)
    labels[2, 2] = 1
    labels[8, 8] = 2
    mask = SubjectMask(labels)
    table = skel.match_all({1: sk1, 2: sk2}, mask)
    pts = skel.concat_points({1: sk1, 2: sk2})
    assert np.allclose(pts[table[2, 2], :2], (2.0, 2.0))
    assert np.allclose(pts[table[8, 8], :2], (8.0, 8.0))


def test_smooth_surrogate_stable_at_extreme_tau(small_truth, small_priors, hp):
    rng = np.random.default_rng(5)
    arr = small_truth.gt_world.vectors + rng.normal(0, 1.0, small_truth.gt_world.vectors.shape)
    flow = FlowMap(arr)
    hard = kin.skeleton_constraint(
        flow, small_priors.offsets, small_priors.matches, small_truth.mask_t, hp
    ).f_value
    with np.errstate(all="raise"):
        value, gradient = kin.smooth_skeleton_constraint(
            flow, small_priors.offsets, small_priors.matches, small_truth.mask_t, hp, 1e-6
        )
        grad = gradient()
    assert np.isfinite(grad).all()
    assert abs(value - hard) < 1e-6


def test_soft_boundary_stable_at_extreme_tau(small_truth, small_priors, hp):
    with np.errstate(over="raise", invalid="raise"):
        value, backward = bnd.soft_boundary_constraint(
            small_truth.gt_world, small_priors.boundary, hp, 1e-6
        )
        grad = backward()
    assert np.isfinite(value)
    assert np.isfinite(grad).all()


def test_mask_mean_respects_subject_partition():
    labels = np.zeros((6, 6), dtype=np.int32)
    labels[0:2, 0:2] = 1
    labels[4:6, 4:6] = 2
    arr = np.zeros((6, 6, 2))
    arr[0:2, 0:2] = (1.0, 0.0)
    arr[4:6, 4:6] = (0.0, -2.0)
    from wlflow import flows

    motions = flows.estimate_subject_motion(FlowMap(arr), SubjectMask(labels))
    assert motions == {1: Vec2(1.0, 0.0), 2: Vec2(0.0, -2.0)}

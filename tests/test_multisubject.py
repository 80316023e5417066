import numpy as np
import pytest

from wlflow import flows, skeleton as skel, synth


@pytest.fixture(scope="module")
def two_subject_truth():
    a = synth.SubjectSpec(root_t=(40.0, 64.0), root_t1=(44.0, 64.0))
    b = synth.SubjectSpec(
        root_t=(100.0, 64.0), root_t1=(100.0, 62.0),
        angles_t1={"upper_arm_l": synth.DEFAULT_ANGLES["upper_arm_l"] + 0.2},
    )
    return synth.generate_scene(synth.SceneSpec(width=160, height=128, subjects=(a, b)))


def test_two_subjects_rasterized_disjointly(two_subject_truth):
    mask = two_subject_truth.mask_t
    assert mask.subject_ids == (1, 2)
    assert (mask.labels == 1).sum() > 0
    assert (mask.labels == 2).sum() > 0


def test_matching_respects_subject_restriction(two_subject_truth):
    """Pixels of each subject only ever match their own skeleton's points."""
    truth = two_subject_truth
    frame = truth.keypoints[0]
    assignment = skel.assign_subjects(frame, truth.mask_t)
    skeletons = {
        lab: skel.interpolate_skeleton(frame.persons[pi]) for lab, pi in assignment.items()
    }
    table = skel.match_all(skeletons, truth.mask_t)
    n1 = skeletons[1].points.shape[0]
    sel1 = truth.mask_t.labels == 1
    sel2 = truth.mask_t.labels == 2
    assert table[sel1].min() >= 0 and table[sel1].max() < n1
    assert table[sel2].min() >= n1


def test_gt_objective_small_with_two_subjects(two_subject_truth, hp):
    truth = two_subject_truth
    priors = flows.Priors.build(
        truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t
    )
    ob = flows.joint_objective(truth.gt_world, priors, hp)
    assert ob.f <= 0.02
    assert ob.g <= 1.5


def test_per_subject_motion_estimates(two_subject_truth):
    truth = two_subject_truth
    motions = flows.estimate_subject_motion(truth.gt_world, truth.mask_t, method="mask_mean")
    # subject 1 translates rigidly by (4, 0)
    assert abs(motions[1].vector.dx - 4.0) < 1e-9
    assert abs(motions[1].vector.dy) < 1e-9
    # subject 2 drifts upward with some arm swing mixed into the mean
    assert motions[2].vector.dy < -1.0
    deco = flows.decompose_local(truth.gt_world, motions, truth.mask_t)
    sel1 = truth.mask_t.labels == 1
    assert np.abs(deco.local.vectors[sel1]).max() == 0.0


def test_homography_alignment_field_on_translation():
    sub = synth.SubjectSpec(root_t=(58.0, 64.0), root_t1=(63.0, 64.0))
    truth = synth.generate_scene(synth.SceneSpec(subjects=(sub,)))
    frame_t, frame_t1 = truth.keypoints
    motions = flows.estimate_subject_motion(
        truth.gt_world, truth.mask_t, skel.subject_skeletons(frame_t, frame_t1, truth.mask_t),
        method="alignment_field", align="full_body_homography",
    )
    deco = flows.decompose_local(truth.gt_world, motions, truth.mask_t)
    sel = truth.mask_t.labels == 1
    residual = np.hypot(deco.local.vectors[sel][:, 0], deco.local.vectors[sel][:, 1])
    assert residual.max() < 1e-3  # fitted projective map reduces to the translation

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlflow import flows, synth
from wlflow.core import SubjectMask, Vec2
from wlflow.errors import EmptySubject, SpecOutOfBounds, ValidationError

from conftest import full_raster_rasterize, two_figure_spec


def test_static_figure_has_zero_flow_and_nonempty_boundary(hp):
    spec = synth.SceneSpec(subjects=(synth.SubjectSpec(),))
    truth = synth.generate_scene(spec)
    assert np.all(truth.gt_world.vectors == 0.0)
    assert len(truth.boundary_t) > 0
    priors = flows.Priors.build(truth.keypoints[0], truth.keypoints[1],
                                truth.mask_t, truth.boundary_t)
    ob = flows.joint_objective(truth.gt_world, priors, hp)
    assert ob.f == 0.0


def test_pure_root_translation():
    sub = synth.SubjectSpec(root_t=(60.0, 64.0), root_t1=(64.0, 64.0))
    truth = synth.generate_scene(synth.SceneSpec(subjects=(sub,)))
    body = truth.mask_t.labels > 0
    assert np.allclose(truth.gt_world.vectors[body], (4.0, 0.0))
    assert np.all(truth.gt_local.vectors[body] == 0.0)
    assert truth.gt_subject[1].dx == 4.0
    assert truth.gt_subject[1].dy == 0.0


def test_forearm_rotation_closed_form():
    swing = np.deg2rad(20.0)
    base = synth.DEFAULT_ANGLES["forearm_l"]
    sub = synth.SubjectSpec(angles_t1={"forearm_l": base + swing})
    truth = synth.generate_scene(synth.SceneSpec(subjects=(sub,)))

    joints = truth.keypoints[0].persons[0]
    elbow = joints[7, :2]
    rot = np.array([[np.cos(swing), -np.sin(swing)], [np.sin(swing), np.cos(swing)]])
    body = truth.mask_t.labels > 0
    ys, xs = np.nonzero(body)
    moved = np.abs(truth.gt_world.vectors[ys, xs]).sum(axis=1) > 0

    # moving pixels obey the closed-form rotation about the elbow
    p = np.stack([xs[moved], ys[moved]], axis=1).astype(float)
    expect = (p - elbow) @ rot.T + elbow - p
    got = truth.gt_world.vectors[ys[moved], xs[moved]]
    assert np.abs(got - expect).max() < 1e-6
    assert moved.any()
    # everything else on the body is static
    assert np.all(truth.gt_world.vectors[ys[~moved], xs[~moved]] == 0.0)


def test_trace_boundary_3x3_square():
    labels = np.zeros((5, 5), dtype=np.int32)
    labels[1:4, 1:4] = 1
    pts = synth.trace_boundary(SubjectMask(labels), 1)
    got = {tuple(p) for p in pts.points}
    expect = {(float(x), float(y)) for y in (1, 2, 3) for x in (1, 2, 3)} - {(2.0, 2.0)}
    assert got == expect


def test_trace_boundary_single_pixel():
    labels = np.zeros((4, 4), dtype=np.int32)
    labels[2, 1] = 1
    pts = synth.trace_boundary(SubjectMask(labels), 1)
    assert {tuple(p) for p in pts.points} == {(1.0, 2.0)}


def test_trace_boundary_missing_subject():
    with pytest.raises(EmptySubject):
        synth.trace_boundary(SubjectMask(np.zeros((4, 4), dtype=np.int32)), 1)


def test_trace_boundary_matches_scan_oracle():
    """Boundary pixels come back in raster order: row by row, then by column."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        labels = np.zeros((24, 24), dtype=np.int32)
        # random blob: dilated random walk
        y, x = 12, 12
        for _ in range(120):
            labels[max(0, y - 1):y + 2, max(0, x - 1):x + 2] = 1
            y = int(np.clip(y + rng.integers(-1, 2), 1, 22))
            x = int(np.clip(x + rng.integers(-1, 2), 1, 22))
        mask = SubjectMask(labels)
        got = synth.trace_boundary(mask, 1).points
        expect = []
        for yy in range(24):
            for xx in range(24):
                if labels[yy, xx] != 1:
                    continue
                touches = False
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dy == dx == 0:
                            continue
                        ny, nx = yy + dy, xx + dx
                        if not (0 <= ny < 24 and 0 <= nx < 24) or labels[ny, nx] != 1:
                            touches = True
                if touches:
                    expect.append((float(xx), float(yy)))
        assert np.array_equal(got, np.array(expect).reshape(-1, 2))


def test_boundary_pixels_are_subject_and_touch_background(reference_truth):
    mask = reference_truth.mask_t
    for x, y in reference_truth.boundary_t.points:
        ix, iy = int(x), int(y)
        assert mask.labels[iy, ix] > 0
        neighborhood = mask.labels[max(0, iy - 1):iy + 2, max(0, ix - 1):ix + 2]
        assert (neighborhood == 0).any() or iy in (0, mask.height - 1) or ix in (0, mask.width - 1)


def test_scene_reproducibility_bitwise():
    spec = synth.single_figure_scene(seed=5)
    a = synth.generate_scene(spec)
    b = synth.generate_scene(spec)
    assert np.array_equal(a.gt_world.vectors, b.gt_world.vectors)
    assert np.array_equal(a.gt_local.vectors, b.gt_local.vectors)
    assert np.array_equal(a.mask_t.labels, b.mask_t.labels)
    assert np.array_equal(a.frames[0], b.frames[0])
    assert np.array_equal(a.keypoints[0].persons[0], b.keypoints[0].persons[0])


def test_world_minus_local_is_the_subject_motion():
    """On each body, world - local is that subject's root motion (to
    rounding: local is world minus it); off every body it is +0."""
    truth = synth.generate_scene(two_figure_spec())
    diff = truth.gt_world.vectors - truth.gt_local.vectors
    labels = truth.mask_t.labels
    for label, motion in truth.gt_subject.items():
        assert np.allclose(diff[labels == label], (motion.dx, motion.dy), rtol=0, atol=1e-12)
    off = diff[labels == 0]
    assert not off.any() and not np.signbit(off).any()


def test_spec_out_of_bounds():
    with pytest.raises(SpecOutOfBounds):
        synth.generate_scene(synth.SceneSpec(
            width=64, height=64,
            subjects=(synth.SubjectSpec(root_t=(60.0, 60.0), root_t1=(60.0, 60.0)),),
        ))


def test_overlapping_subjects_rejected():
    a = synth.SubjectSpec(root_t=(60.0, 64.0), root_t1=(60.0, 64.0))
    b = synth.SubjectSpec(root_t=(64.0, 64.0), root_t1=(64.0, 64.0))
    with pytest.raises(SpecOutOfBounds):
        synth.generate_scene(synth.SceneSpec(subjects=(a, b)))


def test_subjects_overlapping_at_t1_rejected():
    """Figures apart at t whose bodies meet at t+1 are refused, naming t+1."""
    a = synth.SubjectSpec(root_t=(40.0, 64.0), root_t1=(40.0, 64.0))
    b = synth.SubjectSpec(root_t=(88.0, 64.0), root_t1=(50.0, 64.0))
    with pytest.raises(SpecOutOfBounds, match="subject 2 overlaps an earlier subject at t\\+1"):
        synth.generate_scene(synth.SceneSpec(subjects=(a, b)))


def test_noise_model_sets_confidence():
    spec = synth.SceneSpec(subjects=(synth.SubjectSpec(),), noise_sigma=0.5, seed=3)
    truth = synth.generate_scene(spec)
    conf = truth.keypoints[0].persons[0][:, 2]
    assert np.allclose(conf, np.exp(-0.5))
    clean = synth.generate_scene(synth.SceneSpec(subjects=(synth.SubjectSpec(),)))
    assert not np.allclose(
        truth.keypoints[0].persons[0][:, :2], clean.keypoints[0].persons[0][:, :2]
    )


def test_keypoints_inside_subject_mask(reference_truth):
    mask = reference_truth.mask_t
    for person in reference_truth.keypoints[0].persons:
        for x, y, _ in person:
            assert mask.labels[int(round(y)), int(round(x))] > 0


def test_camera_motion_fills_background():
    spec = synth.SceneSpec(
        subjects=(synth.SubjectSpec(),), camera_motion=Vec2(1.5, -0.5)
    )
    truth = synth.generate_scene(spec)
    bg = truth.mask_t.labels == 0
    assert np.allclose(truth.gt_world.vectors[bg], (1.5, -0.5))
    # static subject over a moving camera keeps its own (zero) motion
    assert np.allclose(truth.gt_world.vectors[~bg], (0.0, 0.0))


def test_unknown_bone_parameter_rejected():
    with pytest.raises(ValidationError):
        synth.SubjectSpec(angles_t1={"tail": 0.3})


@pytest.mark.parametrize("fields", [
    pytest.param({"capsule_radii": (float("nan"),) * 14}, id="nan-radius"),
    pytest.param({"capsule_radii": (2.5,) * 13 + (0.0,)}, id="zero-radius"),
    pytest.param({"lengths": {"torso": float("nan")}}, id="nan-length"),
    pytest.param({"angles_t": {"neck": "up"}}, id="string-angle"),
    pytest.param({"root_t": "ab"}, id="string-root"),
    pytest.param({"root_t1": (1.0, 2.0, 3.0)}, id="three-number-root"),
    pytest.param({"root_t": np.array([[1.0, 2.0]])}, id="2d-array-root"),
    pytest.param({"root_t": np.array([1.0, 2.0, 3.0])}, id="three-number-array-root"),
    pytest.param({"root_t": np.array([True, False])}, id="bool-array-root"),
    pytest.param({"capsule_radii": np.full(13, 2.5)}, id="13-entry-array-radii"),
    pytest.param({"capsule_radii": np.array([2.5] * 13 + [np.nan])}, id="nan-array-radius"),
])
def test_subject_spec_refuses_bad_fields(fields):
    with pytest.raises(ValidationError):
        synth.SubjectSpec(**fields)


@pytest.mark.parametrize("fields, message", [
    pytest.param({"width": 96.0}, "width must be an integer", id="float-width"),
    pytest.param({"height": True}, "height must be an integer", id="bool-height"),
    pytest.param({"seed": 1.5, "noise_sigma": 0.5}, "seed must be an integer", id="float-seed"),
    pytest.param({"seed": -1}, "seed must be >= 0", id="negative-seed"),
    pytest.param({"noise_sigma": float("nan")}, "noise_sigma must be a finite number", id="nan-noise"),
    pytest.param({"noise_sigma": -0.5}, "noise_sigma must be >= 0", id="negative-noise"),
    pytest.param({"camera_motion": (1.0, 0.0)}, "camera_motion must be a Vec2", id="tuple-camera"),
    pytest.param({"subjects": ({"root_t": (60.0, 60.0)},)}, "each subject must be a SubjectSpec",
                 id="dict-subject"),
    pytest.param({"subjects": ()}, "scene needs at least one subject", id="no-subjects"),
])
def test_scene_spec_refuses_bad_fields(fields, message):
    with pytest.raises(ValidationError) as info:
        synth.SceneSpec(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize("seed, message", [
    pytest.param(-1, "seed must be >= 0", id="negative-seed"),
    pytest.param(1.5, "seed must be an integer", id="float-seed"),
    pytest.param(True, "seed must be an integer", id="bool-seed"),
])
def test_random_scene_takes_the_seed_rule_of_scene_spec(seed, message):
    """`random_scene` seeds its generator with the seed its `SceneSpec`
    stores, so it refuses what the spec refuses, before numpy sees it."""
    with pytest.raises(ValidationError, match=message):
        synth.random_scene(seed)


def test_specs_store_floats():
    """Integer and numpy numbers are stored as floats, so equal specs compare equal."""
    sub = synth.SubjectSpec(root_t=[60, np.float64(61.5)], lengths={"torso": 20}, capsule_radii=[3] * 14)
    assert sub == synth.SubjectSpec(root_t=(60.0, 61.5), lengths={"torso": 20.0}, capsule_radii=(3.0,) * 14)
    assert synth.SceneSpec(subjects=[sub], noise_sigma=1).noise_sigma == 1.0
    from_arrays = synth.SubjectSpec(root_t=np.array([60, 61.5]), capsule_radii=np.full(14, 3, dtype=np.int64))
    assert from_arrays == synth.SubjectSpec(root_t=(60.0, 61.5), capsule_radii=(3.0,) * 14)
    assert all(type(v) is float for v in from_arrays.root_t + from_arrays.capsule_radii)
    scene = synth.single_figure_scene(root=np.array([50.0, 60.0]))
    assert scene == synth.single_figure_scene(root=(50.0, 60.0))


def test_scene_pixel_cap():
    assert synth.SceneSpec(width=4096, height=4096).width == 4096
    for width, height in ((4097, 4096), (32, 2**19 + 1), (10**400, 32)):
        with pytest.raises(ValidationError, match="at most 16777216 pixels"):
            synth.SceneSpec(width=width, height=height)


def _touching(side: str) -> synth.SceneSpec:
    """A walking figure with thick limbs (radius 4.5) and thin nose struts
    (1.5), moved so that its capsule extent over both frames ends 1e-9 px
    inside the margin on one side of a 96x80 raster."""
    w, h = 96, 80
    radii = (4.5,) * 8 + (3.0, 3.0, 4.0, 4.0, 1.5, 1.5)
    sub = replace(synth.single_figure_scene(w, h, length_scale=0.8).subjects[0], capsule_radii=radii)
    joints = np.concatenate([synth._figure_joints(sub, 0), synth._figure_joints(sub, 1)])
    lo, hi = joints.min(axis=0) - max(radii), joints.max(axis=0) + max(radii)
    edge = synth._MARGIN + 1e-9
    shift = {"left": (edge - lo[0], 0.0), "top": (0.0, edge - lo[1]),
             "right": (w - 1 - edge - hi[0], 0.0), "bottom": (0.0, h - 1 - edge - hi[1])}[side]
    moved = replace(sub, root_t=tuple(np.add(sub.root_t, shift)), root_t1=tuple(np.add(sub.root_t1, shift)))
    return synth.SceneSpec(width=w, height=h, subjects=(moved,))


def _assert_rasterized_as_on_the_raster(spec):
    truth = synth.generate_scene(spec)
    labels, frames, world, local = full_raster_rasterize(spec)
    assert truth.mask_t.labels.tobytes() == labels.tobytes()
    assert truth.frames[0].tobytes() == frames[0].tobytes()
    assert truth.frames[1].tobytes() == frames[1].tobytes()
    assert truth.gt_world.vectors.tobytes() == world.tobytes()
    assert truth.gt_local.vectors.tobytes() == local.tobytes()


@pytest.mark.parametrize("spec", [
    *(pytest.param(_touching(side), id=side) for side in ("left", "top", "right", "bottom")),
    pytest.param(two_figure_spec(), id="two-figures"),
    pytest.param(replace(synth.single_figure_scene(), camera_motion=Vec2(-3.0, 2.0)), id="camera-motion"),
    pytest.param(replace(synth.single_figure_scene(), camera_motion=Vec2(-0.0, 0.5)), id="camera-minus-zero"),
])
def test_scene_rasterizes_on_the_subject_box_as_on_the_raster(spec):
    """Each bone is rasterized on its own capsule window inside the subject's
    box; labels, frames and the world and local flows equal a
    whole-raster rasterization bitwise, for figures at the margin on each
    side too."""
    _assert_rasterized_as_on_the_raster(spec)


@st.composite
def figure_specs(draw):
    """A one-figure 80x80 scene: every bone length drawn as 0 (a zero-length
    bone) or up to 0.6 of its default, every limb angle and the hip axis
    swung by up to 1 rad per frame, capsule radii from 0.05 (thin) to 4 px,
    a root step of up to 3 px and a camera motion with signed zeros."""
    lengths = {name: draw(st.sampled_from([0.0, 0.6 * length]) | st.floats(0.0, 0.6 * length))
               for name, length in synth.DEFAULT_LENGTHS.items()}
    swing = st.floats(-1.0, 1.0)
    angles_t = {name: synth.DEFAULT_ANGLES[name] + draw(swing) for name in synth.DEFAULT_ANGLES}
    angles_t1 = {name: angle + draw(swing) for name, angle in angles_t.items()}
    radii = tuple(draw(st.sampled_from([0.05, 0.5, 1.0, 2.5]) | st.floats(0.05, 4.0))
                  for _ in synth.DEFAULT_BONES)
    root = (draw(st.floats(38.0, 42.0)), draw(st.floats(38.0, 42.0)))
    step = (draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    sub = synth.SubjectSpec(root_t=root, root_t1=tuple(np.add(root, step)), lengths=lengths,
                            angles_t=angles_t, angles_t1=angles_t1, capsule_radii=radii)
    camera = Vec2(*(draw(st.sampled_from([0.0, -0.0, 1.5])) for _ in range(2)))
    return synth.SceneSpec(width=80, height=80, subjects=(sub,), camera_motion=camera)


@settings(max_examples=60)
@given(figure_specs())
def test_drawn_figures_rasterize_as_on_the_raster(spec):
    """The same on drawn figures, zero-length bones and thin capsules included."""
    _assert_rasterized_as_on_the_raster(spec)


@pytest.mark.parametrize("spec, limit_mib", [
    pytest.param(synth.single_figure_scene(512, 512, root=(128 * 0.45, 128 * 0.55)), 12.3, id="sparse-512"),
    pytest.param(synth.single_figure_scene(), 2.1, id="reference-128"),
])
def test_scene_set_up_peak_memory(spec, limit_mib):
    """The traced peak of a scene and its priors (11.78 and 1.94 MiB) stays
    within a small margin of that, below the 16.09 and 2.19 MiB it took
    with a subject-flow plane and a t+1 label plane, so that no whole-raster
    plane comes back unnoticed."""
    synth.generate_scene(spec)  # first calls allocate once per process
    tracemalloc.start()
    try:
        truth = synth.generate_scene(spec)
        flows.Priors.build(truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20

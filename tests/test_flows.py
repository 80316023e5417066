import tracemalloc
import dataclasses
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wlflow import boundary as bnd
from wlflow import core, flows, kinematics as kin, skeleton as skel, synth
from wlflow.core import TAU_RANGE, FlowMap, Hyperparams, PointSet, SubjectMask, Vec2
from wlflow.errors import DegenerateConfiguration, DimensionMismatch, EmptySubject, ValidationError

from conftest import (GradientLedger, eager_armijo_descent, full_raster_descent, full_raster_endpoint_error,
                      full_raster_surrogate, per_slot_soft_boundary, sparse_flow_arrays, sparse_scene,
                      sparse_solved_flow, two_figure_spec)


def test_objective_breakdown_identity(small_truth, small_priors, hp):
    ob = flows.joint_objective(small_truth.gt_world, small_priors, hp)
    assert ob.total == pytest.approx(ob.f + ob.alpha * ob.g, rel=1e-12)
    assert ob.total - ob.alpha * ob.g == pytest.approx(ob.f, rel=1e-12)


def test_objective_linear_in_alpha(small_truth, small_priors):
    hp1 = Hyperparams(alpha=0.1)
    hp2 = Hyperparams(alpha=0.35)
    ob1 = flows.joint_objective(small_truth.gt_world, small_priors, hp1)
    ob2 = flows.joint_objective(small_truth.gt_world, small_priors, hp2)
    assert ob2.total - ob1.total == pytest.approx((0.35 - 0.1) * ob1.g, rel=1e-9)
    assert ob1.g == ob2.g


def test_objective_gt_satisfies_priors(reference_truth, reference_priors, hp):
    ob = flows.joint_objective(reference_truth.gt_world, reference_priors, hp)
    assert ob.f <= 0.02
    assert ob.g <= 1.5


def test_zero_flow_is_worse_than_gt(reference_truth, reference_priors, hp):
    gt = flows.joint_objective(reference_truth.gt_world, reference_priors, hp)
    h, w = reference_truth.mask_t.height, reference_truth.mask_t.width
    zero = flows.joint_objective(FlowMap.zeros(w, h), reference_priors, hp)
    assert zero.f > gt.f


def test_objective_dimension_mismatch(small_priors, hp):
    with pytest.raises(DimensionMismatch):
        flows.joint_objective(FlowMap.zeros(4, 4), small_priors, hp)


def test_endpoint_error_identical():
    f = FlowMap(np.random.default_rng(0).normal(size=(8, 8, 2)))
    assert flows.endpoint_error(f, f) == (0.0, 0.0)


def test_endpoint_error_constant_offset():
    rng = np.random.default_rng(1)
    gt = FlowMap(rng.normal(size=(8, 8, 2)))
    pred = FlowMap(gt.vectors + (3.0, 4.0))
    mean, mx = flows.endpoint_error(pred, gt)
    assert mean == pytest.approx(5.0)
    assert mx == pytest.approx(5.0)


def test_endpoint_error_matches_loop_oracle():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8, 2))
    b = rng.normal(size=(8, 8, 2))
    mean, mx = flows.endpoint_error(FlowMap(a), FlowMap(b))
    errs = [np.hypot(*(a[y, x] - b[y, x])) for y in range(8) for x in range(8)]
    assert mean == pytest.approx(np.mean(errs), rel=1e-12)
    assert mx == pytest.approx(np.max(errs), rel=1e-12)


def test_endpoint_error_masked():
    labels = np.zeros((8, 8), dtype=np.int32)
    labels[2:4, 2:4] = 1
    mask = SubjectMask(labels)
    a = np.zeros((8, 8, 2))
    a[2:4, 2:4] = (3.0, 4.0)
    mean, mx = flows.endpoint_error(FlowMap(a), FlowMap.zeros(8, 8), mask)
    assert mean == pytest.approx(5.0)
    assert mx == pytest.approx(5.0)


def test_estimate_subject_motion_mask_mean_rigid_translation():
    sub = synth.SubjectSpec(root_t=(60.0, 64.0), root_t1=(64.0, 66.0))
    truth = synth.generate_scene(synth.SceneSpec(subjects=(sub,)))
    v = flows.estimate_subject_motion(truth.gt_world, truth.mask_t, method="mask-mean")[1]
    assert abs(v.dx - 4.0) < 1e-6
    assert abs(v.dy - 2.0) < 1e-6


def test_estimate_subject_motion_static_subject():
    truth = synth.generate_scene(synth.SceneSpec(subjects=(synth.SubjectSpec(),)))
    motions = flows.estimate_subject_motion(truth.gt_world, truth.mask_t, method="mask-mean")
    assert motions == {1: Vec2(0.0, 0.0)}


def test_estimate_subject_motion_empty_mask():
    with pytest.raises(EmptySubject):
        flows.estimate_subject_motion(
            FlowMap.zeros(8, 8), SubjectMask(np.zeros((8, 8), dtype=np.int32))
        )


@pytest.mark.parametrize("skeletons", [None, {}], ids=["none", "missing-subject"])
def test_estimate_subject_motion_needs_each_subjects_skeletons(small_truth, skeletons):
    with pytest.raises(ValidationError, match="skeleton maps of subject 1"):
        flows.estimate_subject_motion(small_truth.gt_world, small_truth.mask_t, "head", skeletons)


def test_estimate_subject_motion_unknown_method(small_truth):
    with pytest.raises(ValidationError, match="unknown subject motion method 'alignment_field'"):
        flows.estimate_subject_motion(small_truth.gt_world, small_truth.mask_t, "alignment_field")


def _rotating_scene(angle_deg=12.0):
    """Whole-body rotation about the head anchor between the two frames."""
    base = synth.SubjectSpec()
    j0 = synth._figure_joints(base, 0)
    ang = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    head = j0[:5].mean(axis=0)
    return j0, rot, head, ang


def test_alignment_field_rotating_figure():
    # synthetic rotation: world flow equals the rigid rotation field about the head
    j0, rot, head, ang = _rotating_scene()
    truth = synth.generate_scene(synth.SceneSpec(subjects=(synth.SubjectSpec(),)))
    mask = truth.mask_t
    ys, xs = np.nonzero(mask.labels)
    pts = np.stack([xs, ys], axis=1).astype(float)
    world = np.zeros((mask.height, mask.width, 2))
    world[ys, xs] = (pts - head) @ rot.T + head - pts
    world_map = FlowMap(world)

    j1 = np.ones((17, 3))
    j1[:, :2] = (j0 - head) @ rot.T + head
    j0c = np.ones((17, 3))
    j0c[:, :2] = j0
    k_t = skel.interpolate_skeleton(j0c)
    k_t1 = skel.interpolate_skeleton(j1)
    motions = flows.estimate_subject_motion(world_map, mask, "head", {1: (k_t, k_t1)})
    deco = flows.decompose_local(world_map, motions, mask)
    residual = np.hypot(deco.local.vectors[..., 0], deco.local.vectors[..., 1])

    nose = truth.keypoints[0].persons[0][0, :2]
    near_head = residual[int(nose[1]) - 1:int(nose[1]) + 2, int(nose[0]) - 1:int(nose[0]) + 2]
    assert near_head.max() < 0.5

    body = mask.labels > 0
    ankle = truth.keypoints[0].persons[0][15, :2]
    at_ankle = residual[int(ankle[1]), int(ankle[0])]
    assert at_ankle < 0.5  # rigid rotation: alignment field cancels everywhere on the body
    assert residual[body].max() < 0.5


def test_decompose_zero_motion_keeps_world(small_truth):
    mask = small_truth.mask_t
    world = small_truth.gt_world
    deco = flows.decompose_local(world, {label: Vec2(0.0, 0.0) for label in mask.subject_ids}, mask)
    assert np.array_equal(deco.local.vectors, world.vectors)


def test_decompose_constant_case():
    labels = np.zeros((8, 8), dtype=np.int32)
    labels[2:6, 2:6] = 1
    mask = SubjectMask(labels)
    world = np.zeros((8, 8, 2))
    world[2:6, 2:6] = (3.0, 0.0)
    deco = flows.decompose_local(FlowMap(world), {1: Vec2(3.0, 0.0)}, mask)
    assert np.all(deco.local.vectors[2:6, 2:6] == 0.0)
    assert np.all(deco.local.vectors[labels == 0] == world[labels == 0])


def test_decompose_reconstruction_bitwise():
    rng = np.random.default_rng(3)
    labels = np.zeros((16, 16), dtype=np.int32)
    labels[3:12, 4:13] = 1
    mask = SubjectMask(labels)
    world = FlowMap(rng.normal(size=(16, 16, 2)) * 3)
    deco = flows.decompose_local(world, {1: Vec2(*rng.normal(size=2))}, mask)
    diff = world.vectors - deco.local.vectors
    assert np.array_equal(diff, deco.subject.vectors)
    # background untouched
    assert np.array_equal(deco.local.vectors[labels == 0], world.vectors[labels == 0])


@pytest.mark.filterwarnings("error")
def test_motion_that_sends_a_subject_pixel_to_infinity_is_degenerate():
    """A homography whose inverse maps a subject pixel to w = 0 (x = 5 here)
    gives no subject motion field and no decomposition, and warns of nothing."""
    labels = np.zeros((8, 8), dtype=np.int32)
    labels[2:6, 3:7] = 1
    mask = SubjectMask(labels)
    motions = {1: skel.AlignTransform("homography", np.linalg.inv([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, -5.0]]))}
    for call in (lambda: flows.subject_motion_field(motions, mask),
                 lambda: flows.decompose_local(FlowMap.zeros(8, 8), motions, mask)):
        with pytest.raises(DegenerateConfiguration, match="subject 1 motion leaves the float range"):
            call()


# Per decompose method: the kinds its motions may take, then the subject-pixel
# local EPE its decomposition of the true world flow leaves on the reference
# scene and on random_scene(0) (measured 0.2770/0.0840, 0.6870/0.6259,
# 4.2e-15/0, 0.2932/0.0717). Each method recovers its own notion of subject
# motion: `head` the root translation of these scenes exactly, `homography`
# absorbs part of the limb motion.
_TRUE_WORLD_DECOMPOSITION = {
    "mask-mean": ({"vector"}, 0.2770, 0.0840),
    "homography": ({"homography", "similarity"}, 0.6870, 0.6259),
    "head": ({"similarity"}, 0.0, 0.0),
    "translation": ({"translation"}, 0.2932, 0.0717),
}


@pytest.mark.parametrize("method", flows.MOTION_METHODS)
@pytest.mark.parametrize("scene", [0, 1], ids=["reference", "random-0"])
def test_decomposition_of_true_world_flow_recovers_its_local_flow(scene, method):
    """The decomposition chain, scored end to end against `gt_local` (world
    flow minus the root translation): each method gives motions of its own
    kind and a subject-pixel local EPE within 10 % (plus 5e-4 px) of its
    measured value, so a method name wired to another fit fails here. `head`
    leaves the true local flow to within 5e-4 px everywhere."""
    spec = (synth.single_figure_scene(), synth.random_scene(0))[scene]
    kinds, *measured = _TRUE_WORLD_DECOMPOSITION[method]
    truth = synth.generate_scene(spec)
    pairs = skel.subject_skeletons(truth.keypoints[0], truth.keypoints[1], truth.mask_t)
    motions = flows.estimate_subject_motion(truth.gt_world, truth.mask_t, method, pairs)
    assert {"vector" if isinstance(m, Vec2) else m.kind for m in motions.values()} <= kinds
    local = flows.decompose_local(truth.gt_world, motions, truth.mask_t).local
    epe = flows.endpoint_error(local, truth.gt_local, truth.mask_t)[0]
    assert 0.9 * measured[scene] <= epe <= 1.1 * measured[scene] + 5e-4
    if method == "head":
        assert np.abs(local.vectors - truth.gt_local.vectors).max() < 5e-4


def test_skeleton_lookup_epe_on_the_reference_scene(reference_truth, reference_priors):
    """The lookup, each matched pixel given its skeleton offset and every other
    pixel 0, has subject EPE below 0.2 on the reference scene (measured
    0.1437): the bar a solve on a noise-free scene is measured against."""
    p = reference_priors
    lookup = np.zeros(reference_truth.gt_world.vectors.shape)
    matched = p.matches >= 0
    lookup[matched] = p.offsets.vectors[p.matches[matched]]
    assert flows.endpoint_error(FlowMap(lookup), reference_truth.gt_world, reference_truth.mask_t)[0] < 0.2


def test_local_constraint_pure_translation_is_zero(hp):
    sub = synth.SubjectSpec(root_t=(60.0, 64.0), root_t1=(64.0, 65.0))
    truth = synth.generate_scene(synth.SceneSpec(subjects=(sub,)))
    priors_local = flows.Priors.build(
        truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t,
        align_method="translation",
    )
    ob = flows.joint_objective(truth.gt_local, priors_local, hp)
    # zero local flow vs zero aligned offsets: jointly static; the angular
    # term is exactly 0 and only the alignment fit's float residue (~1e-14
    # px offsets) leaks into the quadratic intensity term
    assert ob.f < 1e-12
    assert ob.f_report.angular_violation_fraction == 0.0


def test_local_constraint_rotating_limbs(hp):
    """Aligned offsets beat raw offsets on the ground-truth local flow."""
    sub = synth.SubjectSpec(
        root_t=(56.0, 64.0), root_t1=(61.0, 64.0),
        angles_t1={
            "upper_arm_l": synth.DEFAULT_ANGLES["upper_arm_l"] + 0.3,
            "forearm_l": synth.DEFAULT_ANGLES["forearm_l"] + 0.3,
            "thigh_r": synth.DEFAULT_ANGLES["thigh_r"] - 0.25,
        },
    )
    truth = synth.generate_scene(synth.SceneSpec(subjects=(sub,)))
    aligned = flows.Priors.build(
        truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t,
        align_method="translation",
    )
    raw = flows.Priors.build(
        truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t,
    )
    f_aligned = flows.joint_objective(truth.gt_local, aligned, hp).f
    f_raw = flows.joint_objective(truth.gt_local, raw, hp).f
    assert f_aligned <= 0.05
    assert f_aligned < f_raw


def test_solver_improves_epe_from_zero(reference_truth, reference_priors, hp):
    h, w = reference_truth.mask_t.height, reference_truth.mask_t.width
    zero = FlowMap.zeros(w, h)
    base, _ = flows.endpoint_error(zero, reference_truth.gt_world, reference_truth.mask_t)
    res = flows.solve_world_flow(zero, reference_priors, hp, flows.SolverOptions(max_iters=500))
    mean, _ = flows.endpoint_error(res.flow, reference_truth.gt_world, reference_truth.mask_t)
    assert mean <= 0.5 * base
    assert len(res.trace) <= 500


def test_solver_surrogate_monotone_within_phases(small_truth, small_priors, hp):
    h, w = small_truth.mask_t.height, small_truth.mask_t.width
    res = flows.solve_world_flow(
        FlowMap.zeros(w, h), small_priors, hp, flows.SolverOptions(max_iters=60)
    )
    for a, b in zip(res.trace, res.trace[1:]):
        if a.tau == b.tau:
            assert b.surrogate <= a.surrogate + 1e-12


def test_solver_equals_eager_line_search(small_truth, small_priors, hp, monkeypatch):
    """Gradients only at accepted steps give bitwise the result of a line
    search that builds one at every trial, over all three tau phases."""
    zero = FlowMap.zeros(small_truth.mask_t.width, small_truth.mask_t.height)
    opts = flows.SolverOptions(max_iters=60)
    with monkeypatch.context() as m:
        m.setattr(flows, "armijo_descent", eager_armijo_descent)
        eager = flows.solve_world_flow(zero, small_priors, hp, opts)
    ledger = GradientLedger(monkeypatch, flows, "_surrogate")
    res = flows.solve_world_flow(zero, small_priors, hp, opts)
    assert res.flow.vectors.tobytes() == eager.flow.vectors.tobytes()
    assert res.trace == eager.trace
    assert res.stops == eager.stops
    assert {t.tau for t in res.trace} == set(opts.tau_schedule) and ledger.descents == 3
    ledger.check()


def test_solver_deterministic_same_options(small_truth, small_priors, hp):
    h, w = small_truth.mask_t.height, small_truth.mask_t.width
    opts = flows.SolverOptions(max_iters=30)
    r1 = flows.solve_world_flow(FlowMap.zeros(w, h), small_priors, hp, opts)
    r2 = flows.solve_world_flow(FlowMap.zeros(w, h), small_priors, hp, opts)
    assert np.array_equal(r1.flow.vectors, r2.flow.vectors)


def test_solver_scores_hard_objective_once(small_truth, small_priors, hp, monkeypatch):
    """The hard objective runs once per solve, through the module attribute,
    on the returned flow."""
    calls = []
    hard = flows.joint_objective

    def counting(flow, priors, hp):
        calls.append(flow)
        return hard(flow, priors, hp)

    monkeypatch.setattr(flows, "joint_objective", counting)
    h, w = small_truth.mask_t.height, small_truth.mask_t.width
    res = flows.solve_world_flow(FlowMap.zeros(w, h), small_priors, hp, flows.SolverOptions(max_iters=12))
    assert len(res.trace) > 3
    assert len(calls) == 1 and calls[0] is res.flow
    assert res.objective == hard(res.flow, small_priors, hp)


def test_solver_skips_phase_without_budget(small_truth, small_priors, hp, monkeypatch):
    """max_iters=4 over three phases gives budgets 2/2/0: the last phase
    must not evaluate the surrogate, and the result matches two phases."""
    calls = Counter()
    soft = flows.bnd.soft_boundary_constraint

    def counting(flow, boundary, hp, tau, **layout):
        calls[tau] += 1
        return soft(flow, boundary, hp, tau, **layout)

    monkeypatch.setattr(flows.bnd, "soft_boundary_constraint", counting)
    zero = FlowMap.zeros(small_truth.mask_t.width, small_truth.mask_t.height)
    res = flows.solve_world_flow(zero, small_priors, hp, flows.SolverOptions(max_iters=4))
    assert calls[0.02] == 0
    assert calls[0.5] > 0 and calls[0.1] > 0
    two = flows.solve_world_flow(
        zero, small_priors, hp, flows.SolverOptions(max_iters=4, tau_schedule=(0.5, 0.1))
    )
    assert np.array_equal(res.flow.vectors, two.flow.vectors)
    assert res.trace == two.trace
    assert [t.tau for t in res.trace] == [0.5, 0.5, 0.1, 0.1]
    assert res.stops == ("budget",) * 3 and not res.converged


def test_solver_near_stationary_from_gt(reference_truth, reference_priors, hp):
    """From GT init at the sharp surrogate the solver only fine-tunes: the
    hard objective does not degrade and the flow stays close to GT.

    GT is not an exact stationary point of the objective (its boundary term
    is positive and reducible), so a small drift is expected; see the
    decisions ledger.
    """
    res = flows.solve_world_flow(
        reference_truth.gt_world, reference_priors, hp,
        flows.SolverOptions(max_iters=5, tau_schedule=(0.005,), tolerance=0.05),
    )
    assert len(res.trace) <= 5
    drift = np.abs(res.flow.vectors - reference_truth.gt_world.vectors).max()
    assert drift < 1.5
    before = flows.joint_objective(reference_truth.gt_world, reference_priors, hp).total
    after = flows.joint_objective(res.flow, reference_priors, hp).total
    assert after <= before + 1e-9


def test_solver_rejects_bad_options():
    with pytest.raises(ValidationError):
        flows.SolverOptions(max_iters=0)
    with pytest.raises(ValidationError):
        flows.SolverOptions(tau_schedule=())
    lo, hi = TAU_RANGE
    flows.SolverOptions(tau_schedule=(lo, hi))
    for tau in (0.0, -0.5, lo / 2, hi * 2):
        with pytest.raises(ValidationError, match="tau_schedule entry must lie in"):
            flows.SolverOptions(tau_schedule=(0.5, tau))
    with pytest.raises(ValidationError):
        flows.SolverOptions(tolerance=0.0)


def test_solver_options_refuse_tau_entries_that_are_not_numbers():
    for entry in ("0.5", "fast", "nan", "1e400", None, True, [0.5]):
        with pytest.raises(ValidationError, match="each tau_schedule entry must be a finite number"):
            flows.SolverOptions(tau_schedule=(0.5, entry))


def test_solver_takes_an_init_within_the_float32_range(small_truth, small_priors, hp):
    """The range `TAU_RANGE` assumes: an init scaled by 1e100 on the subject,
    which overflowed in the surrogates, is refused, and one whose largest
    entry is 3.4e38 solves without a floating-point warning."""
    subject = small_truth.mask_t.labels > 0
    gt = small_truth.gt_world.vectors[subject]
    opts = flows.SolverOptions(max_iters=6)
    for sign in (1.0, -1.0):
        far = np.zeros_like(small_truth.gt_world.vectors)
        far[subject] = sign * 1e100 * gt
        with pytest.raises(ValidationError, match="float32 range"):
            flows.solve_world_flow(FlowMap(far), small_priors, hp, opts)
        edge = np.zeros_like(far)
        edge[subject] = sign * 3.4e38 / np.abs(gt).max() * gt
        assert np.abs(edge).max() == 3.4e38
        flows.solve_world_flow(FlowMap(edge), small_priors, hp, opts)


def test_priors_build_with_alignment(small_truth):
    aligned = flows.Priors.build(
        small_truth.keypoints[0], small_truth.keypoints[1],
        small_truth.mask_t, small_truth.boundary_t, align_method="translation",
    )
    raw = flows.Priors.build(
        small_truth.keypoints[0], small_truth.keypoints[1],
        small_truth.mask_t, small_truth.boundary_t,
    )
    assert aligned.matches.shape == raw.matches.shape
    assert not np.allclose(aligned.offsets.vectors, raw.offsets.vectors)


@lru_cache(maxsize=None)
def _scene(seed):
    """`random_scene(seed)` at 64x64, or the 128x128 reference scene for seed None, with priors."""
    if seed is None:
        spec = synth.single_figure_scene()
    else:
        spec = synth.random_scene(seed, 64, 64, length_scale=0.55)
    truth = synth.generate_scene(spec)
    return truth, flows.Priors.build(truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t)


def _is_plus_zero(a: np.ndarray) -> bool:
    return bool((a == 0).all() and not np.signbit(a).any())


@settings(max_examples=12)
@given(seed=st.one_of(st.none(), st.integers(0, 40)), tau=st.sampled_from([0.5, 0.1, 0.02]),
       data=st.data())
def test_gradient_is_plus_zero_on_still_background(seed, tau, data):
    """The invariant the solve box rests on: with flow random on the subject
    and 0 elsewhere, the whole-raster surrogate gradient is +0.0 on every
    background pixel, bytes included, and so is the solver's on the solve box."""
    truth, priors = _scene(seed)
    hp, opts = Hyperparams(), flows.SolverOptions()
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    scale = data.draw(st.sampled_from([1e-3, 0.5, 3.0, 40.0]))
    subject = truth.mask_t.labels > 0
    arr = np.zeros((truth.mask_t.height, truth.mask_t.width, 2))
    arr[subject] = rng.normal(0.0, scale, (int(subject.sum()), 2))
    index, terms = flows._solve_terms(arr, priors, hp, opts)
    assert _is_plus_zero(full_raster_surrogate(arr, priors, hp, opts, tau)[1]()[~subject])
    box_gradient = flows._surrogate(arr[index], terms, tau)[1]()
    assert _is_plus_zero(box_gradient[~subject[index]])


@pytest.mark.parametrize("seed", [None, 5, 17])
def test_zero_init_solve_stays_zero_off_the_subject(seed, hp):
    truth, priors = _scene(seed)
    zero = FlowMap.zeros(truth.mask_t.width, truth.mask_t.height)
    res = flows.solve_world_flow(zero, priors, hp, flows.SolverOptions(max_iters=20))
    subject = truth.mask_t.labels > 0
    assert _is_plus_zero(res.flow.vectors[~subject])
    assert np.abs(res.flow.vectors[subject]).max() > 0


def test_solve_from_truth_keeps_camera_motion(hp):
    """The objective assumes no static camera: solving from the ground truth of
    a scene whose camera moves by (-3, 2) px keeps the background's motion and
    leaves the subject near its truth. A penalty on background flow once pulled
    all-pixel EPE to 2.9 and subject EPE to 0.67."""
    spec = replace(synth.single_figure_scene(), camera_motion=Vec2(-3.0, 2.0))
    truth = synth.generate_scene(spec)
    priors = flows.Priors.build(truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t)
    res = flows.solve_world_flow(truth.gt_world, priors, hp, flows.SolverOptions(max_iters=30))
    assert flows.endpoint_error(res.flow, truth.gt_world)[0] < 0.05
    assert flows.endpoint_error(res.flow, truth.gt_world, truth.mask_t)[0] < 0.3


def _corner_scene():
    """A 256x256 raster with the figure in its top-left corner."""
    truth = synth.generate_scene(synth.single_figure_scene(256, 256, root=(40.0, 60.0), length_scale=0.8))
    return truth, flows.Priors.build(truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t)


def _solve_recording(monkeypatch, init, priors, hp, opts):
    """Solve, and also return every gradient `flows._surrogate` built and the
    solve box it ran on, whose terms were built once."""
    grads, built, seen = [], [], []

    def building(*args):
        built.append(solve_terms(*args))
        return built[-1]

    def recording(arr, terms, tau):
        value, gradient = surrogate(arr, terms, tau)
        seen.append(terms)

        def recorded():
            grads.append(gradient())
            return grads[-1]

        return value, recorded

    surrogate, solve_terms = flows._surrogate, flows._solve_terms
    with monkeypatch.context() as m:
        m.setattr(flows, "_solve_terms", building)
        m.setattr(flows, "_surrogate", recording)
        res = flows.solve_world_flow(init, priors, hp, opts)
    (index, terms), = built
    assert all(t is terms for t in seen)
    return res, grads, index


def _bits(rows):
    return [tuple(float(v).hex() for v in row) for row in rows]


def test_priors_matches_are_read_only():
    """`Priors` keeps its matches read-only, as every other frozen input type
    keeps its arrays, so they cannot be edited in place."""
    _, priors = _scene(None)
    with pytest.raises(ValueError, match="read-only"):
        priors.matches[0, 0] = 0


def _direct_priors(matches: np.ndarray, labels: np.ndarray) -> flows.Priors:
    """`Priors` built from its fields, with one zero offset per match index."""
    n = int(matches.max()) + 1
    return flows.Priors(matches, skel.SkeletonOffsets(np.zeros((n, 2))), PointSet(np.zeros((0, 2))),
                        SubjectMask(labels))


@pytest.mark.parametrize("build", [True, False], ids=["build", "direct"])
def test_priors_refuse_a_mask_without_subjects(small_truth, build, monkeypatch):
    """Either way of making `Priors` refuses a subject-less mask; `build` does
    so before it assembles any skeleton."""
    labels = np.zeros((8, 8), dtype=np.int32)
    monkeypatch.setattr(skel, "subject_skeletons", lambda *args: pytest.fail("skeletons assembled"))
    with pytest.raises(EmptySubject, match="mask contains no subjects"):
        if build:
            flows.Priors.build(*small_truth.keypoints[:2], SubjectMask(labels), small_truth.boundary_t)
        else:
            _direct_priors(np.full((8, 8), -1), labels)


def test_a_solve_refuses_an_oversized_raster_before_it_descends(small_truth, hp, monkeypatch):
    """`Priors` takes the raster rule of the hard objective's patch grids, so a
    solve on a raster past `core.MAX_PIXELS` is refused before `_solve_terms`
    builds its terms, not by the hard objective after the descent; `build`
    refuses it before it assembles any skeleton."""
    built = []
    solve_terms = flows._solve_terms
    monkeypatch.setattr(flows, "_solve_terms", lambda *args: built.append(args) or solve_terms(*args))
    monkeypatch.setattr(skel, "subject_skeletons", lambda *args: pytest.fail("skeletons assembled"))
    monkeypatch.setattr(core, "MAX_PIXELS", 64 * 64 - 1)
    t = small_truth
    with pytest.raises(ValidationError, match="raster width x height must be at most 4095 pixels"):
        priors = flows.Priors.build(t.keypoints[0], t.keypoints[1], t.mask_t, t.boundary_t)
        flows.solve_world_flow(FlowMap.zeros(64, 64), priors, hp, flows.SolverOptions(max_iters=40))
    assert built == []


def test_scene_and_priors_never_sort_the_mask(reference_truth, reference_priors, monkeypatch):
    """An accepted mask lists its subjects once, when it is built, without
    `np.unique`; the scene and its priors read that list and sort nothing."""
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: pytest.fail("np.unique called"))
    t = synth.generate_scene(synth.single_figure_scene())
    priors = flows.Priors.build(t.keypoints[0], t.keypoints[1], t.mask_t, t.boundary_t)
    assert t.mask_t.subject_ids == (1,)
    assert np.array_equal(t.mask_t.labels, reference_truth.mask_t.labels)
    assert np.array_equal(priors.matches, reference_priors.matches)


@st.composite
def _bad_match_tables(draw):
    """(n, table, defect): a match table for `n` offsets on a 6x6 mask that
    is valid but for one defect: another shape, a float dtype, or one entry
    at or past `n` ("high") or below -1 ("low")."""
    n = draw(st.integers(1, 4))
    defect = draw(st.sampled_from(["shape", "float", "high", "low"]))
    shape = (6, 6) if defect != "shape" else draw(st.sampled_from([(6, 5), (5, 6), (6,), (6, 6, 1), (1, 36)]))
    table = draw(hnp.arrays(np.int64, shape, elements=st.integers(-1, n - 1)))
    if defect == "float":
        table = table.astype(draw(st.sampled_from([np.float64, np.float32])))
    elif defect in ("high", "low"):
        bad = st.integers(n, 2 ** 40) if defect == "high" else st.integers(-2 ** 40, -2)
        table[draw(st.integers(0, 5)), draw(st.integers(0, 5))] = draw(bad)
    return n, table, defect


@given(case=_bad_match_tables())
@settings(max_examples=60, deadline=None)
def test_bad_match_tables_are_refused_with_a_typed_error(case):
    """`Priors`, the hard skeleton constraint and its surrogate refuse a
    match table of the wrong shape or dtype (DimensionMismatch) or with an
    entry that is neither -1 nor an offset index (ValidationError, not its
    subclass DimensionMismatch), never with an IndexError."""
    n, table, defect = case
    mask = SubjectMask(np.pad(np.ones((2, 2), dtype=np.int32), 2))
    offsets = skel.SkeletonOffsets(np.ones((n, 2)))
    expected = DimensionMismatch if defect in ("shape", "float") else ValidationError
    flow = FlowMap.zeros(6, 6)
    for refuse in (lambda: flows.Priors(table, offsets, PointSet(np.zeros((0, 2))), mask),
                   lambda: kin.skeleton_constraint(flow, offsets, table, mask, Hyperparams()),
                   lambda: kin.smooth_skeleton_constraint(flow, offsets, table, mask, Hyperparams(), 0.5)):
        with pytest.raises(ValidationError) as refused:
            refuse()
        assert type(refused.value) is expected


def _loop_active_box(init: np.ndarray, labels: np.ndarray, matches: np.ndarray) -> tuple[slice, slice]:
    """Reference for the solve's active box, pixel by pixel: the whole raster
    if the init moves a background pixel or a background pixel is matched,
    else the bounding box of the subject, matched and moving pixels plus a
    1 px halo, clipped to the raster."""
    h, w = labels.shape
    rows, cols = [], []
    for y in range(h):
        for x in range(w):
            moves = init[y, x, 0] != 0 or init[y, x, 1] != 0
            if (moves or matches[y, x] >= 0) and labels[y, x] == 0:
                return slice(0, h), slice(0, w)
            if moves or labels[y, x] > 0 or matches[y, x] >= 0:
                rows.append(y)
                cols.append(x)
    return slice(max(min(rows) - 1, 0), min(max(rows) + 2, h)), slice(max(min(cols) - 1, 0), min(max(cols) + 2, w))


@st.composite
def _box_inputs(draw):
    """Label masks of one to three rectangles, which may touch the raster's
    edges, matched pixels on or off the subject, and an init that is zero
    (signed zeros included), moves subject pixels only, or also moves one
    background pixel."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    labels = np.zeros((h, w), dtype=np.int32)
    for label in range(1, draw(st.integers(1, 3)) + 1):
        y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        labels[y0:draw(st.integers(y0 + 1, h)), x0:draw(st.integers(x0 + 1, w))] = label
    present = np.unique(labels[labels > 0])
    lut = np.zeros(labels.max() + 1, dtype=np.int32)
    lut[present] = np.arange(1, present.size + 1)
    labels = lut[labels]  # contiguous labels 1..k, as a rectangle drawn later may cover an earlier one
    pixels = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1))
    matches = np.full((h, w), -1)
    for y, x in draw(st.lists(pixels, max_size=4)):
        matches[y, x] = draw(st.integers(0, 5))
    values = st.sampled_from([0.0, -0.0, 1.5, -2.0, 1e-300])
    init = np.zeros((h, w, 2))
    kind = draw(st.sampled_from(["zero", "subject", "background"]))
    for y, x in draw(st.lists(pixels, max_size=6)):
        if kind == "zero":
            init[y, x] = (-0.0, draw(st.sampled_from([0.0, -0.0])))
        elif labels[y, x] > 0:
            init[y, x] = (draw(values), draw(values))
    background = np.argwhere(labels == 0)
    if kind == "background" and len(background):
        y, x = background[draw(st.integers(0, len(background) - 1))]
        init[y, x, draw(st.integers(0, 1))] = draw(st.sampled_from([1.5, -2.0, 1e-300]))
    return init, labels, matches


@settings(max_examples=150)
@given(inputs=_box_inputs())
def test_active_box_equals_the_pixel_loop(inputs):
    """The active box, the bounding box of `_free_pixels` plus a 1 px halo,
    on any label mask, matches and init equals the pixel loop, which also
    counts the moving pixels: a box that is not the whole raster holds every
    pixel the init moves."""
    init, labels, matches = inputs
    free = flows._free_pixels(init, _direct_priors(matches, labels))
    assert flows._plane_box(free, 1) == _loop_active_box(init, labels, matches)


@pytest.mark.parametrize("case", ["reference-zero", "corner-256", "refine", "refine-256", "background-patch",
                                  "sparse-512", "scales-5-12", "scales-64"])
def test_active_box_solve_equals_full_raster(case, monkeypatch):
    """A descent on the solve box gives bitwise the flow, the accepted steps,
    the surrogate values and the gradients of `armijo_descent` on the whole
    raster; those whole-raster gradients are +0 outside the box. A signed
    zero on the still background keeps its sign, outside the solve box and
    inside it. An init that moves background pixels, everywhere (refine) or
    in one small patch that smoothness spreads, gets the whole raster; on
    the 256x256 raster its boundary-cell window is a small part of it."""
    hp = Hyperparams(scales={"scales-5-12": (5, 12), "scales-64": (64,)}.get(case, Hyperparams().scales))
    if case in ("corner-256", "refine-256"):
        truth, priors = _corner_scene()
    elif case == "sparse-512":
        truth, priors = sparse_scene()
    else:
        truth, priors = _scene(7 if case in ("refine", "background-patch") else None)
    h, w = truth.mask_t.height, truth.mask_t.width
    init = np.zeros((h, w, 2))
    if case in ("refine", "refine-256"):
        init = truth.gt_world.vectors + np.random.default_rng(3).normal(0.0, 0.5, (h, w, 2))
    elif case == "background-patch":
        init[3:6, w - 6:w - 3] = (2.0, -1.0)
        assert (truth.mask_t.labels[3:6, w - 6:w - 3] == 0).all()
    opts = flows.SolverOptions(max_iters=12 if case in ("sparse-512", "refine-256") else 30)
    index, terms = flows._solve_terms(init, priors, hp, opts)
    soft_crop, active = terms[1][1], terms[2][1]  # the soft boundary term's and smoothness's crops
    rows, cols = index
    covered = (rows.stop - rows.start) * (cols.stop - cols.start)
    signed_zeros = [(h - 1, 0), (rows.stop - 1, cols.start)]
    if case in ("refine", "refine-256", "background-patch"):
        assert covered == h * w
    else:
        assert covered <= h * w / {"corner-256": 4, "sparse-512": 20, "scales-64": 1}.get(case, 2)
        for y, x in signed_zeros:
            assert truth.mask_t.labels[y, x] == 0 and priors.matches[y, x] < 0
            init[y, x, 1] = -0.0
        assert active != (slice(0, rows.stop - rows.start), slice(0, cols.stop - cols.start))

    if case == "refine-256":
        rows, cols = soft_crop
        assert (rows.stop - rows.start) * (cols.stop - cols.start) <= h * w / 10
    res, grads, solve_index = _solve_recording(monkeypatch, FlowMap(init), priors, hp, opts)
    ref, ref_trace, ref_stops, ref_grads, whole_values = full_raster_descent(init, priors, hp, opts)
    assert solve_index == index
    assert res.flow.vectors.tobytes() == ref.tobytes()
    assert _bits((t.iteration, t.tau, t.step, t.surrogate) for t in res.trace) == _bits(ref_trace)
    assert [t.surrogate for t in res.trace] == pytest.approx(whole_values, rel=1e-12)
    assert res.stops == tuple(ref_stops)
    assert res.objective == flows.joint_objective(FlowMap(ref), priors, hp)
    outside = np.ones((h, w), dtype=bool)
    outside[index] = False
    assert len(grads) == len(ref_grads) > 3
    for grad, ref_grad in zip(grads, ref_grads):
        assert grad.tobytes() == ref_grad[index].tobytes()
        assert _is_plus_zero(ref_grad[outside])
    if case not in ("refine", "refine-256", "background-patch"):
        for y, x in signed_zeros:
            assert np.signbit(res.flow.vectors[y, x, 1])


def _pairs_touching(free: np.ndarray) -> int:
    """Unordered 8-neighbor pixel pairs of a plane with at least one free
    pixel, counted pixel by pixel."""
    h, w = free.shape
    count = 0
    for y in range(h):
        for x in range(w):
            for dy, dx in ((0, 1), (1, -1), (1, 0), (1, 1)):
                qy, qx = y + dy, x + dx
                if 0 <= qy < h and 0 <= qx < w and (free[y, x] or free[qy, qx]):
                    count += 1
    return count


@pytest.mark.parametrize("init", ["zero", "refine"])
def test_soft_term_scores_the_pairs_that_touch_a_free_pixel(small_truth, small_priors, init, monkeypatch):
    """At every evaluation of a zero-init solve of the 64x64 scene, the soft
    term's forward pass scores exactly the in-window neighbor pairs with a
    subject pixel, a small share of them, on a ring of pixels; a refinement
    init moves the background, frees every pixel, so the ring fills the
    window, and has every in-window pair scored through flat slices, with the
    3h - 3 pairs of an h-row window that wrap across its left and right
    sides, whose slots are off the raster."""
    hp = Hyperparams()
    labels = small_truth.mask_t.labels
    rows, cols = bnd._boundary_window(small_priors.boundary.points, hp.scales, *labels.shape)
    every = _pairs_touching(np.ones(labels[rows, cols].shape, dtype=bool))
    if init == "zero":
        start = np.zeros(labels.shape + (2,))
        expected = _pairs_touching(labels[rows, cols] > 0)
        assert expected < every / 4
    else:
        gt = small_truth.gt_world.vectors
        start = gt + np.random.default_rng(2).normal(0.0, 0.5, gt.shape)
        expected = every + 3 * (rows.stop - rows.start) - 3
    scored, filled = [], set()  # per soft-term call, the sizes of its angle gate calls

    def spy(cos, *args, real=bnd._angle_gate, **kwargs):
        scored[-1].append(cos.size)
        return real(cos, *args, **kwargs)

    def soft(*args, layout, real=bnd.soft_boundary_constraint):
        scored.append([])
        filled.add(isinstance(layout.plan.ring, slice))
        return real(*args, layout=layout)

    monkeypatch.setattr(bnd, "_angle_gate", spy)
    monkeypatch.setattr(bnd, "soft_boundary_constraint", soft)
    res = flows.solve_world_flow(FlowMap(start), small_priors, hp, flows.SolverOptions(max_iters=6))
    assert len(res.trace) == 6 and len(scored) > 6
    assert {sum(sizes) for sizes in scored} == {expected}
    assert filled == {init == "refine"}


def test_a_match_on_the_background_frees_the_whole_raster(small_truth, small_priors, monkeypatch):
    """A match table that `Priors` accepts may match a background pixel; the
    skeleton term moves it and smoothness spreads that motion over the
    background, so the solve frees the whole raster and still equals the
    descent on it bitwise."""
    labels = small_truth.mask_t.labels
    matches = np.array(small_priors.matches)
    y, x = np.argwhere(labels == 0)[labels.size // 3]
    matches[y, x] = 0
    priors = flows.Priors(matches, small_priors.offsets, small_priors.boundary, small_priors.mask)
    hp, opts = Hyperparams(), flows.SolverOptions(max_iters=9)
    init = np.zeros(labels.shape + (2,))
    assert flows._free_pixels(init, priors).all()
    res, _, index = _solve_recording(monkeypatch, FlowMap(init), priors, hp, opts)
    ref, ref_trace, ref_stops, _, _ = full_raster_descent(init, priors, hp, opts)
    assert index == (slice(0, labels.shape[0]), slice(0, labels.shape[1]))
    assert res.flow.vectors.tobytes() == ref.tobytes() and res.flow.vectors[y, x].any()
    assert _bits((t.iteration, t.tau, t.step, t.surrogate) for t in res.trace) == _bits(ref_trace)


def test_two_figure_refinement_equals_the_whole_raster_descent(monkeypatch):
    """A refinement of the two-figure scene from noisy ground truth frees
    every pixel, so the soft term's ring fills its window and every pair is
    scored through flat slices. The solve still equals the descent on the
    whole raster bitwise, every gradient included, and on the solved flow
    the soft term gives the per-slot loop's value and gradient bytes at
    each tau of the schedule."""
    truth = synth.generate_scene(two_figure_spec())
    priors = flows.Priors.build(truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t)
    hp, opts = Hyperparams(), flows.SolverOptions(max_iters=6)
    gt = truth.gt_world.vectors
    h, w = gt.shape[:2]
    init = gt + np.random.default_rng(4).normal(0.0, 0.5, gt.shape)
    res, grads, index = _solve_recording(monkeypatch, FlowMap(init), priors, hp, opts)
    ref, ref_trace, ref_stops, ref_grads, _ = full_raster_descent(init, priors, hp, opts)
    assert index == (slice(0, h), slice(0, w))
    assert res.flow.vectors.tobytes() == ref.tobytes()
    assert _bits((t.iteration, t.tau, t.step, t.surrogate) for t in res.trace) == _bits(ref_trace)
    assert len(res.trace) == 6 and res.stops == tuple(ref_stops)
    assert len(grads) == len(ref_grads) > 3
    assert all(grad.tobytes() == ref_grad.tobytes() for grad, ref_grad in zip(grads, ref_grads))

    layout = bnd.soft_layout(priors.boundary, hp, h, w, flows._free_pixels(init, priors))
    assert isinstance(layout.plan.ring, slice)
    rows, cols = layout.window
    for tau in opts.tau_schedule:
        value, backward = bnd.soft_boundary_constraint(FlowMap(res.flow.vectors[rows, cols]), priors.boundary,
                                                       hp, tau, layout=layout)
        ref_value, ref_backward = per_slot_soft_boundary(res.flow, priors.boundary, hp, tau)
        assert float(value).hex() == float(ref_value).hex()
        assert backward().tobytes() == ref_backward()[rows, cols].tobytes()


def test_soft_term_runs_on_the_boundary_window_when_the_box_is_the_whole_raster(monkeypatch):
    """A refinement init moves the background, so its solve box is the whole
    raster; the soft boundary term still runs on the boundary-cell window
    alone, a tenth of the 256x256 raster here, at every evaluation."""
    truth, priors = _corner_scene()
    hp = Hyperparams()
    init = truth.gt_world.vectors + np.random.default_rng(5).normal(0.0, 0.5, truth.gt_world.vectors.shape)
    index, terms = flows._solve_terms(init, priors, hp, flows.SolverOptions())
    assert index == (slice(0, 256), slice(0, 256))
    window = terms[1][1]  # the soft boundary term's crop, on the raster as the box is
    rows, cols = window
    assert (rows.stop - rows.start) * (cols.stop - cols.start) <= 256 * 256 / 10
    seen = []

    def recording(flow, *args, layout=None):
        seen.append((flow.vectors.shape[:2], layout))
        return soft(flow, *args, layout=layout)

    soft = bnd.soft_boundary_constraint
    monkeypatch.setattr(bnd, "soft_boundary_constraint", recording)
    res = flows.solve_world_flow(FlowMap(init), priors, hp, flows.SolverOptions(max_iters=4))
    assert len(seen) > len(res.trace) > 0
    layout = seen[0][1]  # built once per solve, passed at every evaluation
    assert layout.window == window
    assert seen == [((rows.stop - rows.start, cols.stop - cols.start), layout)] * len(seen)


@settings(max_examples=25)
@given(seed=st.one_of(st.none(), st.integers(0, 40)), tau=st.sampled_from([0.5, 0.1, 0.02]),
       scales=st.sampled_from([(8, 16, 32), (5, 12), (64,)]), data=st.data())
def test_constraint_terms_on_a_window_equal_the_whole_raster(seed, tau, scales, data):
    """Called with its layout, the skeleton term's on a window that holds
    the solve box of a zero init and the soft boundary term's on the
    boundary-cell window inside it, each surrogate term returns the whole
    raster's value bitwise and the whole raster's gradient cropped to its
    window bitwise, for any flow on the window, and that whole-raster
    gradient is +0 outside the window."""
    truth, priors = _scene(seed)
    hp = Hyperparams(scales=scales)
    h, w = truth.mask_t.height, truth.mask_t.width
    rows, cols = flows._solve_terms(np.zeros((h, w, 2)), priors, hp, flows.SolverOptions())[0]
    grow = data.draw(st.tuples(*[st.integers(0, 6)] * 4))
    window = (slice(max(rows.start - grow[0], 0), min(rows.stop + grow[1], h)),
              slice(max(cols.start - grow[2], 0), min(cols.stop + grow[3], w)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    arr = np.zeros((h, w, 2))
    inner = arr[window]
    inner[...] = rng.normal(0.0, data.draw(st.sampled_from([1e-3, 0.5, 3.0, 40.0])), inner.shape)
    still = rng.random(inner.shape[:2]) < data.draw(st.sampled_from([0.0, 0.3]))
    inner[still] = np.copysign(0.0, rng.choice([-1.0, 1.0], (int(still.sum()), 2)))
    outside = np.ones((h, w), dtype=bool)
    outside[window] = False
    layout = bnd.soft_layout(priors.boundary, hp, h, w)
    matched = kin.skeleton_layout(priors.offsets, priors.matches, priors.mask, window)
    skeleton_args = (priors.offsets, priors.matches, priors.mask, hp, tau)
    for term, args, crop, at in ((kin.smooth_skeleton_constraint, skeleton_args, window, matched),
                                 (bnd.soft_boundary_constraint, (priors.boundary, hp, tau), layout.window, layout)):
        value, gradient = term(FlowMap(arr), *args)
        box_value, box_gradient = term(FlowMap(arr[crop]), *args, layout=at)
        assert float(box_value).hex() == float(value).hex()
        whole = gradient()
        assert box_gradient().tobytes() == whole[crop].tobytes()
        assert _is_plus_zero(whole[outside])


def test_skeleton_term_refuses_a_flow_that_does_not_fill_its_window(small_priors, hp):
    p = small_priors
    layout = kin.skeleton_layout(p.offsets, p.matches, p.mask, (slice(0, 4), slice(2, 6)))
    with pytest.raises(DimensionMismatch, match="does not fill its window"):
        kin.smooth_skeleton_constraint(FlowMap.zeros(5, 4), p.offsets, p.matches, p.mask, hp, 0.1, layout=layout)


def test_skeleton_term_on_a_window_without_a_match_is_plus_zero(small_priors, hp):
    """A window that holds no matched pixel takes the general path: a value of
    +0.0 and a zero gradient of the flow's shape, with no warning."""
    p = small_priors
    layout = kin.skeleton_layout(p.offsets, p.matches, p.mask, (slice(0, 4), slice(2, 6)))
    assert layout.at.size == 0
    value, gradient = kin.smooth_skeleton_constraint(FlowMap(np.ones((4, 4, 2))), p.offsets, p.matches, p.mask,
                                                     hp, 0.1, layout=layout)
    assert float(value).hex() == (0.0).hex()
    assert gradient().tobytes() == np.zeros((4, 4, 2)).tobytes()


@pytest.mark.parametrize("window", [
    pytest.param((slice(0, 0), slice(0, 0)), id="empty"),
    pytest.param((slice(10, 5), slice(0, 64)), id="reversed-rows"),
    pytest.param((slice(0, 200), slice(0, 64)), id="rows-past-the-raster"),
    pytest.param((slice(0, 64), slice(0, 65)), id="columns-past-the-raster"),
    pytest.param((slice(-1, 64), slice(0, 64)), id="negative-start"),
    pytest.param((slice(None), slice(0, 64)), id="open-start"),
    pytest.param((slice(0, 64, 2), slice(0, 64)), id="step-2"),
    pytest.param((slice(0.0, 64), slice(0, 64)), id="float-start"),
    pytest.param((slice(0, 64),), id="one-slice"),
    pytest.param([slice(0, 64), slice(0, 64)], id="list"),
])
def test_skeleton_layout_takes_windows_by_one_rule(small_priors, window):
    """A window is two step-1 slices with 0 <= start < stop <= side; anything
    else, empty, reversed or past the raster included, is refused, not
    clipped. The whole raster, given as such a window, is taken."""
    p = small_priors
    with pytest.raises(ValidationError, match="window must be two step-1 slices with 0 <= start < stop <= side"):
        kin.skeleton_layout(p.offsets, p.matches, p.mask, window)
    whole = kin.skeleton_layout(p.offsets, p.matches, p.mask, (slice(0, 64), slice(np.int64(0), 64, 1)))
    assert whole.at.tobytes() == kin.skeleton_layout(p.offsets, p.matches, p.mask).at.tobytes()


def test_skeleton_term_refuses_a_layout_of_other_priors(small_priors, hp):
    """A `SkeletonLayout` serves the offsets, match table and mask objects it
    was built from, and no others, equal ones included."""
    p = small_priors
    layout = kin.skeleton_layout(p.offsets, p.matches, p.mask)
    flow = FlowMap.zeros(p.mask.width, p.mask.height)
    for args in ((skel.SkeletonOffsets(p.offsets.vectors), p.matches, p.mask),
                 (p.offsets, p.matches.copy(), p.mask), (p.offsets, p.matches, SubjectMask(p.mask.labels))):
        with pytest.raises(ValidationError, match="skeleton layout was built from other"):
            kin.smooth_skeleton_constraint(flow, *args, hp, 0.1, layout=layout)


def test_surrogate_terms_take_only_their_own_layout(small_truth, small_priors, hp):
    """Each surrogate term takes as `layout` None or a layout of its own type,
    and gives the same value either way; a bare window or the other term's
    layout raises ValidationError. (A layout of other priors is refused by
    `test_skeleton_term_refuses_a_layout_of_other_priors` and
    `test_boundary.test_boundary_outside_raster_raises`.)"""
    p, flow = small_priors, small_truth.gt_world
    h, w = p.mask.labels.shape
    skeleton_layout = kin.skeleton_layout(p.offsets, p.matches, p.mask)
    soft_layout = bnd.soft_layout(p.boundary, hp, h, w)
    rows, cols = soft_layout.window

    def skeleton(layout, arr=flow.vectors):
        return kin.smooth_skeleton_constraint(FlowMap(arr), p.offsets, p.matches, p.mask, hp, 0.1, layout=layout)

    def soft(layout, arr=flow.vectors):
        return bnd.soft_boundary_constraint(FlowMap(arr), p.boundary, hp, 0.1, layout=layout)

    assert skeleton(skeleton_layout)[0] == skeleton(None)[0]
    assert soft(soft_layout, flow.vectors[rows, cols])[0] == soft(None)[0]
    for term, other in ((skeleton, soft_layout), (soft, skeleton_layout)):
        for layout in (other, (slice(0, h), slice(0, w))):
            with pytest.raises(ValidationError, match="layout must be a"):
                term(layout)


_TAU_LO, _TAU_HI = TAU_RANGE


@settings(max_examples=80)
@given(tau=st.one_of(
    st.sampled_from([np.inf, -np.inf, True, False, "0.5", None, 0, 0.0, -0.0, -0.5, -3, 5e-324, 2e-308,
                     np.nextafter(_TAU_LO, 0.0), np.nextafter(_TAU_HI, np.inf), 10 ** 60, 10 ** 400,
                     _TAU_LO, _TAU_HI, 1, 0.02, np.float64(0.5)]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(_TAU_LO, _TAU_HI),
))
@example(tau=np.nan)
def test_surrogate_terms_and_the_solver_take_tau_by_one_rule(small_truth, small_priors, tau):
    """Both surrogate terms and `SolverOptions` accept exactly the same tau:
    a finite number, not a bool, in `TAU_RANGE`. Every other value is
    refused with ValidationError, and an accepted one evaluates on the
    ground-truth flow without a floating-point warning."""
    p, hp, flow = small_priors, Hyperparams(), small_truth.gt_world

    def accepts(call) -> bool:
        try:
            call()
        except ValidationError:
            return False
        return True

    accepted = [accepts(lambda: flows.SolverOptions(tau_schedule=(tau,))),
                accepts(lambda: kin.smooth_skeleton_constraint(flow, p.offsets, p.matches, p.mask, hp, tau)[1]()),
                accepts(lambda: bnd.soft_boundary_constraint(flow, p.boundary, hp, tau)[1]())]
    rule = not isinstance(tau, (bool, str, type(None))) and _TAU_LO <= tau <= _TAU_HI
    assert accepted == [rule] * 3


@pytest.mark.parametrize("tau", TAU_RANGE)
@pytest.mark.filterwarnings("error")
def test_surrogate_terms_evaluate_at_both_ends_of_the_tau_range(small_truth, small_priors, hp, tau):
    """At either end of `TAU_RANGE` both terms give a finite value and
    gradient on the ground-truth flow, without a floating-point warning."""
    p, flow = small_priors, small_truth.gt_world
    for value, gradient in (kin.smooth_skeleton_constraint(flow, p.offsets, p.matches, p.mask, hp, tau),
                            bnd.soft_boundary_constraint(flow, p.boundary, hp, tau)):
        assert np.isfinite(value) and np.isfinite(gradient()).all()


def _arrays(obj):
    """Every numpy array among the fields of a layout, its plan's and its priors' included."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def test_a_solve_does_its_per_solve_work_once(small_truth, small_priors, hp, monkeypatch):
    """A 30-iteration solve (64 evaluations) checks its match table once for
    its skeleton layout and once for its hard objective, not once per
    evaluation, and every array of the layouts it builds is read-only."""
    checks, layouts = [], []
    for module, name, seen in ((kin, "_check_matches", checks), (kin, "skeleton_layout", layouts),
                               (bnd, "soft_layout", layouts)):
        def spy(*args, real=getattr(module, name), seen=seen):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(module, name, spy)
    zero = FlowMap.zeros(small_truth.mask_t.width, small_truth.mask_t.height)
    res = flows.solve_world_flow(zero, small_priors, hp, flows.SolverOptions(max_iters=30))
    assert len(res.trace) == 30
    assert len(checks) == 2
    # the solve's two layouts, then the hard skeleton term's own
    assert [type(layout) for layout in layouts] == [bnd.SoftLayout, kin.SkeletonLayout, kin.SkeletonLayout]
    arrays = list(_arrays(layouts))
    assert len(arrays) > 10 and not any(arr.flags.writeable for arr in arrays)


def test_sparse_solve_peaks_under_one_and_a_half_flows(hp):
    """A 12-iteration zero-init solve of the 512x512 sparse benchmark scene
    peaks at no more than 1.5 times one (512, 512, 2) flow: the descent runs
    on the solve box, and the only whole-raster array it writes is the result."""
    truth, priors = sparse_scene()
    zero = FlowMap.zeros(512, 512)
    opts = flows.SolverOptions(max_iters=12)
    flows.solve_world_flow(zero, priors, hp, opts)  # first call: lazy set-up outside the measure
    tracemalloc.start()
    try:
        res = flows.solve_world_flow(zero, priors, hp, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.trace) == 12
    assert peak <= 1.5 * zero.vectors.nbytes, f"{peak / 2**20:.2f} MB"


@settings(max_examples=300)
@given(arr=sparse_flow_arrays(), seed=st.integers(0, 2**32 - 1))
@example(arr=np.zeros((3, 4, 2)), seed=0).via("empty mask")
@example(arr=np.full((1, 6, 2), 1.0), seed=1).via("1 x N, the whole raster")
@example(arr=np.full((6, 1, 2), -2.0), seed=2).via("N x 1, the whole raster")
def test_endpoint_error_equals_the_full_raster_reference_bitwise(arr, seed):
    """Masked EPE on the subject's bounding box gives bitwise the mean and max
    of the whole raster's, and raises as it does on an empty mask; the
    unmasked EPE is unchanged. The subject is the drawn flow's pixels with a
    nonzero dx, so its box touches every border of some rasters."""
    pred = FlowMap(np.random.default_rng(seed).normal(0.0, 1.0, arr.shape))
    gt, mask = FlowMap(arr), SubjectMask((arr[..., 0] != 0).astype(np.int32))
    assert flows.endpoint_error(pred, gt) == full_raster_endpoint_error(pred, gt)
    if not mask.labels.any():
        for fn in (flows.endpoint_error, full_raster_endpoint_error):
            with pytest.raises(EmptySubject, match="mask selects no pixels"):
                fn(pred, gt, mask)
        return
    got, want = flows.endpoint_error(pred, gt, mask), full_raster_endpoint_error(pred, gt, mask)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_masked_endpoint_error_peak_memory_follows_the_subject():
    """On the 512x512 sparse benchmark scene (a subject on about 0.35 % of
    the pixels), masked EPE of the solved flow peaks under 1 MiB: it works
    on the subject's box, not on the raster."""
    truth, priors = sparse_scene()
    flow = sparse_solved_flow()
    tracemalloc.start()
    try:
        flows.endpoint_error(flow, truth.gt_world, priors.mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB"

import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlflow import flows, skeleton as skel, synth
from wlflow.core import FlowMap, Hyperparams, SubjectMask, Vec2
from wlflow.errors import DimensionMismatch, EmptySubject, ValidationError

from conftest import GradientLedger, eager_armijo_descent, full_raster_surrogate


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
    motions = flows.estimate_subject_motion(truth.gt_world, truth.mask_t, method="mask_mean")
    v = motions[1].vector
    assert abs(v.dx - 4.0) < 1e-6
    assert abs(v.dy - 2.0) < 1e-6


def test_estimate_subject_motion_static_subject():
    truth = synth.generate_scene(synth.SceneSpec(subjects=(synth.SubjectSpec(),)))
    motions = flows.estimate_subject_motion(truth.gt_world, truth.mask_t, method="mask_mean")
    assert motions[1].vector.dx == 0.0
    assert motions[1].vector.dy == 0.0


def test_estimate_subject_motion_empty_mask():
    with pytest.raises(EmptySubject):
        flows.estimate_subject_motion(
            FlowMap.zeros(8, 8), SubjectMask(np.zeros((8, 8), dtype=np.int32))
        )


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
    motions = flows.estimate_subject_motion(
        world_map, mask, {1: (k_t, k_t1)},
        method="alignment_field", align="head_anchor_similarity",
    )
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
    deco = flows.decompose_local(world, np.zeros(world.vectors.shape), mask)
    assert np.array_equal(deco.local.vectors, world.vectors)


def test_decompose_constant_case():
    labels = np.zeros((8, 8), dtype=np.int32)
    labels[2:6, 2:6] = 1
    mask = SubjectMask(labels)
    world = np.zeros((8, 8, 2))
    world[2:6, 2:6] = (3.0, 0.0)
    motions = {1: flows.SubjectMotion(1, "mask_mean", vector=Vec2(3.0, 0.0))}
    deco = flows.decompose_local(FlowMap(world), motions, mask)
    assert np.all(deco.local.vectors[2:6, 2:6] == 0.0)
    assert np.all(deco.local.vectors[labels == 0] == world[labels == 0])


def test_decompose_reconstruction_bitwise():
    rng = np.random.default_rng(3)
    labels = np.zeros((16, 16), dtype=np.int32)
    labels[3:12, 4:13] = 1
    mask = SubjectMask(labels)
    world = FlowMap(rng.normal(size=(16, 16, 2)) * 3)
    field = np.zeros((16, 16, 2))
    field[labels > 0] = rng.normal(size=2)
    deco = flows.decompose_local(world, field, mask)
    diff = world.vectors - deco.local.vectors
    assert np.array_equal(diff, deco.subject.vectors)
    # background untouched
    assert np.array_equal(deco.local.vectors[labels == 0], world.vectors[labels == 0])


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
    assert res.converged == eager.converged
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

    def counting(flow, boundary, hp, tau):
        calls[tau] += 1
        return soft(flow, boundary, hp, tau)

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
    assert not res.converged


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
    lo, hi = flows.TAU_RANGE
    flows.SolverOptions(tau_schedule=(lo, hi))
    for tau in (0.0, -0.5, lo / 2, hi * 2):
        with pytest.raises(ValidationError, match="tau_schedule entry must lie in"):
            flows.SolverOptions(tau_schedule=(0.5, tau))
    with pytest.raises(ValidationError):
        flows.SolverOptions(tolerance=0.0)


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
    """The invariant the active box rests on: with flow random on the subject
    and 0 elsewhere, the whole-raster surrogate gradient is +0.0 on every
    background pixel, bytes included, and so is the solver's."""
    truth, priors = _scene(seed)
    hp, opts = Hyperparams(), flows.SolverOptions()
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    scale = data.draw(st.sampled_from([1e-3, 0.5, 3.0, 40.0]))
    subject = truth.mask_t.labels > 0
    arr = np.zeros((truth.mask_t.height, truth.mask_t.width, 2))
    arr[subject] = rng.normal(0.0, scale, (int(subject.sum()), 2))
    for value, gradient in (full_raster_surrogate(arr, priors, hp, opts, tau),
                            flows._surrogate(arr, priors, hp, opts, tau, flows._active_box(arr, priors))):
        assert _is_plus_zero(gradient()[~subject])


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


def _solve_recording(monkeypatch, evaluator, init, priors, hp, opts):
    """Solve with `evaluator` standing in for `flows._surrogate`; also return every gradient it built."""
    grads = []

    def recording(arr, priors, hp, opts, tau, box):
        value, gradient = evaluator(arr, priors, hp, opts, tau, box)

        def recorded():
            grads.append(gradient())
            return grads[-1]

        return value, recorded

    with monkeypatch.context() as m:
        m.setattr(flows, "_surrogate", recording)
        return flows.solve_world_flow(init, priors, hp, opts), grads


@pytest.mark.parametrize("case", ["reference-zero", "corner-256", "refine", "background-patch"])
def test_active_box_solve_equals_full_raster(case, hp, monkeypatch):
    """Smoothness on the active box gives bitwise the gradients, iterates and
    flow of the whole-raster term; the surrogate
    values agree to 1e-12. A signed zero on the still background keeps its
    sign. An init that moves background pixels, everywhere (refine) or
    in one small patch that smoothness spreads, gets the whole raster."""
    if case == "corner-256":
        truth, priors = _corner_scene()
    else:
        truth, priors = _scene(None if case == "reference-zero" else 7)
    h, w = truth.mask_t.height, truth.mask_t.width
    init = np.zeros((h, w, 2))
    if case == "refine":
        init = truth.gt_world.vectors + np.random.default_rng(3).normal(0.0, 0.5, (h, w, 2))
    elif case == "background-patch":
        init[3:6, w - 6:w - 3] = (2.0, -1.0)
        assert (truth.mask_t.labels[3:6, w - 6:w - 3] == 0).all()
    else:
        init[h - 1, 0, 1] = -0.0
    box = flows._active_box(init, priors)
    covered = (box.index[0].stop - box.index[0].start) * (box.index[1].stop - box.index[1].start)
    if case in ("refine", "background-patch"):
        assert covered == h * w
    else:
        assert covered < h * w / (4 if case == "corner-256" else 2)

    opts = flows.SolverOptions(max_iters=30)
    res, grads = _solve_recording(monkeypatch, flows._surrogate, FlowMap(init), priors, hp, opts)
    ref, ref_grads = _solve_recording(
        monkeypatch, lambda *args: full_raster_surrogate(*args[:5]), FlowMap(init), priors, hp, opts,
    )
    assert res.flow.vectors.tobytes() == ref.flow.vectors.tobytes()
    assert len(grads) == len(ref_grads) > 3
    assert all(a.tobytes() == b.tobytes() for a, b in zip(grads, ref_grads))
    assert res.objective == ref.objective
    assert [t.surrogate for t in res.trace] == pytest.approx([t.surrogate for t in ref.trace], rel=1e-12)
    if case != "refine":  # refine's pixel holds nonzero noise, not a signed zero
        assert np.signbit(res.flow.vectors[h - 1, 0, 1]) == np.signbit(init[h - 1, 0, 1])


def test_surrogate_value_allocates_under_one_flow(hp):
    """On the 512x512 raster of the sparse benchmark scene, one value-only
    surrogate evaluation at zero flow allocates at most one (h, w, 2) flow:
    every term's gradient waits for the callable, and no term may build
    whole-raster temporaries."""
    truth = synth.generate_scene(synth.single_figure_scene(512, 512, root=(128 * 0.45, 128 * 0.55)))
    priors = flows.Priors.build(truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t)
    arr = np.zeros((512, 512, 2))
    box = flows._active_box(arr, priors)
    opts = flows.SolverOptions()
    flows._surrogate(arr, priors, hp, opts, 0.5, box)  # first call: lazy set-up outside the measure
    tracemalloc.start()
    try:
        flows._surrogate(arr, priors, hp, opts, 0.5, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arr.nbytes, f"{peak / 1e6:.1f} MB"

"""Acceptance suite: one test per criterion, each timed against its budget.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.
"""

import time

import numpy as np
import pytest

from wlflow import boundary as bnd
from wlflow import flows, io, kinematics as kin, skeleton as skel, synth
from wlflow.core import FlowMap, Hyperparams, KeypointFrame, PointSet, SubjectMask
from wlflow.errors import WlflowError

from conftest import make_circle, make_square


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.1f}s exceeds the {self.seconds}s budget"
            )
        return False


def test_criterion_1_constraint_arithmetic():
    with Budget(1.0) as b:
        hp = Hyperparams()
        assert (hp.alpha, hp.beta) == (0.1, 0.01)
        assert (hp.theta_a, hp.theta_il, hp.theta_ih) == (15.0, 0.8, 1.2)

        assert kin.intensity_term((2.0, 0.0), (1.0, 0.0), 0.8, 1.2) == pytest.approx(0.96)
        assert kin.intensity_term((0.5, 0.0), (1.0, 0.0), 0.8, 1.2) == pytest.approx(0.21)
        assert kin.intensity_term((1.0, 0.0), (1.0, 0.0), 0.8, 1.2) == 0.0

        assert kin.angular_term((1.0, 0.0), (1.0, 0.0), 15.0) == 0.0
        assert kin.angular_term((0.0, 1.0), (1.0, 0.0), 15.0) == 1.0
        inside = (np.cos(np.deg2rad(10)), np.sin(np.deg2rad(10)))
        assert kin.angular_term(inside, (1.0, 0.0), 15.0) == 0.0
        outside = (np.cos(np.deg2rad(20)), np.sin(np.deg2rad(20)))
        assert kin.angular_term(outside, (1.0, 0.0), 15.0) == 1.0
    print(f"\n[acceptance 1] constraint arithmetic exact, {b.elapsed:.2f}s")


def test_criterion_2_chamfer_oracles():
    with Budget(10.0) as b:
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = rng.uniform(0, 50, (30, 2))
            e = rng.uniform(0, 50, (30, 2))
            fast = bnd.exact_chamfer(PointSet(s), PointSet(e))
            dists = np.sqrt(((s[:, None, :] - e[None, :, :]) ** 2).sum(axis=2))
            slow = dists.min(axis=1).mean()
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

        # smooth pairs: gentle sine strokes offset along their normal, the
        # regime the per-cell smooth-distribution assumption addresses
        worst = 0.0
        for _ in range(50):
            t = np.linspace(0, 1, 200)
            x0, y0 = rng.uniform(8, 16, 2)
            x1, y1 = rng.uniform(48, 56, 2)
            amp = rng.uniform(1.0, 2.5)
            base = np.stack([x0 + (x1 - x0) * t,
                             y0 + (y1 - y0) * t + amp * np.sin(2 * np.pi * t)], axis=1)
            tang = np.gradient(base, axis=0)
            tang /= np.linalg.norm(tang, axis=1, keepdims=True)
            normal = np.stack([-tang[:, 1], tang[:, 0]], axis=1)
            other = np.clip(base + normal * rng.uniform(1.5, 2.5), 0, 63.99)
            s_set, e_set = PointSet(base), PointSet(other)
            exact = bnd.exact_chamfer(s_set, e_set)
            grid = bnd.build_patch_grid(s_set, e_set, 8, 64, 64)
            approx = bnd.patch_centroid_distance(grid).value
            worst = max(worst, abs(approx - exact) / exact)
        assert worst < 0.20

        ys = np.arange(8.0, 24.0)
        seg_a = PointSet(np.stack([np.full(16, 12.0), ys], axis=1))
        seg_b = PointSet(np.stack([np.full(16, 15.0), ys], axis=1))
        grid = bnd.build_patch_grid(seg_a, seg_b, 8, 32, 32)
        assert bnd.patch_centroid_distance(grid).value == 3.0
    print(f"\n[acceptance 2] chamfer oracle equivalence (worst patch gap {worst:.1%}), {b.elapsed:.2f}s")


def test_criterion_3_gradient_checks(small_truth, small_priors):
    hp = Hyperparams()
    with Budget(30.0) as b:
        rng = np.random.default_rng(0)
        base = small_truth.gt_world.vectors + rng.normal(0, 0.7, small_truth.gt_world.vectors.shape)
        tau = 0.1
        h = 1e-4
        n = base.shape[0]

        _, f_grad = kin.smooth_skeleton_constraint(
            FlowMap(base), small_priors.offsets, small_priors.matches,
            small_truth.mask_t, hp, tau,
        )
        worst_f = 0.0
        coords = list(zip(rng.integers(0, n, 200), rng.integers(0, n, 200), rng.integers(0, 2, 200)))
        for y, x, c in coords:
            plus, minus = base.copy(), base.copy()
            plus[y, x, c] += h
            minus[y, x, c] -= h
            vp, _ = kin.smooth_skeleton_constraint(
                FlowMap(plus), small_priors.offsets, small_priors.matches,
                small_truth.mask_t, hp, tau)
            vm, _ = kin.smooth_skeleton_constraint(
                FlowMap(minus), small_priors.offsets, small_priors.matches,
                small_truth.mask_t, hp, tau)
            fd = (vp - vm) / (2 * h)
            denom = max(abs(fd), abs(f_grad[y, x, c]), 1e-8)
            worst_f = max(worst_f, abs(fd - f_grad[y, x, c]) / denom)
        assert worst_f < 1e-4

        _, g_backward = bnd.soft_boundary_constraint(FlowMap(base), small_priors.boundary, hp, tau)
        g_grad = g_backward()
        worst_g = 0.0
        for y, x, c in coords:
            plus, minus = base.copy(), base.copy()
            plus[y, x, c] += h
            minus[y, x, c] -= h
            vp, _ = bnd.soft_boundary_constraint(FlowMap(plus), small_priors.boundary, hp, tau)
            vm, _ = bnd.soft_boundary_constraint(FlowMap(minus), small_priors.boundary, hp, tau)
            fd = (vp - vm) / (2 * h)
            denom = max(abs(fd), abs(g_grad[y, x, c]), 1e-8)
            worst_g = max(worst_g, abs(fd - g_grad[y, x, c]) / denom)
        assert worst_g < 1e-3
    print(f"\n[acceptance 3] gradients: F {worst_f:.1e}, G {worst_g:.1e}, {b.elapsed:.1f}s")


def test_criterion_4_ground_truth_consistency():
    hp = Hyperparams()
    with Budget(20.0) as b:
        worst_f = worst_g = 0.0
        for seed in range(10):
            truth = synth.generate_scene(synth.random_scene(seed))
            priors = flows.Priors.build(
                truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t
            )
            ob = flows.joint_objective(truth.gt_world, priors, hp)
            assert ob.f <= 0.02
            assert ob.g <= 1.5
            diff = truth.gt_world.vectors - truth.gt_local.vectors
            assert np.array_equal(diff, truth.gt_subject_field.vectors)
            worst_f = max(worst_f, ob.f)
            worst_g = max(worst_g, ob.g)
    print(f"\n[acceptance 4] GT consistency on 10 scenes (F<={worst_f:.4f}, G<={worst_g:.2f}), {b.elapsed:.1f}s")


def test_criterion_5_solver_efficacy(reference_truth, reference_priors):
    hp = Hyperparams()
    with Budget(300.0) as b:
        h, w = reference_truth.mask_t.height, reference_truth.mask_t.width
        zero = FlowMap.zeros(w, h)
        baseline, _ = flows.endpoint_error(zero, reference_truth.gt_world, reference_truth.mask_t)
        opts = flows.SolverOptions(max_iters=500)

        res = flows.solve_world_flow(zero, reference_priors, hp, opts)
        again = flows.solve_world_flow(zero, reference_priors, hp, opts)
        assert len(res.trace) <= 500

        solved, _ = flows.endpoint_error(res.flow, reference_truth.gt_world, reference_truth.mask_t)
        assert solved <= 0.5 * baseline

        for a, b_entry in zip(res.trace, res.trace[1:]):
            if a.tau == b_entry.tau:
                assert b_entry.surrogate <= a.surrogate + 1e-12

        assert np.array_equal(res.flow.vectors, again.flow.vectors)
    print(f"\n[acceptance 5] solver EPE {baseline:.2f}->{solved:.2f} "
          f"({100 * (1 - solved / baseline):.0f}% reduction), bitwise on repeat, {b.elapsed:.0f}s")


def test_criterion_6_alignment_recovery():
    hp = Hyperparams()
    with Budget(10.0) as b:
        rng = np.random.default_rng(2)
        joints = np.ones((17, 3))
        joints[:, 0] = rng.uniform(20, 80, 17)
        joints[:, 1] = rng.uniform(20, 80, 17)
        k_t = skel.interpolate_skeleton(joints)

        h_true = np.array([[1.02, 0.03, 2.0], [-0.01, 0.98, -1.5], [1e-4, -2e-4, 1.0]])
        hp_pts = np.hstack([k_t.xy, np.ones((210, 1))]) @ np.linalg.inv(h_true).T
        warped = np.ones((210, 3))
        warped[:, :2] = hp_pts[:, :2] / hp_pts[:, 2:3]
        k_t1 = skel.SkeletonMap(warped)
        t = skel.fit_alignment(k_t, k_t1, "full_body_homography")
        reproj = np.hypot(*(t.apply(k_t1.xy) - k_t.xy).T).max()
        assert reproj < 1e-3

        head = joints[:5, :2].mean(axis=0)
        ang = np.deg2rad(30)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        j2 = joints.copy()
        j2[:, :2] = (joints[:, :2] - head) @ rot.T + head
        t2 = skel.fit_alignment(k_t, skel.interpolate_skeleton(j2), "head_anchor_similarity")
        m = t2.matrix[:2, :2]
        recovered = np.arctan2(m[1, 0], m[0, 0])
        assert abs(recovered + ang) < 1e-6

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
            truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t
        )
        f_aligned = flows.joint_objective(truth.gt_local, aligned, hp).f
        f_raw = flows.joint_objective(truth.gt_local, raw, hp).f
        assert f_aligned <= f_raw
    print(f"\n[acceptance 6] alignment: reproj {reproj:.1e}px, rotation exact, "
          f"F'({f_aligned:.4f}) <= F({f_raw:.4f}), {b.elapsed:.1f}s")


def test_criterion_7_morph_experiment():
    with Budget(120.0) as b:
        radius = 20.0
        moving = PointSet(make_circle(radius=radius))
        target = PointSet(make_square(side=np.pi * radius / 2))
        before = bnd.exact_chamfer(moving, target)
        res = bnd.morph_curve_fit(moving, target, bnd.MorphOptions(width=96, height=96))
        after = bnd.exact_chamfer(res.moved, target)
        assert after <= 0.2 * before
    print(f"\n[acceptance 7] morph chamfer {before:.2f}->{after:.2f} "
          f"({100 * (1 - after / before):.0f}% reduction), {b.elapsed:.1f}s")


def test_criterion_8_io_roundtrips_and_fuzz(tmp_path):
    with Budget(30.0) as b:
        rng = np.random.default_rng(9)

        arr = rng.normal(size=(12, 10, 2)).astype(np.float32).astype(np.float64)
        flo = tmp_path / "a.flo"
        io.write_flo(flo, FlowMap(arr))
        assert np.array_equal(io.read_flo(flo).vectors, arr)

        labels = np.zeros((9, 7), dtype=np.int32)
        labels[2:5, 2:5] = 1
        pgm = tmp_path / "a.pgm"
        io.write_mask(pgm, SubjectMask(labels))
        assert np.array_equal(io.read_mask(pgm).labels, labels)

        person = np.zeros((17, 3))
        person[:, 0] = rng.uniform(0, 50, 17)
        person[:, 1] = rng.uniform(0, 50, 17)
        person[:, 2] = rng.uniform(0, 1, 17)
        kp = tmp_path / "a.json"
        io.write_keypoints(kp, [KeypointFrame((person,))])
        assert np.array_equal(io.read_keypoints(kp)[0].persons[0], person)

        seeds = [
            (bytearray(flo.read_bytes()), io.read_flo, "flo"),
            (bytearray(pgm.read_bytes()), io.read_mask, "pgm"),
            (bytearray(kp.read_bytes()), io.read_keypoints, "json"),
        ]
        crashes = 0
        for i in range(1000):
            seed_bytes, reader, ext = seeds[i % 3]
            mutated = bytearray(seed_bytes)
            if rng.random() < 0.5 and len(mutated) > 1:
                mutated = mutated[: rng.integers(0, len(mutated))]
            else:
                for _ in range(rng.integers(1, 4)):
                    mutated[rng.integers(0, len(mutated))] = rng.integers(0, 256)
            target = tmp_path / f"fuzz_{i}.{ext}"
            target.write_bytes(bytes(mutated))
            try:
                reader(target)
            except WlflowError:
                pass
            except Exception:
                crashes += 1
        assert crashes == 0
    print(f"\n[acceptance 8] round-trips bitwise, 1000 fuzz mutations all typed, {b.elapsed:.1f}s")

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from wlflow import boundary as bnd
from wlflow import flows, synth
from wlflow import skeleton as skel
from wlflow.core import (EPS_VEC, FlowMap, Hyperparams, PointSet, _dcos, _sigmoid, _soft_angle,
                         armijo_descent, validate_pairing)
from wlflow.errors import DimensionMismatch, EmptySubject

# Property tests draw the same examples on every run and have no time limit.
settings.register_profile("wlflow", derandomize=True, deadline=None)
settings.load_profile("wlflow")


@pytest.fixture(scope="session")
def reference_truth():
    """The 128x128 single-subject walking scene used throughout."""
    return synth.generate_scene(synth.single_figure_scene())


@pytest.fixture(scope="session")
def reference_priors(reference_truth):
    t = reference_truth
    return flows.Priors.build(t.keypoints[0], t.keypoints[1], t.mask_t, t.boundary_t)


@pytest.fixture(scope="session")
def small_truth():
    """Compact 64x64 scene for gradient checks and oracles."""
    return synth.generate_scene(synth.random_scene(3, 64, 64, length_scale=0.55))


@pytest.fixture(scope="session")
def small_priors(small_truth):
    t = small_truth
    return flows.Priors.build(t.keypoints[0], t.keypoints[1], t.mask_t, t.boundary_t)


@pytest.fixture()
def hp():
    return Hyperparams()


def two_figure_spec():
    """Two smaller figures side by side on a 128x96 raster, moving apart."""
    w, h, scale = 128, 96, 0.7
    left = synth.single_figure_scene(w, h, translation=(3.0, 1.0), root=(0.3 * w, 0.55 * h),
                                     length_scale=scale).subjects[0]
    right = synth.single_figure_scene(w, h, translation=(-2.5, 0.5), arm_swing=-0.2, leg_swing=0.15,
                                      root=(0.7 * w, 0.55 * h), length_scale=scale).subjects[0]
    return synth.SceneSpec(width=w, height=h, subjects=(left, right))


def make_circle(center=(48.0, 48.0), radius=20.0, n=400):
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.stack([center[0] + radius * np.cos(theta),
                     center[1] + radius * np.sin(theta)], axis=1)


def make_square(center=(48.0, 48.0), side=10.0, n=400):
    t = np.linspace(0, 4, n, endpoint=False)
    pts = []
    half = side / 2
    for tt in t:
        k = int(tt)
        f = tt - k
        if k == 0:
            p = (-half + f * side, -half)
        elif k == 1:
            p = (half, -half + f * side)
        elif k == 2:
            p = (half - f * side, half)
        else:
            p = (-half, half - f * side)
        pts.append((center[0] + p[0], center[1] + p[1]))
    return np.asarray(pts)


@lru_cache(maxsize=None)
def sparse_scene():
    """The sparse benchmark's figure at its 128x128 reference position on a 512x512 raster."""
    truth = synth.generate_scene(synth.single_figure_scene(512, 512, root=(128 * 0.45, 128 * 0.55)))
    return truth, flows.Priors.build(truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t)


@lru_cache(maxsize=None)
def sparse_solved_flow():
    """The 12-iteration zero-init solve of `sparse_scene`, as the benchmark runs it:
    a 512x512 flow that moves on about 0.35 % of its pixels."""
    truth, priors = sparse_scene()
    zero = FlowMap.zeros(truth.mask_t.width, truth.mask_t.height)
    return flows.solve_world_flow(zero, priors, Hyperparams(), flows.SolverOptions(max_iters=12)).flow


# Entries of a drawn flow: signed zeros, magnitudes below EPS_VEC, and values
# either side of the edge thresholds.
_FLOW_ENTRIES = np.array([0.0, -0.0, 0.0, 4e-7, -3e-7, 0.3, -0.45, 1.0, -1.5, 2.25])


@st.composite
def sparse_flow_arrays(draw, max_side=14):
    """An (h, w, 2) flow that is zero outside a random sub-box (1 x N and
    N x 1 rasters included). Inside, entries come from `_FLOW_ENTRIES`, from
    N(0, 1) or from both; a sub-box of zeros gives an all-zero flow."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    y1, x1 = draw(st.integers(y0 + 1, h)), draw(st.integers(x0 + 1, w))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (y1 - y0, x1 - x0, 2)
    kind = draw(st.sampled_from(["entries", "normal", "mixed", "zero"]))
    arr = np.zeros((h, w, 2))
    if kind != "zero":
        box = rng.choice(_FLOW_ENTRIES, shape) if kind != "normal" else rng.normal(0.0, 1.0, shape)
        if kind == "mixed":
            box = np.where(rng.random(shape) < 0.5, box, rng.normal(0.0, 1.0, shape))
        arr[y0:y1, x0:x1] = box
    return arr


def full_raster_edges(arr, hp):
    """Reference copy of `boundary.extract_flow_edges` as it ran on the whole
    raster: every neighbor pair scored, whether its pixels move or not."""
    h, w = arr.shape[:2]
    mx, my = arr[..., 0], arr[..., 1]
    r = np.hypot(mx, my)

    intensity = np.zeros((h, w), dtype=bool)
    angular = np.zeros((h, w), dtype=bool)
    cos_lim = np.cos(np.deg2rad(hp.edge_theta_a))
    moving = r >= EPS_VEC
    for dy, dx in bnd._NEIGHBORS[:4]:
        i, j = bnd._pair_slices(dy, dx, h, w)
        hit_i = np.abs(r[i] - r[j]) >= hp.edge_theta_i
        with np.errstate(invalid="ignore"):
            cos = (mx[i] * mx[j] + my[i] * my[j]) / (r[i] * r[j])
        hit_a = moving[i] & moving[j] & (cos <= cos_lim)
        for at in (i, j):
            intensity[at] |= hit_i
            angular[at] |= hit_a

    def to_points(mask2d):
        ys, xs = np.nonzero(mask2d)
        return PointSet(np.stack([xs, ys], axis=1).astype(np.float64))

    return bnd.EdgeMap(intensity_edges=to_points(intensity), angular_edges=to_points(angular),
                       union=to_points(intensity | angular))


def full_raster_endpoint_error(pred, gt, mask=None):
    """Reference copy of `flows.endpoint_error` as it ran on the whole raster,
    masked or not."""
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise DimensionMismatch(
            f"flows differ in size: {pred.width}x{pred.height} vs {gt.width}x{gt.height}"
        )
    diff = pred.vectors - gt.vectors
    err = np.hypot(diff[..., 0], diff[..., 1])
    if mask is not None:
        validate_pairing(pred, mask)
        err = err[mask.labels > 0]
        if err.size == 0:
            raise EmptySubject("mask selects no pixels")
    return float(err.mean()), float(err.max())


def eager_armijo_descent(fn, x, value, grad, eta, max_steps, tolerance, on_step):
    """Reference copy of `core.armijo_descent` as it ran before gradients were
    deferred: every trial builds its gradient, accepted or not. Its stopping
    rules and stop reasons are `armijo_descent`'s."""
    for _ in range(max_steps):
        gnorm2 = float((grad ** 2).sum())
        if gnorm2 == 0.0:
            return x, "zero_gradient"
        step = eta
        for _ in range(40):
            cand = x - step * grad
            v_new, gradient = fn(cand)
            g_new = gradient()
            if v_new <= value - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        else:
            return x, "line_search" if math.isfinite(v_new) else "overflow"
        delta = float(np.abs(cand - x).max())
        x, value, grad = cand, v_new, g_new
        on_step(x, value, step)
        eta = step * 2.0
        if delta < tolerance:
            return x, "tolerance"
    return x, "budget"


def full_raster_distances(joints, h, w):
    """Distance of every pixel of an h x w raster to each bone segment of
    `joints`, shape (n_bones, h, w): the distance stack that `synth` once
    built, with the projection on the segment written elementwise, as
    `synth._rasterize` writes it."""
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    out = np.empty((len(synth.DEFAULT_BONES), h, w))
    for bi, (a_idx, b_idx) in enumerate(synth.DEFAULT_BONES):
        a, b = joints[a_idx], joints[b_idx]
        ab = b - a
        denom = float(ab @ ab)
        if denom < 1e-12:
            cx, cy = a[0], a[1]
        else:
            t = np.clip(((xs - a[0]) * ab[0] + (ys - a[1]) * ab[1]) / denom, 0.0, 1.0)
            cx, cy = a[0] + t * ab[0], a[1] + t * ab[1]
        out[bi] = np.hypot(xs - cx, ys - cy)
    return out


def full_raster_rasterize(spec):
    """Reference copy of `synth.generate_scene`'s per-subject rasterization as
    it ran on the whole raster: every bone scored on every pixel, the nearest
    capsule holding a pixel governing it (`argmin`, the lowest bone on ties).
    Returns the labels at t, both frames, and the ground-truth world and
    local flows, the last taken over the whole raster from a subject-motion
    plane as `generate_scene` once took it."""
    w, h = spec.width, spec.height
    labels = np.zeros((h, w), dtype=np.int32)
    frames = np.zeros((2, h, w), dtype=np.uint8)
    world = np.zeros((h, w, 2))
    world[..., 0] = spec.camera_motion.dx
    world[..., 1] = spec.camera_motion.dy
    subject_field = np.zeros((h, w, 2))
    for label, sub in enumerate(spec.subjects, start=1):
        j0, j1 = synth._figure_joints(sub, 0), synth._figure_joints(sub, 1)
        radii = np.asarray(sub.capsule_radii)
        for frame, joints in enumerate((j0, j1)):
            dists = full_raster_distances(joints, h, w)
            inside = dists <= radii[:, None, None]
            body = inside.any(axis=0)
            governing = np.argmin(np.where(inside, dists, np.inf), axis=0)
            frames[frame][body] = (70 + 12 * governing[body]).astype(np.uint8)
            if frame == 1:
                continue
            labels[body] = label
            subject_field[body] = np.asarray(sub.root_t1) - np.asarray(sub.root_t)
            ys, xs = np.nonzero(body)
            p = np.stack([xs, ys], axis=1).astype(np.float64)
            for bi, bone in enumerate(synth.DEFAULT_BONES):
                a0, a1, rot = synth._bone_motion(j0, j1, bone)
                sel = governing[ys, xs] == bi
                world[ys[sel], xs[sel]] = (p[sel] - a0) @ rot.T + a1 - p[sel]
    return labels, frames, world, world - subject_field


def loop_match_all(skeletons, mask):
    """Reference copy of `skeleton.match_all` as a loop: `match_body_point`
    at every subject pixel against its subject's skeleton, offset by the
    points of the skeletons of lower labels."""
    out = np.full(mask.labels.shape, -1, dtype=np.int32)
    base, n = {}, 0
    for lab in sorted(skeletons):
        base[lab] = n
        n += skeletons[lab].points.shape[0]
    for y, x in zip(*np.nonzero(mask.labels)):
        lab = int(mask.labels[y, x])
        out[y, x] = base[lab] + skel.match_body_point((float(x), float(y)), skeletons[lab], mask)
    return out


def full_raster_surrogate(arr, priors, hp, opts, tau, active=None):
    """Reference copy of `flows._surrogate` as it ran before smoothness moved
    onto the active box: it runs on the whole raster and rebuilds its masks at
    every evaluation.

    With `active`, the rows and columns of the active box, the smoothness
    value sums only the pairs inside it, in the order the solver sums them
    (a whole-raster sum adds more zeros in another grouping and can differ
    in the last bit); every gradient is still the whole raster's."""
    flow = FlowMap(arr)
    f_val, f_grad = flows.kin.smooth_skeleton_constraint(
        flow, priors.offsets, priors.matches, priors.mask, hp, tau
    )
    g_val, g_backward = flows.bnd.soft_boundary_constraint(flow, priors.boundary, hp, tau)
    labels = priors.mask.labels
    h, w = arr.shape[:2]
    same_x = (labels[:, 1:] == labels[:, :-1])[..., None]
    same_y = (labels[1:, :] == labels[:-1, :])[..., None]
    dx = (arr[:, 1:, :] - arr[:, :-1, :]) * same_x
    dy = (arr[1:, :, :] - arr[:-1, :, :]) * same_y
    s_dx, s_dy = dx, dy
    if active is not None:
        rows, cols = active
        s_dx = np.ascontiguousarray(dx[rows, cols.start:cols.stop - 1])
        s_dy = np.ascontiguousarray(dy[rows.start:rows.stop - 1, cols])
    s_val = float((s_dx ** 2).sum() + (s_dy ** 2).sum()) / (h * w)
    value = f_val + hp.alpha * g_val + opts.smoothness_weight * s_val

    def gradient():
        s_grad = np.zeros_like(arr)
        s_grad[:, 1:, :] += 2.0 * dx
        s_grad[:, :-1, :] -= 2.0 * dx
        s_grad[1:, :, :] += 2.0 * dy
        s_grad[:-1, :, :] -= 2.0 * dy
        total = f_grad() + hp.alpha * g_backward()
        total += opts.smoothness_weight * (s_grad / (h * w))
        return total

    return value, gradient


def full_raster_descent(init, priors, hp, opts):
    """Reference copy of `flows.solve_world_flow`'s descent as it ran on the
    whole raster: `armijo_descent` on `full_raster_surrogate` from the whole
    init, phase by phase, with smoothness values summed over the init's
    active box. Returns the flow, the trace as (iteration, tau, step,
    surrogate) tuples, each phase's stop reason, every gradient built, and
    the surrogate at each accepted iterate with smoothness summed over the
    whole raster, which does not go through the active box."""
    x, trace, stops, grads, whole_values = init, [], [], [], []
    active = flows._plane_box(flows._free_pixels(init, priors), 1)
    iters_per_phase = -(-opts.max_iters // len(opts.tau_schedule))
    for tau in opts.tau_schedule:
        budget = min(iters_per_phase, opts.max_iters - len(trace))
        if budget == 0:
            stops.append("budget")
            continue

        def surrogate(arr, tau=tau):
            value, gradient = full_raster_surrogate(arr, priors, hp, opts, tau, active)

            def recorded():
                grads.append(gradient())
                return grads[-1]

            return value, recorded

        def record(arr, value, step, tau=tau):
            trace.append((len(trace) + 1, tau, step, value))
            whole_values.append(full_raster_surrogate(arr, priors, hp, opts, tau)[0])

        value, gradient = surrogate(x)
        grad = gradient()
        gmax = float(np.abs(grad).max())
        eta = 1.0 / gmax if gmax > 0 else 1.0
        x, stop = armijo_descent(surrogate, x, value, grad, eta, budget, opts.tolerance, record)
        stops.append(stop)
    return x, trace, stops, grads, whole_values


def loop_bilinear_corners(u, v, gw, gh, du=1.0):
    """Reference copy of `boundary._bilinear_corners` as it ran with a loop
    over the 4 corners. Returns (nodes, weights, dw/dx, dw/dy), each (n, 4)."""
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    tx = u - i0
    ty = v - j0
    corners = []
    for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
        ci, cj = i0 + di, j0 + dj
        wx, gx = (tx, du) if di else (1.0 - tx, -du)
        wy, gy = (ty, du) if dj else (1.0 - ty, -du)
        ok = (ci >= 0) & (ci < gw) & (cj >= 0) & (cj < gh)
        corners.append((np.where(ok, cj * gw + ci, 0), np.where(ok, wx * wy, 0.0),
                        np.where(ok, gx * wy, 0.0), np.where(ok, wx * gy, 0.0)))
    return tuple(np.stack(column, axis=1) for column in zip(*corners))


def per_scale_soft_centroids(mass, sx, sy, present, tx, ty, floor):
    """Reference copy of `boundary._soft_centroids` as it ran once per scale,
    on every cell of the scale's grid: from the per-cell sums and the
    target's `present` cells and centroids, None if no cell enters, else the
    mean distance and the per-cell arrays `coeff, cx, cy, ex, ey`."""
    include = (mass > floor) & present
    n_inc = int(include.sum())
    if n_inc == 0:
        return None
    safe_m = np.where(include, mass, 1.0)
    cx = np.where(include, sx / safe_m, 0.0)
    cy = np.where(include, sy / safe_m, 0.0)
    ex = np.where(include, cx - tx, 0.0)
    ey = np.where(include, cy - ty, 0.0)
    d = np.hypot(ex, ey)
    safe_d = np.where(d > 1e-12, d, 1.0)
    coeff = np.where(include & (d > 1e-12), 1.0 / (n_inc * safe_d * safe_m), 0.0)
    return float(d[include].mean()), coeff, cx, cy, ex, ey


def per_slot_soft_boundary(flow, boundary, hp, tau):
    """Reference copy of `boundary.soft_boundary_constraint` as it ran with a
    loop over the 8 neighbor slots: a running max with a strict > picks each
    pixel's slot, and the backward pass adds each slot's terms with masked
    in-place adds. Returns (value, backward); inputs are not validated."""
    rows, cols = bnd._boundary_window(boundary.points, hp.scales, flow.height, flow.width)
    m = flow.vectors[rows, cols]
    h, wd = m.shape[:2]

    r = np.hypot(m[..., 0], m[..., 1])
    s = EPS_VEC + tau
    s2 = s * s
    du = np.sqrt(r * r + s2)
    wu = (r * r) / (r * r + s2)
    pairs = []
    for dy, dx in bnd._NEIGHBORS[:4]:
        i, j = bnd._pair_slices(dy, dx, h, wd)
        b = _sigmoid((np.abs(r[i] - r[j]) - hp.edge_theta_i) / tau)
        siga, cosfac = _soft_angle((m[i] * m[j]).sum(axis=-1) / (du[i] * du[j]), hp.edge_theta_a, tau)
        g = wu[i] * wu[j]
        pairs.append((b, g * siga, g, siga, cosfac))

    ni = np.zeros((h, wd), dtype=np.intp)
    na = np.zeros((h, wd), dtype=np.intp)
    wi = np.zeros((h, wd))
    wa = np.zeros((h, wd))
    for n, (dy, dx) in enumerate(bnd._NEIGHBORS):
        at = bnd._pair_slices(dy, dx, h, wd)[0]
        b, a = pairs[min(n, 7 - n)][:2]
        for best, arg, val in ((wi, ni, b), (wa, na, a)):
            win = val > best[at]
            np.copyto(best[at], val, where=win)
            np.copyto(arg[at], n, where=win)
    w = 1.0 - (1.0 - wi) * (1.0 - wa)

    dvdw_total = np.zeros((h, wd))
    value = 0.0
    scales = hp.scales
    ys, xs = np.mgrid[rows, cols]
    for scale in map(int, scales):
        gh, gw = -(-flow.height // scale), -(-flow.width // scale)
        e_counts, e_centroids = bnd._bin_points(boundary.points, scale, gh, gw)
        cid = (ys // scale) * gw + (xs // scale)
        core = per_scale_soft_centroids(*bnd._cell_sums(cid, xs, ys, gh * gw, w), e_counts.ravel() > 0,
                                        e_centroids[..., 0].ravel(), e_centroids[..., 1].ravel(), bnd._MASS_FLOOR)
        if core is None:
            continue
        v_s, coeff, cx, cy, ex, ey = core
        value += v_s / len(scales)
        dvdw_total += coeff[cid] * ((xs - cx[cid]) * ex[cid] + (ys - cy[cid]) * ey[cid]) / len(scales)

    def backward():
        grad_full = np.zeros(flow.vectors.shape)
        grad = grad_full[rows, cols]
        grad_r = np.zeros((h, wd))
        dwdwi = dvdw_total * (1.0 - wa)
        dwdwa = dvdw_total * (1.0 - wi)
        dwu_dr = 2.0 * r * s2 / (r * r + s2) ** 2
        live = dvdw_total != 0
        for n, (dy, dx) in enumerate(bnd._NEIGHBORS):
            i, j = bnd._pair_slices(dy, dx, h, wd)
            _, _, g, siga, cosfac = pairs[min(n, 7 - n)]

            sel = live[i] & (ni[i] == n)
            b = wi[i][sel]
            common = dwdwi[i][sel] * b * (1.0 - b) / tau * np.sign(r[i][sel] - r[j][sel])
            grad_r[i][sel] += common
            grad_r[j][sel] -= common

            sel = live[i] & (na[i] == n) & (g > 0)
            mi, mj = m[i][sel], m[j][sel]
            dui, duj = du[i][sel], du[j][sel]
            wui, wuj = wu[i][sel], wu[j][sel]
            siga_n = siga[sel]
            common = dwdwa[i][sel]
            grad_r[i][sel] += common * siga_n * wuj * dwu_dr[i][sel]
            grad_r[j][sel] += common * siga_n * wui * dwu_dr[j][sel]

            dot = (mi * mj).sum(axis=1)
            factor = common * g[sel] * cosfac[sel]
            grad[i][sel] += factor[:, None] * _dcos(mi, mj, dui, duj, dot)
            grad[j][sel] += factor[:, None] * _dcos(mj, mi, duj, dui, dot)

        safe_r = np.where(r > 0, r, 1.0)
        grad += (grad_r / safe_r)[..., None] * m
        return grad_full

    return value, backward


class GradientLedger:
    """Spies on `module.evaluator`, which returns (value, gradient callable),
    and on `module.armijo_descent`: counts every gradient call, and records
    per line-search trial its candidate and gradient calls, and the
    candidates the line search accepted."""

    def __init__(self, monkeypatch, module, evaluator: str):
        self.calls = 0
        self.descents = 0
        self.trials = []  # [candidate, gradient calls] per trial
        self.accepted = []
        real_eval, real_descent = getattr(module, evaluator), module.armijo_descent

        def counting(*args):
            value, gradient = real_eval(*args)

            def counted():
                self.calls += 1
                return gradient()

            return value, counted

        def spied_descent(fn, x, value, grad, eta, max_steps, tolerance, on_step):
            self.descents += 1

            def trial(cand):
                value, gradient = fn(cand)
                record = [cand, 0]
                self.trials.append(record)

                def counted():
                    record[1] += 1
                    return gradient()

                return value, counted

            def accept(x, value, step):
                self.accepted.append(x)
                on_step(x, value, step)

            return real_descent(trial, x, value, grad, eta, max_steps, tolerance, accept)

        monkeypatch.setattr(module, evaluator, counting)
        monkeypatch.setattr(module, "armijo_descent", spied_descent)

    def check(self) -> None:
        """Each accepted trial called its gradient once and no rejected one did;
        all gradient calls are those plus one at the start of each descent."""
        was_accepted = [any(cand is x for x in self.accepted) for cand, _ in self.trials]
        assert 0 < sum(was_accepted) < len(self.trials)
        assert [calls for _, calls in self.trials] == [int(a) for a in was_accepted]
        assert self.calls == len(self.accepted) + self.descents

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wlflow import boundary as bnd
from wlflow.core import EPS_VEC, FlowMap, Hyperparams, PointSet, Vec2, _sigmoid
from wlflow.errors import EmptyPointSet, ValidationError

from conftest import make_circle


def test_uniform_flow_has_no_edges(hp):
    flow = FlowMap.constant(32, 32, Vec2(2.0, -1.0))
    edges = bnd.extract_flow_edges(flow, hp)
    assert len(edges.union) == 0
    assert len(edges.intensity_edges) == 0
    assert len(edges.angular_edges) == 0


def test_step_edge_yields_two_columns():
    arr = np.zeros((64, 64, 2))
    arr[:, :32, 0] = 5.0
    edges = bnd.extract_flow_edges(FlowMap(arr), Hyperparams(edge_theta_i=1.0))
    xs = sorted(set(edges.intensity_edges.points[:, 0]))
    assert xs == [31.0, 32.0]
    assert len(edges.intensity_edges) == 2 * 64
    assert len(edges.angular_edges) == 0  # one side is static


def test_angular_edge_between_equal_speed_regions(hp):
    arr = np.zeros((32, 32, 2))
    arr[:, :16] = (3.0, 0.0)
    arr[:, 16:] = (0.0, 3.0)
    edges = bnd.extract_flow_edges(FlowMap(arr), hp)
    assert len(edges.intensity_edges) == 0  # equal norms
    xs = sorted(set(edges.angular_edges.points[:, 0]))
    assert xs == [15.0, 16.0]
    # oracle: per-pixel definition
    for x, y in [(15, 5), (16, 20)]:
        u = arr[y, x]
        found = False
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == dy == 0:
                    continue
                ny, nx = y + dy, x + dx
                if not (0 <= ny < 32 and 0 <= nx < 32):
                    continue
                v = arr[ny, nx]
                nu, nv = np.hypot(*u), np.hypot(*v)
                if nu < 1e-6 or nv < 1e-6:
                    continue
                ang = np.degrees(np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1, 1)))
                if ang >= hp.edge_theta_a:
                    found = True
        assert found


def test_angular_edges_invariant_to_global_translation(hp):
    rng = np.random.default_rng(4)
    arr = rng.normal(3, 0.1, (24, 24, 2)) * np.where(rng.random((24, 24, 1)) > 0.5, 1, -1)
    e1 = bnd.extract_flow_edges(FlowMap(arr), hp)
    shifted = arr + np.array([100.0, 100.0])  # keeps all norms far above the static floor
    e2 = bnd.extract_flow_edges(FlowMap(shifted), hp)
    # intensity edges are not preserved by translation, angular edges use
    # the same vectors rotated by the shift so only compare the definition
    s1 = {tuple(p) for p in e1.angular_edges.points}
    # recompute oracle on shifted field
    def angular_set(a):
        out = set()
        h, w = a.shape[:2]
        for y in range(h):
            for x in range(w):
                u = a[y, x]
                nu = np.hypot(*u)
                if nu < 1e-6:
                    continue
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dx == dy == 0:
                            continue
                        ny, nx = y + dy, x + dx
                        if not (0 <= ny < h and 0 <= nx < w):
                            continue
                        v = a[ny, nx]
                        nv = np.hypot(*v)
                        if nv < 1e-6:
                            continue
                        cos = np.clip(np.dot(u, v) / (nu * nv), -1, 1)
                        if np.degrees(np.arccos(cos)) >= hp.edge_theta_a:
                            out.add((float(x), float(y)))
        return out
    assert {tuple(p) for p in e2.angular_edges.points} == angular_set(shifted)
    assert s1 == angular_set(arr)


@st.composite
def _small_integer_flows(draw):
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(-3, 3), min_size=h * w * 2, max_size=h * w * 2))
    return np.array(values, dtype=np.float64).reshape(h, w, 2)


def _brute_force_edges(arr, hp):
    """Per-pixel loop over the in-raster 8-neighbors: edge pixel sets and every
    (pixel, neighbor) norm difference. The tests themselves are the
    detector's, so only the enumeration of neighbors differs."""
    h, w = arr.shape[:2]
    r = np.hypot(arr[..., 0], arr[..., 1])
    cos_lim = np.cos(np.deg2rad(hp.edge_theta_a))
    intensity, angular, diffs = set(), set(), []
    for y in range(h):
        for x in range(w):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if (dy, dx) == (0, 0) or not (0 <= ny < h and 0 <= nx < w):
                        continue
                    diff = abs(r[y, x] - r[ny, nx])
                    diffs.append(diff)
                    if diff >= hp.edge_theta_i:
                        intensity.add((x, y))
                    if r[y, x] >= EPS_VEC and r[ny, nx] >= EPS_VEC:
                        u, v = arr[y, x], arr[ny, nx]
                        if (u[0] * v[0] + u[1] * v[1]) / (r[y, x] * r[ny, nx]) <= cos_lim:
                            angular.add((x, y))
    return intensity, angular, diffs


@given(
    arr=_small_integer_flows(),
    theta_i=st.sampled_from([0.5, 1.0, 2.0]),
    theta_a=st.sampled_from([30.0, 45.0, 90.0]),
    percentile=st.sampled_from([0.0, 50.0, 90.0, 100.0]),
)
@example(arr=np.zeros((1, 1, 2)), theta_i=1.0, theta_a=90.0, percentile=90.0)
@example(arr=np.arange(12.0).reshape(1, 6, 2) % 3, theta_i=1.0, theta_a=90.0, percentile=90.0)
@example(arr=np.arange(12.0).reshape(6, 1, 2) % 3, theta_i=1.0, theta_a=45.0, percentile=50.0)
def test_edges_and_threshold_equal_brute_force(arr, theta_i, theta_a, percentile):
    """Small integer flows make ties, static pixels and exact thresholds
    common; 1xN and Nx1 rasters have no interior pixels at all."""
    hp = Hyperparams(edge_theta_i=theta_i, edge_theta_a=theta_a)
    intensity, angular, diffs = _brute_force_edges(arr, hp)
    edges = bnd.extract_flow_edges(FlowMap(arr), hp)

    def as_set(ps):
        return {(int(x), int(y)) for x, y in ps.points}

    assert as_set(edges.intensity_edges) == intensity
    assert as_set(edges.angular_edges) == angular
    assert as_set(edges.union) == intensity | angular
    expect = max(np.percentile(diffs, percentile), EPS_VEC) if diffs else EPS_VEC
    assert bnd.auto_intensity_threshold(FlowMap(arr), percentile) == expect


def test_exact_chamfer_identical_sets():
    pts = PointSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert bnd.exact_chamfer(pts, pts) == 0.0


def test_exact_chamfer_345():
    s = PointSet(np.array([[0.0, 0.0]]))
    e = PointSet(np.array([[3.0, 4.0]]))
    assert bnd.exact_chamfer(s, e) == 5.0


def test_exact_chamfer_empty_raises():
    pts = PointSet(np.array([[1.0, 2.0]]))
    with pytest.raises(EmptyPointSet):
        bnd.exact_chamfer(PointSet(np.zeros((0, 2))), pts)
    with pytest.raises(EmptyPointSet):
        bnd.exact_chamfer(pts, PointSet(np.zeros((0, 2))))


def test_exact_chamfer_equals_double_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = rng.uniform(0, 50, (30, 2))
        e = rng.uniform(0, 50, (30, 2))
        got = bnd.exact_chamfer(PointSet(s), PointSet(e))
        dists = np.sqrt(((s[:, None, :] - e[None, :, :]) ** 2).sum(axis=2))
        expect = dists.min(axis=1).mean()
        assert got == pytest.approx(expect, rel=1e-12)


def test_exact_chamfer_translation_invariance():
    rng = np.random.default_rng(5)
    s = PointSet(rng.uniform(0, 40, (25, 2)))
    e = PointSet(rng.uniform(0, 40, (25, 2)))
    base = bnd.exact_chamfer(s, e)
    v = Vec2(13.25, -7.5)
    moved = bnd.exact_chamfer(s.translated(v), e.translated(v))
    assert moved == pytest.approx(base, rel=1e-9)


def test_exact_chamfer_zero_iff_subset():
    rng = np.random.default_rng(6)
    e = rng.uniform(0, 30, (20, 2))
    s_subset = PointSet(e[::2].copy())
    assert bnd.exact_chamfer(s_subset, PointSet(e)) == 0.0
    s_off = PointSet(np.vstack([e[:3], [[99.0, 99.0]]]))
    assert bnd.exact_chamfer(s_off, PointSet(e)) > 0.0


def test_patch_grid_single_points():
    s = PointSet(np.array([[3.0, 4.0]]))
    e = PointSet(np.array([[5.0, 6.0]]))
    grid = bnd.build_patch_grid(s, e, 8, 16, 16)
    assert grid.grid_shape == (2, 2)
    assert grid.counts_s[0, 0] == 1
    assert np.allclose(grid.centroids_s[0, 0], (3.0, 4.0))
    assert np.allclose(grid.centroids_e[0, 0], (5.0, 6.0))


def test_patch_grid_empty_region():
    s = PointSet(np.array([[3.0, 4.0]]))
    grid = bnd.build_patch_grid(s, PointSet(np.zeros((0, 2))), 8, 32, 32)
    assert grid.counts_e.sum() == 0
    assert np.isnan(grid.centroids_e).all()
    assert grid.counts_s.sum() == 1


def test_patch_grid_pixel_cap():
    """Rasters up to 4096x4096 are tiled; larger ones are refused before any allocation."""
    s = PointSet(np.array([[3.0, 4.0]]))
    assert bnd.build_patch_grid(s, s, 64, 4096, 4096).grid_shape == (64, 64)
    for width, height in ((4097, 4096), (10**6, 10**6), (99999999999, 99999999999)):
        with pytest.raises(ValidationError, match="at most 16777216 pixels"):
            bnd.build_patch_grid(s, s, 8, width, height)
    with pytest.raises(ValidationError, match="patch scale must be a finite number"):
        bnd.build_patch_grid(s, s, 10**400, 32, 32)


def test_patch_grid_membership_floor_division_oracle():
    rng = np.random.default_rng(2)
    s = rng.uniform(0, 64, (200, 2))
    grid = bnd.build_patch_grid(PointSet(s), PointSet(s[:10]), 16, 64, 64)
    assert grid.total_cells == 16
    counts = np.zeros((4, 4), dtype=int)
    for x, y in s:
        counts[int(y // 16), int(x // 16)] += 1
    assert np.array_equal(grid.counts_s, counts)


def test_patch_distance_parallel_segments_exact():
    ys = np.arange(8.0, 24.0)
    s = PointSet(np.stack([np.full(16, 12.0), ys], axis=1))
    e = PointSet(np.stack([np.full(16, 15.0), ys], axis=1))
    grid = bnd.build_patch_grid(s, e, 8, 32, 32)
    res = bnd.patch_centroid_distance(grid)
    assert res.value == 3.0  # equality case: centroid gap equals the separation


def test_patch_distance_identical_curves():
    pts = PointSet(make_circle((32, 32), 14, 100))
    grid = bnd.build_patch_grid(pts, pts, 8, 64, 64)
    assert bnd.patch_centroid_distance(grid).value == 0.0


def test_patch_distance_no_cooccupied_cells():
    s = PointSet(np.array([[2.0, 2.0]]))
    e = PointSet(np.array([[30.0, 30.0]]))
    grid = bnd.build_patch_grid(s, e, 8, 32, 32)
    res = bnd.patch_centroid_distance(grid)
    assert res.value == 0.0
    assert res.cooccupied_cells == 0


def test_patch_distance_concentric_arcs_within_20pct():
    s = PointSet(make_circle((32, 32), 20, 160))
    e = PointSet(make_circle((32, 32), 22, 176))
    exact = bnd.exact_chamfer(s, e)
    grid = bnd.build_patch_grid(s, e, 8, 64, 64)
    approx = bnd.patch_centroid_distance(grid).value
    assert abs(approx - exact) / exact < 0.20


def test_patch_bound_cell_diameter_plus_chamfer():
    rng = np.random.default_rng(8)
    for _ in range(25):
        s = PointSet(rng.uniform(0, 64, (40, 2)))
        e = PointSet(rng.uniform(0, 64, (40, 2)))
        for scale in (8, 16):
            grid = bnd.build_patch_grid(s, e, scale, 64, 64)
            res = bnd.patch_centroid_distance(grid)
            bound = scale * np.sqrt(2) + bnd.exact_chamfer(s, e)
            assert res.value <= bound


def _smooth_curve(rng, n=140):
    """Open sine-perturbed stroke; per-cell point distributions stay smooth,
    so finer patches should approximate the Chamfer distance better."""
    t = np.linspace(0, 1, n)
    x0, y0 = rng.uniform(6, 14, 2)
    x1, y1 = rng.uniform(50, 58, 2)
    amp = rng.uniform(2, 6)
    k = rng.integers(1, 4)
    ph = rng.uniform(0, np.pi)
    x = x0 + (x1 - x0) * t
    y = y0 + (y1 - y0) * t + amp * np.sin(2 * np.pi * k * t + ph)
    return np.stack([x, y], axis=1)


def test_refinement_improves_patch_fidelity():
    rng = np.random.default_rng(10)
    gaps = {32: [], 16: [], 8: []}
    for _ in range(50):
        s = PointSet(_smooth_curve(rng))
        e = PointSet(_smooth_curve(rng))
        exact = bnd.exact_chamfer(s, e)
        for scale in (32, 16, 8):
            grid = bnd.build_patch_grid(s, e, scale, 64, 64)
            gaps[scale].append(abs(bnd.patch_centroid_distance(grid).value - exact))
    med = {k: np.median(v) for k, v in gaps.items()}
    assert med[16] <= med[32]
    assert med[8] <= med[16]


def test_multiscale_translated_line_close_to_exact():
    ys = np.arange(8.0, 56.0)
    e = PointSet(np.stack([np.full(ys.size, 21.0), ys], axis=1))
    s = PointSet(np.stack([np.full(ys.size, 23.0), ys], axis=1))
    exact = bnd.exact_chamfer(s, e)
    assert exact == pytest.approx(2.0)
    res = bnd.multiscale_patch_distance(s, e, (8, 16, 32), 64, 64)
    assert abs(res.value - 2.0) / 2.0 < 0.15


def test_multiscale_normalization_variants():
    ys = np.arange(8.0, 24.0)
    s = PointSet(np.stack([np.full(16, 12.0), ys], axis=1))
    e = PointSet(np.stack([np.full(16, 15.0), ys], axis=1))
    co = bnd.multiscale_patch_distance(s, e, (8,), 32, 32)
    assert co.value == pytest.approx(3.0)


def test_boundary_constraint_matching_edges_is_zero(hp):
    arr = np.zeros((64, 64, 2))
    arr[:, :32, 0] = 5.0
    flow = FlowMap(arr)
    e = bnd.extract_flow_edges(flow, hp).union
    res = bnd.boundary_constraint(flow, e, hp)
    assert res.value == 0.0
    assert not res.edges_empty


def test_boundary_constraint_empty_edges_flagged(hp):
    flow = FlowMap.zeros(32, 32)
    e = PointSet(np.array([[5.0, 5.0]]))
    res = bnd.boundary_constraint(flow, e, hp)
    assert res.value == 0.0
    assert res.edges_empty


def test_boundary_constraint_empty_boundary_raises(hp):
    with pytest.raises(EmptyPointSet):
        bnd.boundary_constraint(FlowMap.zeros(16, 16), PointSet(np.zeros((0, 2))), hp)


def test_boundary_constraint_scene_gt_below_budget(reference_truth, hp):
    res = bnd.boundary_constraint(reference_truth.gt_world, reference_truth.boundary_t, hp)
    assert res.value <= 1.5


def test_soft_boundary_tau_limit_on_step_edge(hp):
    arr = np.zeros((64, 64, 2))
    arr[:, :32, 0] = 5.0
    flow = FlowMap(arr)
    ys = np.arange(10.0, 50.0)
    e = PointSet(np.stack([np.full(ys.size, 34.0), ys], axis=1))
    hard = bnd.boundary_constraint(flow, e, hp).value
    soft, _ = bnd.soft_boundary_constraint(flow, e, hp, tau=0.02)
    assert abs(soft - hard) / hard < 0.05


def test_soft_boundary_constant_field_zero(hp):
    flow = FlowMap.constant(32, 32, Vec2(1.0, 1.0))
    e = PointSet(np.array([[5.0, 5.0], [6.0, 5.0]]))
    value, backward = bnd.soft_boundary_constraint(flow, e, hp, tau=0.02)
    grad = backward()
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_soft_boundary_gradient_finite_differences(small_truth, small_priors, hp):
    rng = np.random.default_rng(0)
    base = small_truth.gt_world.vectors + rng.normal(0, 0.7, small_truth.gt_world.vectors.shape)
    tau = 0.1
    _, backward = bnd.soft_boundary_constraint(FlowMap(base), small_priors.boundary, hp, tau)
    grad = backward()
    h = 1e-4
    n = base.shape[0]
    worst = 0.0
    samples = list(zip(rng.integers(0, n, 20), rng.integers(0, n, 20), rng.integers(0, 2, 20)))
    # corners and edge midpoints, whose neighbor pairs are cut by the border
    mid, last = n // 2, n - 1
    border = [(0, 0), (0, last), (last, 0), (last, last), (0, mid), (mid, 0), (last, mid), (mid, last)]
    samples += [(y, x, c) for y, x in border for c in (0, 1)]
    for y, x, c in samples:
        plus = base.copy()
        plus[y, x, c] += h
        minus = base.copy()
        minus[y, x, c] -= h
        vp, _ = bnd.soft_boundary_constraint(FlowMap(plus), small_priors.boundary, hp, tau)
        vm, _ = bnd.soft_boundary_constraint(FlowMap(minus), small_priors.boundary, hp, tau)
        fd = (vp - vm) / (2 * h)
        denom = max(abs(fd), abs(grad[y, x, c]), 1e-8)
        worst = max(worst, abs(fd - grad[y, x, c]) / denom)
    assert worst < 1e-3


def _brute_force_soft_value(arr, boundary, hp, tau):
    """Soft boundary value from a per-pixel loop: the largest intensity and
    angular weight over the in-raster 8-neighbors, then per-cell weighted
    centroids against the boundary's centroids, averaged over cells and scales."""
    h, w = arr.shape[:2]
    s2 = (EPS_VEC + tau) ** 2
    r = np.hypot(arr[..., 0], arr[..., 1])
    wgt = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            wi = wa = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if (dy, dx) == (0, 0) or not (0 <= ny < h and 0 <= nx < w):
                        continue
                    ri, rj = r[y, x], r[ny, nx]
                    wi = max(wi, _sigmoid((abs(ri - rj) - hp.edge_theta_i) / tau))
                    cos = arr[y, x] @ arr[ny, nx] / np.sqrt((ri * ri + s2) * (rj * rj + s2))
                    theta = np.arccos(np.clip(cos, -1.0, 1.0))
                    gate = ri * ri / (ri * ri + s2) * (rj * rj / (rj * rj + s2))
                    wa = max(wa, gate * _sigmoid((theta - np.deg2rad(hp.edge_theta_a)) / tau))
            wgt[y, x] = 1.0 - (1.0 - wi) * (1.0 - wa)
    per_scale = []
    for scale in hp.scales:
        dists = []
        for cy in range(0, h, scale):
            for cx in range(0, w, scale):
                cell = wgt[cy:cy + scale, cx:cx + scale]
                inside = [p for p in boundary
                          if cx <= p[0] < cx + scale and cy <= p[1] < cy + scale]
                if cell.sum() <= 0.5 or not inside:
                    continue
                yy, xx = np.mgrid[cy:cy + cell.shape[0], cx:cx + cell.shape[1]]
                centroid = np.array([(cell * xx).sum(), (cell * yy).sum()]) / cell.sum()
                dists.append(np.hypot(*(centroid - np.mean(inside, axis=0))))
        per_scale.append(np.mean(dists) if dists else 0.0)
    return float(np.mean(per_scale))


@st.composite
def _integer_points(draw, h, w, max_size):
    n = draw(st.integers(1, max_size))
    xs = draw(st.lists(st.integers(0, w - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, h - 1), min_size=n, max_size=n))
    return np.stack([xs, ys], axis=1).astype(np.float64)


@given(
    data=st.data(),
    arr=_small_integer_flows(),
    tau=st.sampled_from([0.5, 0.1, 0.02]),
    scales=st.sampled_from([(2,), (2, 3), (8, 16, 32)]),
    theta_a=st.sampled_from([30.0, 90.0]),
)
def test_soft_boundary_value_equals_brute_force(data, arr, tau, scales, theta_a):
    """Integer flows make tied neighbor weights and static pixels common."""
    boundary = data.draw(_integer_points(*arr.shape[:2], 6)) + 0.25
    hp = Hyperparams(edge_theta_a=theta_a, scales=scales)
    value, backward = bnd.soft_boundary_constraint(FlowMap(arr), PointSet(boundary), hp, tau)
    grad = backward()
    assert value == pytest.approx(_brute_force_soft_value(arr, boundary, hp, tau), rel=1e-12)
    assert grad.shape == arr.shape and np.isfinite(grad).all()


@given(
    data=st.data(),
    arr=_small_integer_flows(),
    tau=st.sampled_from([0.5, 0.02]),
    scales=st.sampled_from([(2,), (2, 3), (8, 16, 32)]),
)
def test_boundary_terms_ignore_point_order(data, arr, tau, scales):
    """Sums of integer coordinates are exact in any order, so permuting the
    points of an integer boundary leaves every term that reads it bitwise
    unchanged."""
    h, w = arr.shape[:2]
    points = data.draw(_integer_points(h, w, 30))
    perm = data.draw(st.permutations(range(len(points))))
    s_points = data.draw(_integer_points(h, w, 30))
    s_perm = data.draw(st.permutations(range(len(s_points))))
    e, e_permuted = PointSet(points), PointSet(points[list(perm)])
    s, s_permuted = PointSet(s_points), PointSet(s_points[list(s_perm)])
    flow = FlowMap(arr)
    hp = Hyperparams(scales=scales)

    assert (bnd.multiscale_patch_distance(s, e, scales, w, h)
            == bnd.multiscale_patch_distance(s_permuted, e_permuted, scales, w, h))
    assert bnd.boundary_constraint(flow, e, hp) == bnd.boundary_constraint(flow, e_permuted, hp)
    value, backward = bnd.soft_boundary_constraint(flow, e, hp, tau)
    value_p, backward_p = bnd.soft_boundary_constraint(flow, e_permuted, hp, tau)
    grad, grad_p = backward(), backward_p()
    assert value == value_p and grad.tobytes() == grad_p.tobytes()
    assert bnd.exact_chamfer(s, e) == bnd.exact_chamfer(s, e_permuted)


def _halo_window(points, scales, h, w):
    """Mask of the pixels either boundary term may read: the bounding box of
    every pixel whose patch cell, at some scale, holds a boundary point,
    widened by 1 px and clipped to the raster."""
    held = np.zeros((h, w), dtype=bool)
    for scale in scales:
        cells = {(int(x // scale), int(y // scale)) for x, y in points}
        held |= np.array([[(x // scale, y // scale) in cells for x in range(w)] for y in range(h)])
    rows, cols = np.nonzero(held.any(axis=1))[0], np.nonzero(held.any(axis=0))[0]
    inside = np.zeros((h, w), dtype=bool)
    inside[max(rows[0] - 1, 0):rows[-1] + 2, max(cols[0] - 1, 0):cols[-1] + 2] = True
    return inside


@given(
    data=st.data(),
    h=st.integers(6, 36),
    w=st.integers(6, 36),
    integer_flow=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    far=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
    tau=st.sampled_from([0.5, 0.1, 0.02]),
    scales=st.sampled_from([(2,), (2, 3), (4, 8), (8, 16, 32)]),
    offset=st.sampled_from([0.0, 0.25]),
)
def test_boundary_terms_read_only_the_halo_window(data, h, w, integer_flow, seed, far, tau, scales, offset):
    """Only patch cells holding a boundary point enter either term, and an edge
    test reads a pixel's 8 neighbours, so any finite flow outside the window
    of those cells plus a 1 px halo leaves both terms bitwise unchanged, and
    the soft gradient there is exactly 0."""
    y0, x0 = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
    box_h, box_w = data.draw(st.integers(1, h - y0)), data.draw(st.integers(1, w - x0))
    points = data.draw(_integer_points(box_h, box_w, 12)) + (x0 + offset, y0 + offset)
    rng = np.random.default_rng(seed)
    arr = rng.integers(-3, 4, (h, w, 2)).astype(np.float64) if integer_flow else rng.normal(0.0, 1.5, (h, w, 2))
    outside = ~_halo_window(points, scales, h, w)
    perturbed = arr.copy()
    perturbed[outside] = rng.choice(np.array(far), (int(outside.sum()), 2))
    boundary, hp = PointSet(points), Hyperparams(scales=scales)

    with np.errstate(all="ignore"):  # far values may overflow the norms outside the window
        (value, backward), (value_p, backward_p) = (
            bnd.soft_boundary_constraint(FlowMap(a), boundary, hp, tau) for a in (arr, perturbed))
        grad, grad_p = backward(), backward_p()
        hard, hard_p = (bnd.boundary_constraint(FlowMap(a), boundary, hp) for a in (arr, perturbed))
    assert value == value_p and grad.tobytes() == grad_p.tobytes()
    assert np.all(grad[outside] == 0.0)
    if hard.edges_empty or hard_p.edges_empty:
        # only edges outside the window can appear or vanish, and they score nothing
        for res in (hard, hard_p):
            assert res.value == 0.0 and all(r.cooccupied_cells == 0 for r in res.per_scale)
    else:
        assert hard == hard_p
    full_edges = bnd.extract_flow_edges(FlowMap(arr), hp).union
    if len(full_edges):  # the hard term scores the full raster's edges
        assert hard == bnd.multiscale_patch_distance(full_edges, boundary, scales, w, h)


def test_boundary_constraint_edges_only_outside_the_window(hp):
    """Edges far from the boundary's cells score nothing but still count as edges."""
    arr = np.zeros((96, 96, 2))
    arr[:, 64:, 0] = 5.0
    boundary = PointSet(np.array([[3.0, 4.0], [10.0, 12.0]]))
    res = bnd.boundary_constraint(FlowMap(arr), boundary, hp)
    assert not res.edges_empty
    assert res.value == 0.0
    assert len(res.per_scale) == len(hp.scales)
    assert all(r.cooccupied_cells == 0 for r in res.per_scale)
    assert bnd.boundary_constraint(FlowMap.zeros(96, 96), boundary, hp).edges_empty


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (4, 3)])
def test_soft_boundary_gradient_every_coordinate(shape):
    """Central differences at every coordinate of rasters cut by the border on
    most sides, with cells small enough to hold soft edge mass."""
    rng = np.random.default_rng(sum(shape))
    base = rng.normal(0.0, 1.5, shape + (2,))
    h, w = shape
    boundary = PointSet(np.array([[0.3, 0.2], [w - 0.6, h - 0.7], [w / 2, h / 2]]))
    hp = Hyperparams(scales=(2, 3))
    tau = 0.5
    _, backward = bnd.soft_boundary_constraint(FlowMap(base), boundary, hp, tau)
    grad = backward()
    assert (np.abs(grad) > 1e-5).mean() > 0.5
    step = 1e-6
    for idx in np.ndindex(base.shape):
        plus, minus = base.copy(), base.copy()
        plus[idx] += step
        minus[idx] -= step
        vp, _ = bnd.soft_boundary_constraint(FlowMap(plus), boundary, hp, tau)
        vm, _ = bnd.soft_boundary_constraint(FlowMap(minus), boundary, hp, tau)
        fd = (vp - vm) / (2 * step)
        assert abs(fd - grad[idx]) <= 1e-6 * max(abs(fd), abs(grad[idx])) + 1e-9, idx


@pytest.mark.parametrize("point", [(-0.5, 1.0), (1.0, -0.1), (4.0, 1.0), (1.0, 3.0)])
def test_boundary_outside_raster_raises(hp, point):
    outside = PointSet(np.array([[1.0, 1.0], point]))
    with pytest.raises(ValidationError, match="curve e has points outside the 4x3 raster"):
        bnd.build_patch_grid(PointSet(np.zeros((0, 2))), outside, 2, 4, 3)
    with pytest.raises(ValidationError, match="curve e has points outside the 4x3 raster"):
        bnd.soft_boundary_constraint(FlowMap.zeros(4, 3), outside, hp, 0.1)
    with pytest.raises(ValidationError, match="outside the 1x1 raster"):
        bnd.soft_boundary_constraint(FlowMap.zeros(1, 1), outside, hp, 0.1)
    # checked before any edge test, so a flow without edges raises too
    for flow in (FlowMap.zeros(4, 3), FlowMap(np.arange(24.0).reshape(3, 4, 2))):
        with pytest.raises(ValidationError, match="curve e has points outside the 4x3 raster"):
            bnd.boundary_constraint(flow, outside, hp)


def test_auto_intensity_threshold_percentile():
    arr = np.zeros((16, 16, 2))
    arr[:, 8:, 0] = 4.0
    thr = bnd.auto_intensity_threshold(FlowMap(arr))
    assert thr > 0
    # constant field: all neighbor differences zero, floor kicks in
    assert bnd.auto_intensity_threshold(FlowMap.constant(8, 8, Vec2(1.0, 0.0))) == pytest.approx(1e-6)

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlflow import boundary as bnd
from wlflow import synth
from wlflow.core import EPS_VEC, FlowMap, Hyperparams, PointSet, Vec2, _sigmoid
from wlflow.errors import DegenerateConfiguration, DimensionMismatch, EmptyPointSet, ValidationError

from conftest import (full_raster_edges, loop_bilinear_corners, make_circle, per_slot_soft_boundary,
                      sparse_flow_arrays, sparse_solved_flow, two_figure_spec)


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
)
@example(arr=np.zeros((1, 1, 2)), theta_i=1.0, theta_a=90.0)
@example(arr=np.arange(12.0).reshape(1, 6, 2) % 3, theta_i=1.0, theta_a=90.0)
@example(arr=np.arange(12.0).reshape(6, 1, 2) % 3, theta_i=1.0, theta_a=45.0)
def test_edges_and_threshold_equal_brute_force(arr, theta_i, theta_a):
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
    expect = max(np.percentile(diffs, 90.0), EPS_VEC) if diffs else EPS_VEC
    assert bnd.auto_intensity_threshold(FlowMap(arr)) == expect


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
        assert got == expect


_LEAF = bnd._KD_LEAF


@given(
    seed=st.integers(0, 2**32 - 1),
    n_e=st.sampled_from([1, 2, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 100]),
    n_s=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 1.0, 1e2, 1e4, 1e6]),
    kind=st.sampled_from(["uniform", "grid", "duplicates", "diagonal", "vertical", "circle"]),
    far=st.booleans(),
)
@example(seed=0, n_e=16 * _LEAF + 1, n_s=bnd._KD_PAIRS // 4 + 1, scale=1.0, kind="circle", far=False)
@settings(max_examples=100, deadline=None)
def test_exact_chamfer_equals_ckdtree_bitwise(seed, n_e, n_s, scale, kind, far):
    """The k-d tree search gives bitwise scipy's cKDTree mean, on sets made to
    defeat pruning: ties on a grid, repeated points, lines with a zero-width
    side, queries far outside e's box, and queries at the centre of a circle,
    where each leaf's box is nearer than its points, so few leaves are pruned.
    The example's centre queries span two query chunks of the search and
    overflow one batch of (query, node) pairs."""
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    rng = np.random.default_rng(seed)
    e = rng.uniform(0, scale, (n_e, 2))
    s = rng.uniform(-scale, 2 * scale, (n_s, 2))
    if kind == "grid":
        e, s = (np.round(p * 8 / scale) * scale / 8 for p in (e, s))
    elif kind == "duplicates":
        e = e[rng.integers(0, 3, n_e) % n_e]
        s[::2] = e[rng.integers(0, n_e, len(s[::2]))]
    elif kind == "diagonal":
        e[:, 1] = 0.5 * e[:, 0] + scale
    elif kind == "vertical":
        e[:, 0] = scale / 2
    elif kind == "circle":
        angle = rng.uniform(0, 2 * np.pi, n_e)
        e = scale / 2 + scale * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        s = scale / 2 + rng.normal(0, scale * 1e-9, (n_s, 2))
    if far:
        s = s + 1e3 * scale
    got = bnd.exact_chamfer(PointSet(s), PointSet(e))
    assert got == np.mean(cKDTree(e).query(s)[0])


def test_exact_chamfer_refuses_an_overflowing_distance():
    """A nearest squared distance beyond the float range raises, without a
    floating-point warning, where cKDTree's mean would be inf."""
    far, origin = PointSet(np.array([[1e200, 0.0]])), PointSet(np.array([[-1e200, 0.0]]))
    with pytest.raises(DegenerateConfiguration, match="leaves the float range"):
        bnd.exact_chamfer(far, origin)
    with pytest.raises(DegenerateConfiguration, match="leaves the float range"):
        bnd.exact_chamfer(PointSet(np.array([[1e160, 0.0]])), PointSet(np.zeros((40, 2))))
    assert bnd.exact_chamfer(PointSet(np.array([[1e150, 0.0]])), PointSet(np.zeros((40, 2)))) == 1e150


def test_exact_chamfer_translation_invariance():
    rng = np.random.default_rng(5)
    s = PointSet(rng.uniform(0, 40, (25, 2)))
    e = PointSet(rng.uniform(0, 40, (25, 2)))
    base = bnd.exact_chamfer(s, e)
    v = Vec2(13.25, -7.5)
    moved = bnd.exact_chamfer(PointSet(s.points + v.as_array()), PointSet(e.points + v.as_array()))
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


@pytest.mark.parametrize("scale, width, height, message", [
    pytest.param(8.5, 32, 32, "patch scale must be an integer", id="fractional-scale"),
    pytest.param("8", 32, 32, "patch scale must be a finite number", id="string-scale"),
    pytest.param(float("nan"), 32, 32, "patch scale must be a finite number", id="nan-scale"),
    pytest.param(1, 32, 32, "patch scale must be >= 2", id="scale-1"),
    pytest.param(8, 10.5, 32, "raster dimensions must be integers", id="fractional-width"),
    pytest.param(8, float("nan"), 32, "raster dimensions must be integers", id="nan-width"),
    pytest.param(8, 32, True, "raster dimensions must be integers", id="bool-height"),
    pytest.param(8, 0, 32, "raster dimensions must be positive", id="zero-width"),
])
def test_patch_scale_and_sides_follow_one_rule(scale, width, height, message):
    """A scale is a finite integral number >= 2 and a raster side an
    integral number >= 1, for the grid and the multiscale distance alike;
    anything else is refused, not rounded."""
    s = PointSet(np.array([[3.0, 4.0]]))
    with pytest.raises(ValidationError, match=message):
        bnd.build_patch_grid(s, s, scale, width, height)
    with pytest.raises(ValidationError, match=message):
        bnd.multiscale_patch_distance(s, s, (scale,), width, height)


@pytest.mark.parametrize("scales", [(8, 8), (8, 16, 8.0)])
def test_multiscale_distance_refuses_a_repeated_scale(scales):
    """Each scale is one term of the mean and one entry of a report's
    per-scale map, so a repeated scale, integral floats included, is
    refused, as `Hyperparams` refuses it."""
    s = PointSet(np.array([[3.0, 4.0]]))
    with pytest.raises(ValidationError, match="must not repeat"):
        bnd.multiscale_patch_distance(s, s, scales, 32, 32)
    with pytest.raises(ValidationError, match="must not repeat"):
        Hyperparams(scales=scales)


def test_patch_grid_takes_integral_floats_as_ints():
    s = PointSet(np.array([[3.0, 4.0], [20.0, 9.0]]))
    as_floats = bnd.build_patch_grid(s, s, 8.0, 32.0, 16.0)
    as_ints = bnd.build_patch_grid(s, s, 8, 32, 16)
    assert as_floats.grid_shape == as_ints.grid_shape == (2, 4)
    assert as_floats.centroids_s.tobytes() == as_ints.centroids_s.tobytes()


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


@st.composite
def _slot_table_cases(draw):
    """A flow on a 1x1 to 12x12 raster, integer (tied slots), Gaussian with
    static pixels of either zero sign, or Gaussian, and 1-6 boundary points."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["integer", "static", "gaussian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":
        arr = rng.integers(-2, 3, (h, w, 2)).astype(np.float64)
    else:
        arr = rng.normal(0.0, draw(st.sampled_from([0.3, 1.5])), (h, w, 2))
    if kind == "static":
        still = rng.random((h, w)) < 0.5
        arr[still] = np.copysign(0.0, rng.choice([-1.0, 1.0], (int(still.sum()), 2)))
    points = draw(_integer_points(h, w, 6)) + draw(st.sampled_from([0.0, 0.25, 0.5]))
    return arr, points


def _corner_case():
    """Pixel (y, x) = (0, 2) moves and its in-raster neighbors are still, so all its
    angular weights are 0 and its argmax slot, 0, is off the raster; read as a
    flat offset, that slot would wrap onto the moving pixel (3, 1). Its 5 tied
    intensity weights make its argmax slot the lowest of them."""
    arr = np.zeros((4, 4, 2))
    arr[0, 2] = (1.0, 0.0)
    arr[3, 1] = (0.0, 1.0)
    return arr, np.array([[2.0, 0.0], [0.0, 3.0]])


@given(
    case=_slot_table_cases(),
    tau=st.sampled_from([0.5, 0.1, 0.02, 1e-3]),
    scales=st.sampled_from([(2,), (2, 3), (8, 16, 32)]),
)
@example(case=_corner_case(), tau=0.1, scales=(2,))
@example(case=(np.arange(18.0).reshape(1, 9, 2) % 4 - 1.5, np.array([[0.0, 0.0], [6.5, 0.0]])),
         tau=0.5, scales=(2, 3))
@example(case=(np.arange(18.0).reshape(9, 1, 2) % 3 - 1.0, np.array([[0.25, 8.0]])), tau=0.02, scales=(2,))
def test_soft_boundary_equals_per_slot_loop_bitwise(case, tau, scales):
    """The slot-table forward pass and the gather-and-bincount backward pass
    give the per-slot loop's value and gradient bytes: ties go to the lowest
    slot, an off-raster argmax slot adds nothing, and each pixel adds its terms
    in slot order."""
    arr, points = case
    flow, boundary, hp = FlowMap(arr), PointSet(points), Hyperparams(scales=scales)
    value, backward = bnd.soft_boundary_constraint(flow, boundary, hp, tau)
    ref_value, ref_backward = per_slot_soft_boundary(flow, boundary, hp, tau)
    assert value == ref_value
    assert backward().tobytes() == ref_backward().tobytes()


@settings(max_examples=25)
@given(
    data=st.data(),
    h=st.integers(1, 20),
    w=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    scales=st.sampled_from([(2,), (2, 3), (8, 16, 32)]),
    offset=st.sampled_from([0.0, 0.25, 0.5]),
)
def test_one_soft_layout_serves_every_evaluation(data, h, w, seed, scales, offset):
    """One layout, built once for a boundary anywhere on the raster, serves
    flows that change at every call and each tau of the default schedule:
    value and gradient equal, bytes included, those of an evaluation that
    builds its own layout and those of the per-slot loop, cropped to the
    layout's window."""
    y0, x0 = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
    box_h, box_w = data.draw(st.integers(1, h - y0)), data.draw(st.integers(1, w - x0))
    points = data.draw(_integer_points(box_h, box_w, 8)) + (x0 + offset, y0 + offset)
    boundary, hp = PointSet(points), Hyperparams(scales=scales)
    layout = bnd.soft_layout(boundary, hp, h, w)
    rows, cols = layout.window
    rng = np.random.default_rng(seed)
    for kind in ("integer", "static", "gaussian"):
        if kind == "integer":
            arr = rng.integers(-2, 3, (h, w, 2)).astype(np.float64)
        else:
            arr = rng.normal(0.0, 1.5, (h, w, 2))
        if kind == "static":
            still = rng.random((h, w)) < 0.5
            arr[still] = np.copysign(0.0, rng.choice([-1.0, 1.0], (int(still.sum()), 2)))
        flow = FlowMap(arr)
        for tau in (0.5, 0.1, 0.02):
            value, backward = bnd.soft_boundary_constraint(FlowMap(arr[rows, cols]), boundary, hp, tau,
                                                           window=layout)
            fresh_value, fresh_backward = bnd.soft_boundary_constraint(flow, boundary, hp, tau)
            ref_value, ref_backward = per_slot_soft_boundary(flow, boundary, hp, tau)
            assert float(value).hex() == float(fresh_value).hex() == float(ref_value).hex()
            grad = backward()
            assert grad.shape == (rows.stop - rows.start, cols.stop - cols.start, 2)
            assert grad.tobytes() == fresh_backward()[rows, cols].tobytes() == ref_backward()[rows, cols].tobytes()


@st.composite
def _planned_cases(draw):
    """A flow on a 1x1 to 14x14 raster that moves free pixels only, its free
    mask, and 1-6 boundary points. The mask is empty, full, scattered, or a
    box touching a raster edge. Free pixels hold integers (tied slots),
    tiny values or Gaussian values, zeros included; pinned ones hold +0 or
    -0."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["empty", "full", "scattered", "edge-box"]))
    if kind == "scattered":
        free = rng.random((h, w)) < draw(st.sampled_from([0.05, 0.2, 0.5]))
    elif kind == "edge-box":
        y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        y1, x1 = draw(st.integers(y0 + 1, h)), draw(st.integers(x0 + 1, w))
        edge = draw(st.sampled_from(["top", "bottom", "left", "right"]))
        y0, y1 = (0 if edge == "top" else y0), (h if edge == "bottom" else y1)
        x0, x1 = (0 if edge == "left" else x0), (w if edge == "right" else x1)
        free = np.zeros((h, w), dtype=bool)
        free[y0:y1, x0:x1] = True
    else:
        free = np.full((h, w), kind == "full")
    values = draw(st.sampled_from(["integer", "tiny", "gaussian"]))
    if values == "integer":
        moving = rng.integers(-2, 3, (h, w, 2)).astype(np.float64)
    elif values == "tiny":  # norm gaps too small to move an intensity weight off its floor
        moving = rng.choice([0.0, -0.0, 1e-20, -3e-20, 2e-18, 1.0], (h, w, 2))
    else:
        moving = rng.normal(0.0, 1.5, (h, w, 2)) * (rng.random((h, w, 1)) < 0.8)
    pinned = np.copysign(0.0, rng.choice([-1.0, 1.0], (h, w, 2)))
    arr = np.where(free[..., None], moving, pinned)
    points = draw(_integer_points(h, w, 6)) + draw(st.sampled_from([0.0, 0.25, 0.5]))
    return arr, free, points


@given(
    case=_planned_cases(),
    tau=st.sampled_from([0.5, 0.1, 0.02, 1e-3]),
    scales=st.sampled_from([(2,), (2, 3), (8, 16, 32)]),
    poke=st.tuples(st.integers(0, 195), st.integers(0, 1), st.sampled_from([5e-324, -2.0, 0.75])),
)
# The free pixel (0, 2) has one pair on the raster, whose intensity weight is
# the floor sigmoid(-theta_i / tau) though its norm gap is not 0: its argmax
# is that pair only if its off-raster slots stay below the floor, at 0.
@example(case=(np.array([[[-0.0, 0.0], [-0.0, -0.0], [1e-20, -3e-20]]]), np.array([[False, False, True]]),
               np.array([[0.0, 0.0]])), tau=0.5, scales=(2, 3), poke=(0, 0, 0.75))
def test_planned_soft_boundary_equals_per_slot_loop_bitwise(case, tau, scales, poke):
    """A layout told the free pixels scores only the pairs that touch one,
    and gives the per-slot loop's value (`float.hex`) and gradient bytes,
    cropped to its window, signed zeros on pinned pixels included. Its
    pairs are the `_pair_slices` groups exactly when the ring, the free
    pixels and their 8-neighbors, fills the window. A flow that is nonzero
    on one pinned pixel is refused."""
    arr, free, points = case
    h, w = free.shape
    flow, boundary, hp = FlowMap(arr), PointSet(points), Hyperparams(scales=scales)
    layout = bnd.soft_layout(boundary, hp, h, w, free)
    rows, cols = layout.window
    wh, ww = rows.stop - rows.start, cols.stop - cols.start
    padded = np.pad(free[rows, cols], 1)
    ring = np.zeros((wh, ww), dtype=bool)
    for dy, dx in np.ndindex(3, 3):
        ring |= padded[dy:dy + wh, dx:dx + ww]
    assert all(isinstance(i, tuple) == ring.all() for i, *_ in layout.plan.pairs)
    window_flow = arr[rows, cols]
    value, backward = bnd.soft_boundary_constraint(FlowMap(window_flow), boundary, hp, tau, window=layout)
    ref_value, ref_backward = per_slot_soft_boundary(flow, boundary, hp, tau)
    assert float(value).hex() == float(ref_value).hex()
    assert backward().tobytes() == ref_backward()[rows, cols].tobytes()

    pinned = np.argwhere(~free[rows, cols])
    if len(pinned):
        k, channel, moved_to = poke
        y, x = pinned[k % len(pinned)]
        moved = window_flow.copy()
        moved[y, x, channel] = moved_to
        with pytest.raises(ValidationError, match="pins"):
            bnd.soft_boundary_constraint(FlowMap(moved), boundary, hp, tau, window=layout)


def test_soft_layout_refuses_a_free_mask_of_another_shape(hp):
    boundary = PointSet(np.array([[3.0, 4.0]]))
    with pytest.raises(DimensionMismatch):
        bnd.soft_layout(boundary, hp, 8, 8, np.ones((8, 7), dtype=bool))


@st.composite
def _cell_stage_cases(draw):
    """A flow on a 1x1 to 40x40 raster, a free mask (None, or scattered
    free pixels, on which alone the flow moves) and 1-6 boundary points. The
    flow is static (+-0 everywhere), sparse or Gaussian."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["static", "sparse", "gaussian"]))
    if kind == "static":
        arr = np.copysign(0.0, rng.choice([-1.0, 1.0], (h, w, 2)))
    else:
        arr = rng.normal(0.0, 1.5, (h, w, 2)) * (rng.random((h, w, 1)) < (0.1 if kind == "sparse" else 1.0))
    free = None
    if draw(st.booleans()):
        free = rng.random((h, w)) < draw(st.sampled_from([0.1, 0.5, 0.9]))
        arr = np.where(free[..., None], arr, 0.0)
    points = draw(_integer_points(h, w, 6)) + draw(st.sampled_from([0.0, 0.5]))
    return arr, free, points


# Static 32x32 flow at tau 0.1: each pixel's w is sigmoid(-5), so no 2 px cell
# passes the mass floor while the one 32 px cell does.
_NO_ENTERED_CELL = (np.zeros((32, 32, 2)), None, np.array([[5.0, 7.0], [20.0, 3.0]]))


@settings(max_examples=60)
@given(case=_cell_stage_cases(), tau=st.sampled_from([0.5, 0.1, 0.02]),
       scales=st.sampled_from([(2,), (2, 32), (3, 5, 48), (8, 16, 32), (4, 128)]))
@example(case=_NO_ENTERED_CELL, tau=0.1, scales=(2, 32))
@example(case=(np.zeros((5, 6, 2)), np.eye(5, 6, dtype=bool), np.array([[2.0, 2.0]])), tau=0.5, scales=(4, 128))
def test_batched_cell_stage_equals_per_scale_reference_bitwise(case, tau, scales):
    """The cells of every scale, summed in one batch over the pixels of the
    present cells, give the per-scale reference's value (`float.hex`) and
    gradient bytes, cropped to the window: at a scale where no cell enters,
    at a scale coarser than the window, for ring pixels off every present
    cell (the sentinel) and for a layout built with a free mask. The layout
    lists each scale's present-cell pixels row-major, scale after scale."""
    arr, free, points = case
    h, w = arr.shape[:2]
    boundary, hp = PointSet(points), Hyperparams(scales=scales)
    layout = bnd.soft_layout(boundary, hp, h, w, free)
    rows, cols = layout.window
    value, backward = bnd.soft_boundary_constraint(FlowMap(arr[rows, cols]), boundary, hp, tau, window=layout)
    ref_value, ref_backward = per_slot_soft_boundary(FlowMap(arr), boundary, hp, tau)
    assert float(value).hex() == float(ref_value).hex()
    assert backward().tobytes() == ref_backward()[rows, cols].tobytes()

    assert layout.bounds[0] == 1 and layout.tx[0] == layout.ty[0] == 0.0
    starts = np.searchsorted(layout.cell, layout.bounds[1:-1], side="left")
    for lo, hi, at, cells in zip(layout.bounds, layout.bounds[1:], np.split(layout.at, starts),
                                 np.split(layout.cell, starts)):
        assert (np.diff(at) > 0).all() and ((cells >= lo) & (cells < hi)).all()
        assert set(cells.tolist()) == set(range(lo, hi))  # every present cell holds a pixel
    assert (layout.x == cols.start + layout.at % (cols.stop - cols.start)).all()
    assert (layout.y == rows.start + layout.at // (cols.stop - cols.start)).all()


def test_cell_stage_cases_reach_their_paths(monkeypatch):
    """The explicit examples above reach the paths they are named for: a
    scale with no entered cell beside one with, and a scale coarser than a
    window whose ring has pixels off every present cell."""
    seen = []

    def spy(*args, real=bnd._soft_centroids):
        seen.append(real(*args)[0])
        return real(*args)

    monkeypatch.setattr(bnd, "_soft_centroids", spy)
    arr, free, points = _NO_ENTERED_CELL
    bnd.soft_boundary_constraint(FlowMap(arr), PointSet(points), Hyperparams(scales=(2, 32)), 0.1)
    assert seen[-1][0] is None and seen[-1][1] is not None
    layout = bnd.soft_layout(PointSet(np.array([[2.0, 2.0]])), Hyperparams(scales=(4, 128)), 5, 6,
                             np.eye(5, 6, dtype=bool))
    rows, cols = layout.window
    assert 128 > max(rows.stop - rows.start, cols.stop - cols.start)
    assert (layout.ring_cells[0] == 0).any()


def test_soft_gradient_at_a_subnormal_norm_is_finite():
    """At the last pixel r = 5e-324, and d(value)/d(r) / r overflows, but
    d(value)/d(r) m / r does not: the gradient there is finite, no warning
    is raised, and every other pixel keeps the per-slot loop's bytes."""
    arr = np.array([[[1.0, 0.0], [0.0, 0.0], [5e-324, -3e-300], [5e-324, 0.0]]])
    flow, boundary, hp = FlowMap(arr), PointSet(np.array([[0.0, 0.0]])), Hyperparams(scales=(8, 16, 32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = bnd.soft_boundary_constraint(flow, boundary, hp, 0.5)[1]()
    assert np.isfinite(grad).all() and grad[0, 3, 0] < 0
    with np.errstate(over="ignore", invalid="ignore"):
        ref = per_slot_soft_boundary(flow, boundary, hp, 0.5)[1]()
    assert grad[:, :3].tobytes() == ref[:, :3].tobytes()


def test_value_only_soft_call_builds_no_dvdw_plane(monkeypatch, hp):
    """A value-only call, a rejected line-search trial's, never builds the
    d(value)/dw plane; each `backward()` call builds it once and returns the
    same gradient bytes."""
    truth = synth.generate_scene(two_figure_spec())
    gt = truth.gt_world.vectors
    flow = FlowMap(gt + np.random.default_rng(1).normal(0.0, 0.5, gt.shape))
    calls = []

    def spy(*args, real=bnd._dvdw_plane):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(bnd, "_dvdw_plane", spy)
    layout = bnd.soft_layout(truth.boundary_t, hp, flow.height, flow.width)
    value, backward = bnd.soft_boundary_constraint(FlowMap(flow.vectors[layout.window]), truth.boundary_t, hp,
                                                   0.1, window=layout)
    assert value > 0 and calls == []
    grad = backward()
    assert len(calls) == 1 and np.abs(grad).max() > 0
    assert backward().tobytes() == grad.tobytes()
    assert len(calls) == 2


def test_first_max_slot_for_every_tie_pattern():
    """For each of the 255 nonempty sets of slots that tie at the max, and for
    the all-zero table, the chosen slot is the one `argmax` picks on the
    equality planes: the lowest slot of the set, and slot 0 when all are 0."""
    rng = np.random.default_rng(0)
    patterns = np.arange(256)
    on = (patterns[None, :] >> np.arange(8)[:, None]) & 1 == 1  # (8 slots, 256 patterns)
    top = rng.uniform(0.5, 1.0, 256)
    table = np.where(on, top, rng.uniform(0.0, 1.0, (8, 256)) * top)
    table[:, 0] = 0.0  # pattern 0 has no slot at the max: the all-zero table
    tables = table[None, :, None, :]
    slot = bnd._LOWEST_SLOT[bnd._tie_masks(tables, tables.max(axis=1))]
    assert slot.dtype == np.uint8
    expected = (table == table.max(axis=0)).argmax(axis=0)
    assert (slot[0, 0] == expected).all()
    assert slot[0, 0, 0] == 0


def test_soft_boundary_peak_memory_on_two_figures(hp):
    """One soft evaluation and its backward pass on a two-figure 128x96 scene
    refined from noisy ground truth (every pixel moves, dense edges) peak at
    no more than 6 MB: the backward pass keeps the per-pixel maxima and their
    slots, not per-pair or per-slot arrays."""
    truth = synth.generate_scene(two_figure_spec())
    gt = truth.gt_world.vectors
    flow = FlowMap(gt + np.random.default_rng(1).normal(0.0, 0.5, gt.shape))
    tracemalloc.start()
    try:
        _, backward = bnd.soft_boundary_constraint(flow, truth.boundary_t, hp, 0.5)
        backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, f"{peak / 2**20:.2f} MB"


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
    full_edges = full_raster_edges(arr, hp).union
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


def _one_pixel_flow(h, w, y, x, v):
    arr = np.zeros((h, w, 2))
    arr[y, x] = v
    return arr


@settings(max_examples=400)
@given(arr=sparse_flow_arrays(), theta_i=st.sampled_from([1e-9, 0.1, 0.5, 2.0]),
       theta_a=st.sampled_from([1.0, 30.0, 90.0, 180.0]))
@example(arr=np.zeros((6, 5, 2)), theta_i=0.5, theta_a=30.0).via("all-zero flow")
@example(arr=np.full((4, 4, 2), -0.0), theta_i=1e-9, theta_a=1.0).via("signed zeros only")
@example(arr=_one_pixel_flow(5, 6, 0, 0, (1.5, 0.0)), theta_i=0.5, theta_a=30.0).via("top-left corner")
@example(arr=_one_pixel_flow(5, 6, 4, 5, (-0.0, 2.0)), theta_i=0.5, theta_a=30.0).via("bottom-right corner")
@example(arr=_one_pixel_flow(1, 9, 0, 8, (0.3, -0.45)), theta_i=0.1, theta_a=30.0).via("1 x N, right end")
@example(arr=_one_pixel_flow(9, 1, 0, 0, (-1.5, 1.0)), theta_i=0.1, theta_a=30.0).via("N x 1, top end")
@example(arr=_one_pixel_flow(5, 5, 2, 2, (4e-7, 0.0)), theta_i=1e-9, theta_a=30.0).via("below EPS_VEC")
def test_edges_equal_the_full_raster_reference_bitwise(arr, theta_i, theta_a):
    """Scoring pairs on the nonzero flow's box plus a 1 px halo gives the
    bytes, shape and dtype of every point set of scoring the whole raster."""
    hp = Hyperparams(edge_theta_i=theta_i, edge_theta_a=theta_a)
    got, want = bnd.extract_flow_edges(FlowMap(arr), hp), full_raster_edges(arr, hp)
    for name in ("intensity_edges", "angular_edges", "union"):
        a, b = getattr(got, name).points, getattr(want, name).points
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_edge_extraction_peak_memory_follows_the_moving_pixels(hp):
    """On the 512x512 sparse benchmark scene's solved flow (about 0.35 % of
    the pixels move), edge extraction peaks under 1 MiB: it scores pairs on
    the moving pixels' box, not on the raster."""
    flow = sparse_solved_flow()
    tracemalloc.start()
    try:
        edges = bnd.extract_flow_edges(flow, hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(edges.union) > 0
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB"


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
    # the layout a solver passes as `window` checks its boundary when it is built,
    # and each call checks that the flow fills the layout's window
    with pytest.raises(ValidationError, match="curve e has points outside the 4x3 raster"):
        bnd.soft_layout(outside, hp, 3, 4)
    with pytest.raises(EmptyPointSet):
        bnd.soft_layout(PointSet(np.zeros((0, 2))), hp, 3, 4)
    inside, at_2 = PointSet(np.array([[1.0, 1.0], [2.5, 1.5]])), Hyperparams(scales=(2,))
    layout = bnd.soft_layout(inside, at_2, 30, 40)
    assert layout.window == (slice(0, 3), slice(0, 5))
    with pytest.raises(DimensionMismatch, match="does not fill the 5x3 boundary-cell window"):
        bnd.soft_boundary_constraint(FlowMap.zeros(5, 4), inside, at_2, 0.1, window=layout)
    # a layout serves only the boundary object and the scales it was built from
    fits = FlowMap.zeros(5, 3)
    for other, other_hp in ((PointSet(inside.points.copy()), at_2), (inside, Hyperparams(scales=(3,))),
                            (inside, Hyperparams(scales=(2, 4)))):
        with pytest.raises(ValidationError, match="built from another boundary or scale set"):
            bnd.soft_boundary_constraint(fits, other, other_hp, 0.1, window=layout)
    assert np.isfinite(bnd.soft_boundary_constraint(fits, inside, at_2, 0.1, window=layout)[0])


@given(
    n=st.integers(0, 30),
    n_nodes=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.5]),
)
def test_grid_gradient_equals_add_at(n, n_nodes, seed, zeros):
    """The morph's grid gradient, one bincount per channel, gives `np.add.at`'s
    bytes: each node adds its terms in point order, from +0, signed zeros included."""
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, n_nodes, (n, 4))
    weights = rng.uniform(0.0, 1.0, (n, 4))
    point_grad = rng.normal(0.0, 3.0, (n, 2))
    point_grad[rng.random((n, 2)) < zeros] = -0.0
    weights[rng.random((n, 4)) < zeros] = 0.0
    ref = np.zeros((n_nodes, 2))
    np.add.at(ref, nodes.ravel(), (weights[..., None] * point_grad[:, None, :]).reshape(-1, 2))
    got = bnd._to_nodes(nodes, weights, point_grad, n_nodes)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@given(
    uv=st.lists(st.tuples(*[st.floats(-3.0, 15.0, allow_nan=False)] * 2), max_size=40),
    gw=st.integers(1, 12),
    gh=st.integers(1, 12),
    du=st.sampled_from([1.0, 0.25, 1.0 / 3.0, 1.0 / 32.0]),
)
def test_bilinear_corners_equal_the_corner_loop(uv, gw, gh, du):
    """The broadcast over the corner axis gives the loop over the 4 corners'
    nodes, weights and slopes, bytes and shapes included, on and off the grid."""
    u, v = np.array(uv, dtype=np.float64).reshape(-1, 2).T
    nodes, weights, slopes = bnd._bilinear_corners(u, v, gw, gh, du)
    for got, ref in zip((nodes, weights, *slopes()), loop_bilinear_corners(u, v, gw, gh, du)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_auto_intensity_threshold_percentile():
    """The 90th percentile, as `edges --auto` documents it. A 1x11 ramp with
    norms 0, 1, 3, 6, ... has neighbor differences 1..10, each counted from
    both pixels; the 90th percentile of those 20 lies a tenth of the way
    from 9 to 10."""
    arr = np.zeros((1, 11, 2))
    arr[0, :, 0] = np.cumsum(np.arange(11.0))
    assert bnd.auto_intensity_threshold(FlowMap(arr)) == pytest.approx(9.1, abs=1e-12)
    # constant field: all neighbor differences zero, floor kicks in
    assert bnd.auto_intensity_threshold(FlowMap.constant(8, 8, Vec2(1.0, 0.0))) == pytest.approx(1e-6)

"""Flow-edge extraction, Chamfer distances, and the multiscale boundary constraint.

Edges of a flow field are pixels whose displacement differs from some
8-neighbor in magnitude (intensity edges) or direction (angular edges).
Both tests are symmetric in the pair, so the hard and the soft detector
score each neighbor pair once, over 4 offsets, and mark both of its pixels.
The boundary constraint measures how far those edges sit from a reference
boundary curve, using a per-patch centroid distance that approximates the
Chamfer distance when points are smoothly distributed.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import (
    EPS_VEC,
    MAX_PIXELS,
    FlowMap,
    Hyperparams,
    PointSet,
    _check_number,
    _dcos,
    _sigmoid,
    _soft_angle,
    armijo_descent,
)
from .errors import EmptyPointSet, ValidationError

# 8-neighborhood offsets as (dy, dx).
_NEIGHBORS = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0))


@dataclass(frozen=True)
class EdgeMap:
    intensity_edges: PointSet
    angular_edges: PointSet
    union: PointSet


@dataclass(frozen=True)
class PatchGrid:
    """Per-cell point counts and centroids for two curves on a tiled raster."""

    scale: int
    width: int
    height: int
    counts_s: np.ndarray
    centroids_s: np.ndarray
    counts_e: np.ndarray
    centroids_e: np.ndarray

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.counts_s.shape

    @property
    def total_cells(self) -> int:
        return int(self.counts_s.size)


@dataclass(frozen=True)
class PatchDistanceResult:
    value: float
    cooccupied_cells: int
    total_cells: int

    @property
    def cooccupied_fraction(self) -> float:
        return self.cooccupied_cells / self.total_cells if self.total_cells else 0.0


@dataclass(frozen=True)
class BoundaryResult:
    """Multiscale boundary constraint value plus per-scale diagnostics."""

    value: float
    per_scale: tuple
    cooccupied_fraction: tuple
    edges_empty: bool = False


def _pair_slices(dy: int, dx: int, h: int, w: int):
    """Slices (at_i, at_j) selecting every in-raster pixel pair (i, i + (dy, dx)).

    `arr[at_i]` holds the first pixel of each pair and `arr[at_j]` the second,
    so off-raster neighbors never enter either slice.
    """
    def span(d: int, n: int) -> slice:
        return slice(max(0, -d), n - max(0, d))

    return (span(dy, h), span(dx, w)), (span(-dy, h), span(-dx, w))


def extract_flow_edges(flow: FlowMap, hp: Hyperparams) -> EdgeMap:
    """Detect intensity and angular discontinuities against 8-neighbors.

    A pixel is an intensity edge when some neighbor differs in displacement
    norm by at least hp.edge_theta_i; an angular edge when some neighbor
    (both displacements non-static) differs in direction by at least
    hp.edge_theta_a degrees. Both tests are symmetric, so each neighbor
    pair is scored once and a hit marks both of its pixels.
    """
    m = flow.vectors
    h, w = m.shape[:2]
    r = np.hypot(m[..., 0], m[..., 1])

    intensity = np.zeros((h, w), dtype=bool)
    angular = np.zeros((h, w), dtype=bool)
    cos_lim = np.cos(np.deg2rad(hp.edge_theta_a))
    moving = r >= EPS_VEC
    for dy, dx in _NEIGHBORS[:4]:
        i, j = _pair_slices(dy, dx, h, w)
        hit_i = np.abs(r[i] - r[j]) >= hp.edge_theta_i
        with np.errstate(invalid="ignore"):
            cos = (m[i] * m[j]).sum(axis=-1) / (r[i] * r[j])
        hit_a = moving[i] & moving[j] & (cos <= cos_lim)
        for at in (i, j):
            intensity[at] |= hit_i
            angular[at] |= hit_a

    def to_points(mask2d: np.ndarray) -> PointSet:
        ys, xs = np.nonzero(mask2d)
        return PointSet(np.stack([xs, ys], axis=1).astype(np.float64))

    return EdgeMap(
        intensity_edges=to_points(intensity),
        angular_edges=to_points(angular),
        union=to_points(intensity | angular),
    )


def auto_intensity_threshold(flow: FlowMap, percentile: float = 90.0) -> float:
    """Adaptive intensity-edge threshold: percentile of neighbor norm differences.

    Each in-raster neighbor pair is counted twice, once from each of its
    pixels, as the per-pixel 8-neighbor definition does.
    """
    m = flow.vectors
    h, w = m.shape[:2]
    r = np.hypot(m[..., 0], m[..., 1])
    diffs = []
    for dy, dx in _NEIGHBORS[:4]:
        i, j = _pair_slices(dy, dx, h, w)
        diffs.append(np.abs(r[i] - r[j]).ravel())
    alldiff = np.concatenate(diffs * 2)
    if alldiff.size == 0:
        return EPS_VEC
    return float(max(np.percentile(alldiff, percentile), EPS_VEC))


def exact_chamfer(s: PointSet, e: PointSet) -> float:
    """Mean nearest-neighbor distance from each point of s to the set e.

    This is wlflow's only use of scipy. Its k-d tree is imported here, on the
    first call, so that importing the package (and every CLI command but
    exact `chamfer`) never loads scipy, which would double its start-up time.
    """
    if len(s) == 0 or len(e) == 0:
        raise EmptyPointSet("exact_chamfer requires two nonempty point sets")
    from scipy.spatial import cKDTree

    tree = cKDTree(e.points)
    d, _ = tree.query(s.points)
    return float(np.mean(d))


def _cell_sums(cells: np.ndarray, x, y, n_cells: int, w: np.ndarray | None = None):
    """Per flat cell id: the mass (sum of w) and the sums of w x and w y.

    `x`, `y` and `w` broadcast against `cells`. Without `w` every point
    weighs 1 and the mass is an int64 count.
    """
    flat = cells.ravel()
    if w is None:
        mass = np.bincount(flat, minlength=n_cells)
    else:
        mass = np.bincount(flat, weights=w.ravel(), minlength=n_cells)
        x, y = w * x, w * y
    sx = np.bincount(flat, weights=np.ravel(x), minlength=n_cells)
    sy = np.bincount(flat, weights=np.ravel(y), minlength=n_cells)
    return mass, sx, sy


def _bin_points(points: np.ndarray, scale: int, gh: int, gw: int):
    """Per-cell point counts and centroids (NaN in empty cells) on a gh x gw tiling."""
    cx, cy = np.floor(points / scale).astype(np.int64).T
    counts, sx, sy = _cell_sums(cy * gw + cx, points[:, 0], points[:, 1], gh * gw)
    occ = counts > 0
    centroids = np.full((gh * gw, 2), np.nan)
    centroids[occ, 0] = sx[occ] / counts[occ]
    centroids[occ, 1] = sy[occ] / counts[occ]
    return counts.reshape(gh, gw), centroids.reshape(gh, gw, 2)


def _check_in_raster(name: str, pts: np.ndarray, width: int, height: int) -> None:
    if (pts < 0).any() or (pts[:, 0] >= width).any() or (pts[:, 1] >= height).any():
        raise ValidationError(f"curve {name} has points outside the {width}x{height} raster")


def build_patch_grid(s: PointSet, e: PointSet, scale: int, width: int, height: int) -> PatchGrid:
    """Tile the raster into scale-sized cells and bin both curves into them."""
    _check_number("patch scale", scale)
    if scale < 2:
        raise ValidationError("patch scale must be >= 2")
    if width < 1 or height < 1:
        raise ValidationError("raster dimensions must be positive")
    if int(width) * int(height) > MAX_PIXELS:
        raise ValidationError(f"raster width x height must be at most {MAX_PIXELS} pixels (4096x4096)")
    _check_in_raster("s", s.points, width, height)
    _check_in_raster("e", e.points, width, height)
    gw = -(-width // scale)
    gh = -(-height // scale)
    counts_s, centroids_s = _bin_points(s.points, scale, gh, gw)
    counts_e, centroids_e = _bin_points(e.points, scale, gh, gw)
    for arr in (counts_s, centroids_s, counts_e, centroids_e):
        arr.setflags(write=False)
    return PatchGrid(scale, width, height, counts_s, centroids_s, counts_e, centroids_e)


def patch_centroid_distance(grid: PatchGrid) -> PatchDistanceResult:
    """Mean centroid-to-centroid distance over cells occupied by both curves."""
    both = (grid.counts_s > 0) & (grid.counts_e > 0)
    n = int(both.sum())
    if n == 0:
        return PatchDistanceResult(0.0, 0, grid.total_cells)
    d = grid.centroids_s[both] - grid.centroids_e[both]
    return PatchDistanceResult(float(np.hypot(d[:, 0], d[:, 1]).mean()), n, grid.total_cells)


def multiscale_patch_distance(
    s: PointSet,
    e: PointSet,
    scales,
    width: int,
    height: int,
) -> BoundaryResult:
    """Average the per-scale patch-centroid distances.

    Each scale's distance is the mean over cells where both curves are
    present.
    """
    per_scale = []
    fractions = []
    for scale in scales:
        res = patch_centroid_distance(build_patch_grid(s, e, int(scale), width, height))
        per_scale.append(res)
        fractions.append(res.cooccupied_fraction)
    value = float(np.mean([r.value for r in per_scale])) if per_scale else 0.0
    return BoundaryResult(value, tuple(per_scale), tuple(fractions))


def _boundary_window(points: np.ndarray, scales, h: int, w: int) -> tuple[slice, slice]:
    """Rows and columns of the boundary-cell window of an h x w raster.

    At each scale, take the scale-aligned bounding box of the patch cells that
    hold a boundary point; the window is the union of those boxes, widened by
    a 1 px halo (an edge test reads a pixel's 8 neighbors) and clipped to the
    raster. Only those cells enter either boundary term.
    """
    lo, hi = np.array([w, h]), np.array([0, 0])
    for scale in scales:
        cells = np.floor(points / scale).astype(np.int64)
        lo = np.minimum(lo, cells.min(axis=0) * scale)
        hi = np.maximum(hi, (cells.max(axis=0) + 1) * scale)
    (x0, y0), (x1, y1) = np.maximum(lo - 1, 0), np.minimum(hi + 1, (w, h))
    return slice(int(y0), int(y1)), slice(int(x0), int(x1))


def boundary_constraint(
    flow: FlowMap,
    boundary: PointSet,
    hp: Hyperparams,
) -> BoundaryResult:
    """Extract flow edges and score them against the boundary curve.

    Only patch cells that hold a boundary point are scored, so edges are
    extracted on the boundary-cell window alone (see `_boundary_window`) and
    the cost follows the boundary's extent, not the raster. Every pixel of
    those cells has its full neighbor set inside the window, so the result
    equals the full-raster evaluation bitwise. Returns value 0 with
    edges_empty set when the flow has no edges at all, inside the window or
    not.
    """
    if len(boundary) == 0:
        raise EmptyPointSet("boundary curve is empty")
    _check_in_raster("e", boundary.points, flow.width, flow.height)
    rows, cols = _boundary_window(boundary.points, hp.scales, flow.height, flow.width)
    # The public extractor, so that a per-layer trace of it still sees this work.
    edges = extract_flow_edges(FlowMap(flow.vectors[rows, cols]), hp).union
    if len(edges) == 0 and len(extract_flow_edges(flow, hp).union) == 0:
        return BoundaryResult(0.0, (), (), edges_empty=True)
    edges = PointSet(edges.points + (cols.start, rows.start))
    return multiscale_patch_distance(edges, boundary, hp.scales, flow.width, flow.height)


# ---------------------------------------------------------------------------
# Soft relaxation: per-pixel edge weights instead of a hard edge set, with an
# analytic gradient for the variational solver.
# ---------------------------------------------------------------------------

_MASS_FLOOR = 0.5  # cells with less soft edge mass than this are skipped


def _soft_cell_value(w: np.ndarray, ys, xs, boundary_points: np.ndarray, scale: int, h: int, wd: int):
    """Soft patch-centroid distance at one scale and its d(value)/d(w) field;
    `ys, xs` are the pixel coordinates of w on the h x wd raster, whose cell grid
    is the one scored."""
    gh, gw = -(-h // scale), -(-wd // scale)
    e_counts, e_centroids = _bin_points(boundary_points, scale, gh, gw)
    cid = (ys // scale) * gw + (xs // scale)
    n_cells = gh * gw
    m_c, sx_c, sy_c = _cell_sums(cid, xs, ys, n_cells, w)

    e_c = e_counts.ravel()
    ce = e_centroids.reshape(-1, 2)
    include = (m_c > _MASS_FLOOR) & (e_c > 0)
    n_inc = int(include.sum())
    if n_inc == 0:
        return 0.0, np.zeros(w.shape)

    cx = np.zeros(n_cells)
    cy = np.zeros(n_cells)
    cx[include] = sx_c[include] / m_c[include]
    cy[include] = sy_c[include] / m_c[include]
    ex = np.where(include, cx - ce[:, 0], 0.0)
    ey = np.where(include, cy - ce[:, 1], 0.0)
    d = np.hypot(ex, ey)
    value = float(d[include].mean())

    # d(d_c)/d(w_i) = ((x_i - cx) ex + (y_i - cy) ey) / (d m), mean over cells
    safe_d = np.where(d > 1e-12, d, 1.0)
    coeff = np.where(include & (d > 1e-12), 1.0 / (n_inc * safe_d * np.where(include, m_c, 1.0)), 0.0)
    return value, coeff[cid] * ((xs - cx[cid]) * ex[cid] + (ys - cy[cid]) * ey[cid])


def soft_boundary_constraint(
    flow: FlowMap,
    boundary: PointSet,
    hp: Hyperparams,
    tau: float,
) -> tuple[float, Callable[[], np.ndarray]]:
    """Differentiable relaxation of the boundary constraint.

    Edge membership becomes a per-pixel sigmoid weight on the neighbor
    discontinuities (the two measures are combined by a smooth union), cell
    centroids become weight-weighted means, and the gradient is analytic in
    every flow vector.

    Runs the forward pass and returns (value, backward): `backward()` runs
    the backward pass over the forward intermediates it holds and returns
    the gradient, so a caller that needs only the value (a line-search trial
    that is rejected) skips that work. Value and gradient are bitwise those
    of a single combined pass.

    Each neighbor pair (i, j) is scored once, over the 4 forward offsets.
    A pixel's intensity and angular weights are the largest of its 8
    neighbor slots, where slot n holds the pair with neighbor _NEIGHBORS[n]
    and an off-raster slot counts as 0. The gradient flows through the
    lowest slot that attains the largest weight.

    Only patch cells that hold a boundary point enter the value, so the
    forward and backward passes run on the boundary-cell window alone (see
    `_boundary_window`) and the cost follows the boundary's extent, not the
    raster. The gradient is exactly 0 outside that window, and value and
    gradient equal the full-raster evaluation bitwise: the scored cells lie
    inside the window with their full neighbor sets, each cell sums its
    pixels in the same row-major order, and each pixel's gradient adds run in
    the same slot order.
    """
    if tau <= 0:
        raise ValidationError("tau must be positive")
    if len(boundary) == 0:
        raise EmptyPointSet("boundary curve is empty")
    _check_in_raster("e", boundary.points, flow.width, flow.height)
    rows, cols = _boundary_window(boundary.points, hp.scales, flow.height, flow.width)
    # h x wd is the window. Halo pixels miss some neighbor slots, so their
    # weights are off, but they lie in no scored cell; cell ids stay on the
    # grid of the whole raster.
    m = flow.vectors[rows, cols]
    h, wd = m.shape[:2]

    # Forward: per pair, the intensity weight b, the angular weight a = g siga
    # with moving gate g, and d(siga)/d(cos).
    r = np.hypot(m[..., 0], m[..., 1])
    s = EPS_VEC + tau
    s2 = s * s
    du = np.sqrt(r * r + s2)
    wu = (r * r) / (r * r + s2)
    pairs = []
    for dy, dx in _NEIGHBORS[:4]:
        i, j = _pair_slices(dy, dx, h, wd)
        b = _sigmoid((np.abs(r[i] - r[j]) - hp.edge_theta_i) / tau)
        siga, cosfac = _soft_angle((m[i] * m[j]).sum(axis=-1) / (du[i] * du[j]), hp.edge_theta_a, tau)
        g = wu[i] * wu[j]
        pairs.append((b, g * siga, g, siga, cosfac))

    # Running max over the slots in order; a strict > keeps the lowest slot on ties.
    # Slot n >= 4 is pair 7 - n seen from its second pixel.
    ni = np.zeros((h, wd), dtype=np.intp)
    na = np.zeros((h, wd), dtype=np.intp)
    wi = np.zeros((h, wd))
    wa = np.zeros((h, wd))
    for n, (dy, dx) in enumerate(_NEIGHBORS):
        at = _pair_slices(dy, dx, h, wd)[0]
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
    for scale in scales:
        v_s, dvdw = _soft_cell_value(w, ys, xs, boundary.points, int(scale), flow.height, flow.width)
        value += v_s / len(scales)
        dvdw_total += dvdw / len(scales)

    def backward() -> np.ndarray:
        # Backward through w = 1 - (1 - wi)(1 - wa) and the neighbor sigmoids.
        grad_full = np.zeros(flow.vectors.shape)
        grad = grad_full[rows, cols]
        grad_r = np.zeros((h, wd))
        dwdwi = dvdw_total * (1.0 - wa)
        dwdwa = dvdw_total * (1.0 - wi)
        dwu_dr = 2.0 * r * s2 / (r * r + s2) ** 2
        # Terms at dvdw == 0 are +-0 and the sums start at +0, so skipping them keeps every bit.
        live = dvdw_total != 0

        for n, (dy, dx) in enumerate(_NEIGHBORS):
            i, j = _pair_slices(dy, dx, h, wd)
            _, _, g, siga, cosfac = pairs[min(n, 7 - n)]

            # intensity path through the argmax neighbor
            sel = live[i] & (ni[i] == n)
            b = wi[i][sel]  # the argmax neighbor's intensity weight
            common = dwdwi[i][sel] * b * (1.0 - b) / tau * np.sign(r[i][sel] - r[j][sel])
            grad_r[i][sel] += common
            grad_r[j][sel] -= common

            # angular path through the argmax neighbor
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


# ---------------------------------------------------------------------------
# Curve morphing driven purely by the patch-centroid distance.
# ---------------------------------------------------------------------------


# Control grid rows x columns, patch scales and first trial step of the curve morph.
_MORPH_GRID_SHAPE = (10, 10)
_MORPH_SCALES = (4, 8, 16, 32)
_MORPH_STEP_SIZE = 4.0


@dataclass(frozen=True)
class MorphOptions:
    max_iters: int = 400
    tolerance: float = 1e-4
    width: int | None = None
    height: int | None = None


@dataclass(frozen=True)
class MorphResult:
    displacement: np.ndarray
    moved: PointSet
    objective_trace: tuple
    converged: bool


def _bilinear_corners(u: np.ndarray, v: np.ndarray, gw: int, gh: int, du: float = 1.0):
    """Bilinear assignment of fractional grid positions (u, v) to their 2x2
    surrounding nodes of a gw x gh grid.

    Returns (nodes, weights, dw/dx, dw/dy), each (n, 4), where `du` is
    du/dx = dv/dy; off-grid nodes carry zero weight and point at node 0.
    """
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


def _bilinear_weights(points: np.ndarray, gh: int, gw: int, width: int, height: int):
    """Control-grid corner indices and weights for each point."""
    fx = points[:, 0] / max(width - 1, 1) * (gw - 1)
    fy = points[:, 1] / max(height - 1, 1) * (gh - 1)
    fx = np.clip(fx, 0.0, gw - 1 - 1e-9)
    fy = np.clip(fy, 0.0, gh - 1 - 1e-9)
    return _bilinear_corners(fx, fy, gw, gh)[:2]


_MORPH_MASS_FLOOR = 0.25


def _soft_bin(points: np.ndarray, scale: int, gw: int, gh: int):
    """`_bilinear_corners` of points over the centers of the scale-sized cells of a tiling."""
    return _bilinear_corners(points[:, 0] / scale - 0.5, points[:, 1] / scale - 0.5, gw, gh, 1.0 / scale)


def _morph_target_grids(points: np.ndarray, scales, width: int, height: int):
    """Per scale, the target's soft cell mass, its cell centroids (0 where the
    mass is below the floor) and the grid width and height."""
    grids = []
    for scale in scales:
        gh, gw = -(-height // scale), -(-width // scale)
        cells, tw, _, _ = _soft_bin(points, scale, gw, gh)
        me, tsx, tsy = _cell_sums(cells, points[:, 0:1], points[:, 1:2], gh * gw, tw)
        occupied = me > _MORPH_MASS_FLOOR
        ce_x = np.where(occupied, tsx / np.where(occupied, me, 1.0), 0.0)
        ce_y = np.where(occupied, tsy / np.where(occupied, me, 1.0), 0.0)
        grids.append((me, ce_x, ce_y, gw, gh))
    return grids


def _morph_loss(moved: np.ndarray, target_grids, scales):
    """Multiscale patch-centroid distance of moved vs target with soft cell
    assignment; returns the loss and a callable giving its gradient on the
    moved points."""
    value = 0.0
    kept = []  # per scale with an included cell, what its gradient needs
    for scale, (me, ce_x, ce_y, gw, gh) in zip(scales, target_grids):
        cells, w, dwdx, dwdy = _soft_bin(moved, int(scale), gw, gh)
        m, sx, sy = _cell_sums(cells, moved[:, 0:1], moved[:, 1:2], gh * gw, w)
        include = (m > _MORPH_MASS_FLOOR) & (me > _MORPH_MASS_FLOOR)
        n_inc = int(include.sum())
        if n_inc == 0:
            continue
        safe_m = np.where(include, m, 1.0)
        cmx = np.where(include, sx / safe_m, 0.0)
        cmy = np.where(include, sy / safe_m, 0.0)
        ex = np.where(include, cmx - ce_x, 0.0)
        ey = np.where(include, cmy - ce_y, 0.0)
        d = np.hypot(ex, ey)
        value += float(d[include].mean()) / len(scales)
        kept.append((cells, w, dwdx, dwdy, include, n_inc, safe_m, cmx, cmy, ex, ey, d))

    def gradient() -> np.ndarray:
        grad = np.zeros((moved.shape[0], 2))
        for cells, w, dwdx, dwdy, include, n_inc, safe_m, cmx, cmy, ex, ey, d in kept:
            safe_d = np.where(d > 1e-12, d, 1.0)
            live = include & (d > 1e-12)
            ux = np.where(live, ex / safe_d, 0.0) / (len(scales) * n_inc)
            uy = np.where(live, ey / safe_d, 0.0) / (len(scales) * n_inc)
            # d(cm_x)/dx_i = (w + dw/dx (x_i - cm_x)) / m ; d(cm_y)/dx_i = dw/dx (y_i - cm_y) / m
            mx = safe_m[cells]
            rx = moved[:, 0:1] - cmx[cells]
            ry = moved[:, 1:2] - cmy[cells]
            gx = ux[cells] * (w + dwdx * rx) / mx + uy[cells] * (dwdx * ry) / mx
            gy = ux[cells] * (dwdy * rx) / mx + uy[cells] * (w + dwdy * ry) / mx
            grad[:, 0] += gx.sum(axis=1)
            grad[:, 1] += gy.sum(axis=1)
        return grad

    return value, gradient


def morph_curve_fit(moving: PointSet, target: PointSet, opts: MorphOptions = MorphOptions()) -> MorphResult:
    """Fit a coarse displacement grid moving one curve onto another.

    The control grid is bilinearly interpolated at the moving points and
    optimized by backtracking gradient descent on the multiscale
    patch-centroid distance alone. Non-convergence is reported through the
    `converged` flag; the best iterate is always returned.
    """
    if len(moving) == 0 or len(target) == 0:
        raise EmptyPointSet("morph_curve_fit requires two nonempty curves")
    pts = moving.points
    width = opts.width or int(np.ceil(max(pts[:, 0].max(), target.points[:, 0].max()) + 2))
    height = opts.height or int(np.ceil(max(pts[:, 1].max(), target.points[:, 1].max()) + 2))
    gh, gw = _MORPH_GRID_SHAPE
    # a whole-raster cell supplies the global centroid pull (translation mode)
    scales = _MORPH_SCALES + (max(width, height),)
    target_grids = _morph_target_grids(target.points, scales, width, height)

    corners, weights = _bilinear_weights(pts, gh, gw, width, height)
    disp = np.zeros((gh * gw, 2))

    def field_at_points(d):
        return (weights[..., None] * d[corners]).sum(axis=1)

    def loss(d):
        value, point_gradient = _morph_loss(pts + field_at_points(d), target_grids, scales)

        def grid_gradient():
            gd = np.zeros_like(d)
            np.add.at(gd, corners.ravel(),
                      (weights[..., None] * point_gradient()[:, None, :]).reshape(-1, 2))
            return gd

        return value, grid_gradient

    value, gradient = loss(disp)
    grad = gradient()
    del gradient  # its forward state is not needed during the descent
    trace = [value]
    disp, converged = armijo_descent(
        loss, disp, value, grad, _MORPH_STEP_SIZE, opts.max_iters, opts.tolerance,
        lambda d, v, step: trace.append(v),
    )
    moved = PointSet(pts + field_at_points(disp))
    return MorphResult(disp.reshape(gh, gw, 2), moved, tuple(trace), converged)

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
from itertools import chain

import numpy as np

from .core import (
    EPS_VEC,
    FlowMap,
    Hyperparams,
    PointSet,
    _UNCONVERGED,
    _angle_gate,
    _check_count,
    _check_positive,
    _check_raster,
    _check_scale,
    _check_scales,
    _check_tau,
    _plane_box,
    _readonly,
    _sigmoid,
    _soft_angle,
    armijo_descent,
)
from .errors import DegenerateConfiguration, DimensionMismatch, EmptyPointSet, ValidationError

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
    edges_empty: bool = False

    @property
    def cooccupied_fraction(self) -> tuple:
        return tuple(r.cooccupied_fraction for r in self.per_scale)


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

    Pairs are scored on the bounding box of the pixels with a nonzero
    channel, widened by a 1 px halo and clipped to the raster, so the cost
    follows the moving part of the flow, not the raster. A pair of two zero
    vectors is never a hit (edge_theta_i > 0, and an angular hit needs both
    pixels moving), and every pair that touches a nonzero pixel lies in the
    widened box, so the points equal, in raster order, those of scoring the
    whole raster. A flow with no nonzero pixel has no edges.
    """
    nonzero = flow.vectors[..., 0] != 0
    np.logical_or(nonzero, flow.vectors[..., 1] != 0, out=nonzero)
    box = _plane_box(nonzero, 1)
    if box is None:
        empty = PointSet(_readonly(np.empty((0, 2))))
        return EdgeMap(intensity_edges=empty, angular_edges=empty, union=empty)
    rows, cols = box
    m = flow.vectors[box]
    h, w = m.shape[:2]
    mx, my = m[..., 0], m[..., 1]
    r = np.hypot(mx, my)

    intensity = np.zeros((h, w), dtype=bool)
    angular = np.zeros((h, w), dtype=bool)
    cos_lim = np.cos(np.deg2rad(hp.edge_theta_a))
    moving = r >= EPS_VEC
    for dy, dx in _NEIGHBORS[:4]:
        i, j = _pair_slices(dy, dx, h, w)
        hit_i = np.abs(r[i] - r[j]) >= hp.edge_theta_i
        with np.errstate(invalid="ignore"):
            cos = (mx[i] * mx[j] + my[i] * my[j]) / (r[i] * r[j])
        hit_a = moving[i] & moving[j] & (cos <= cos_lim)
        for at in (i, j):
            intensity[at] |= hit_i
            angular[at] |= hit_a

    def to_points(mask2d: np.ndarray) -> PointSet:
        ys, xs = np.nonzero(mask2d)
        return PointSet(_readonly(np.stack([xs + cols.start, ys + rows.start], axis=1).astype(np.float64)))

    return EdgeMap(
        intensity_edges=to_points(intensity),
        angular_edges=to_points(angular),
        union=to_points(intensity | angular),
    )


def auto_intensity_threshold(flow: FlowMap) -> float:
    """Adaptive intensity-edge threshold: the 90th percentile of neighbor
    norm differences, floored at EPS_VEC.

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
    return float(max(np.percentile(alldiff, 90.0), EPS_VEC))


def exact_chamfer(s: PointSet, e: PointSet) -> float:
    """Mean nearest-neighbor distance from each point of s to the set e.

    The nearest point is found exactly by a k-d tree over e (Bentley 1975;
    Friedman, Bentley & Finkel 1977), searched in numpy batches (see
    `_nearest_sq`). Each distance is the square root of the least
    `dx·dx + dy·dy`, and the mean runs over s in order, so the result equals
    `np.mean(scipy.spatial.cKDTree(e).query(s)[0])` bitwise.

    Raises EmptyPointSet if a set is empty, and DegenerateConfiguration when
    a nearest squared distance overflows (a distance beyond about 1.3e154),
    where cKDTree would give inf.
    """
    if len(s) == 0 or len(e) == 0:
        raise EmptyPointSet("exact_chamfer requires two nonempty point sets")
    with np.errstate(over="ignore"):  # an overflowing distance is refused below
        d2 = _nearest_sq(s.points, _kd_tree(e.points))
    if np.isinf(d2).any():
        raise DegenerateConfiguration("a nearest distance leaves the float range")
    return float(np.mean(np.sqrt(d2)))


# Points per k-d tree leaf, and (query, node) pairs per search batch: a batch's
# leaf distances fill arrays of _KD_PAIRS x _KD_LEAF doubles (2 MB).
_KD_LEAF = 16
_KD_PAIRS = 1 << 14


def _kd_tree(e: np.ndarray):
    """A balanced k-d tree over the points e, as (depth, leaf x, leaf y, lo, hi).

    e is padded with copies of its first point to _KD_LEAF · 2**depth points,
    which changes no nearest distance. Each node splits at its median along
    its wider side, one argsort per level; leaf k holds row k of leaf x and y.
    lo and hi hold the x row and the y row of the nodes' bounding boxes, in
    heap order: node i has the children 2i + 1 and 2i + 2, and the leaves
    come last.
    """
    depth = ((len(e) - 1) // _KD_LEAF).bit_length()
    pts = np.concatenate([e, np.repeat(e[:1], (_KD_LEAF << depth) - len(e), axis=0)])
    for k in range(depth):
        nodes = pts.reshape(1 << k, -1, 2)
        axis = np.argmax(np.ptp(nodes, axis=1), axis=1)
        order = np.argsort(np.take_along_axis(nodes, axis[:, None, None], axis=2)[..., 0], axis=1)
        pts = np.take_along_axis(nodes, order[..., None], axis=1).reshape(-1, 2)
    leaves = pts.reshape(1 << depth, _KD_LEAF, 2)
    lo, hi = [leaves.min(axis=1)], [leaves.max(axis=1)]
    for _ in range(depth):
        lo.append(np.minimum(lo[-1][0::2], lo[-1][1::2]))
        hi.append(np.maximum(hi[-1][0::2], hi[-1][1::2]))
    x, y = leaves.transpose(2, 0, 1).copy()
    return depth, x, y, np.concatenate(lo[::-1]).T.copy(), np.concatenate(hi[::-1]).T.copy()


def _nearest_sq(q: np.ndarray, tree) -> np.ndarray:
    """Per point of q, the least squared distance `dx·dx + dy·dy` to the tree's points.

    Per chunk of queries, a greedy descent into the child with the smaller box
    bound gives each query a reached leaf and so an upper bound `best`. Then
    (query, node) pairs whose box bound is below `best` expand level by level,
    in batches of at most _KD_PAIRS, and each leaf scored lowers `best`. A box
    whose bound is not below `best` holds no closer point, so the minimum is exact.
    """
    depth, x, y, (lox, loy), (hix, hiy) = tree
    first_leaf = (1 << depth) - 1

    def box_sq(qx: np.ndarray, qy: np.ndarray, node: np.ndarray) -> np.ndarray:
        # The squared distance to the node's box, 0 inside. Rounding is monotone, so it
        # never exceeds the squared distance computed to any point in the box.
        bx = np.maximum(np.maximum(lox[node] - qx, qx - hix[node]), 0.0)
        by = np.maximum(np.maximum(loy[node] - qy, qy - hiy[node]), 0.0)
        return bx * bx + by * by

    def leaf_sq(qx: np.ndarray, qy: np.ndarray, node: np.ndarray) -> np.ndarray:
        dx = x[node - first_leaf] - qx[:, None]
        dy = y[node - first_leaf] - qy[:, None]
        return (dx * dx + dy * dy).min(axis=1)

    out = np.empty(len(q))
    # On scattered and grid-rounded sets a query keeps at most about 1.5 pairs
    # per level, so a chunk's frontier stays one batch.
    chunk = _KD_PAIRS // 4
    for start in range(0, len(q), chunk):
        qx, qy = q[start:start + chunk].T.copy()
        node = np.zeros(len(qx), np.intp)
        for _ in range(depth):
            left = 2 * node + 1
            node = left + (box_sq(qx, qy, left + 1) < box_sq(qx, qy, left))
        best = leaf_sq(qx, qy, node)
        batches = [(0, np.arange(len(qx)), np.zeros(len(qx), np.intp))]
        while batches:
            level, qi, node = batches.pop()
            if level == depth:
                np.minimum.at(best, qi, leaf_sq(qx[qi], qy[qi], node))
                continue
            qi = np.repeat(qi, 2)
            node = (2 * node[:, None] + (1, 2)).ravel()
            keep = box_sq(qx[qi], qy[qi], node) < best[qi]
            qi, node = qi[keep], node[keep]
            batches += [(level + 1, qi[b:b + _KD_PAIRS], node[b:b + _KD_PAIRS])
                        for b in range(0, len(qi), _KD_PAIRS)]
        out[start:start + len(qx)] = best
    return out


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
    """Tile the raster into scale-sized cells and bin both curves into them.

    The scale follows `Hyperparams`' rule (`core._check_scale`), and the
    raster sides the rule of every other raster size (`core._check_count`):
    integers, not bools, of at least 1, on a raster of at most
    `core.MAX_PIXELS` pixels (`core._check_raster`), refused before any
    allocation.
    """
    scale = _check_scale("patch scale", scale)
    _check_count("width", width)
    _check_count("height", height)
    _check_raster(width, height)
    _check_in_raster("s", s.points, width, height)
    _check_in_raster("e", e.points, width, height)
    gw = -(-width // scale)
    gh = -(-height // scale)
    counts_s, centroids_s = _bin_points(s.points, scale, gh, gw)
    counts_e, centroids_e = _bin_points(e.points, scale, gh, gw)
    for arr in (counts_s, centroids_s, counts_e, centroids_e):
        arr.setflags(write=False)
    return PatchGrid(counts_s, centroids_s, counts_e, centroids_e)


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
    present. The scales follow `Hyperparams`' rule (`core._check_scales`):
    at least one, none repeated.
    """
    per_scale = tuple(patch_centroid_distance(build_patch_grid(s, e, scale, width, height))
                      for scale in _check_scales("patch scales", scales))
    return BoundaryResult(float(np.mean([r.value for r in per_scale])), per_scale)


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


def _checked_boundary_window(boundary: PointSet, scales, h: int, w: int) -> tuple[slice, slice]:
    """`_boundary_window` of a boundary curve, which must be nonempty and lie on the h x w raster."""
    if len(boundary) == 0:
        raise EmptyPointSet("boundary curve is empty")
    _check_in_raster("e", boundary.points, w, h)
    return _boundary_window(boundary.points, scales, h, w)


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
    not. That check extracts edges on the whole flow only when the window
    holds none, and `extract_flow_edges` then scores only the box of the
    nonzero flow, so its cost follows the moving pixels, not the raster.
    """
    rows, cols = _checked_boundary_window(boundary, hp.scales, flow.height, flow.width)
    # The crop pays: on sparse512 the whole flow's extraction takes 1.4 ms, the window's 0.5 ms.
    # The public extractor, so that a per-layer trace of it still sees this work.
    edges = extract_flow_edges(FlowMap(flow.vectors[rows, cols]), hp).union
    if len(edges) == 0 and len(extract_flow_edges(flow, hp).union) == 0:
        return BoundaryResult(0.0, (), edges_empty=True)
    edges = PointSet(_readonly(edges.points + (cols.start, rows.start)))
    return multiscale_patch_distance(edges, boundary, hp.scales, flow.width, flow.height)


# ---------------------------------------------------------------------------
# Soft relaxation: per-pixel edge weights instead of a hard edge set, with an
# analytic gradient for the variational solver.
# ---------------------------------------------------------------------------

_MASS_FLOOR = 0.5  # cells with less soft edge mass than this are skipped

# Per 8-bit set of slots, its lowest slot; 0 for the empty set, as argmax gives.
_LOWEST_SLOT = np.array([(b & -b).bit_length() - 1 if b else 0 for b in range(256)], dtype=np.uint8)

# Bit n of a tie mask, per slot n.
_SLOT_BITS = 1 << np.arange(8, dtype=np.uint8)


def _tie_masks(slots: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Per pixel of each table in `slots`, shaped (8, *pixels) along axis 1,
    whose largest slot is `top`: a uint8 mask whose bit n marks slot n as
    equal to the max. Its `_LOWEST_SLOT` entry is the lowest such slot, as
    `(table == max).argmax(axis=0)` picks. The bits are distinct, so their
    uint8 sum is their union."""
    # Pays: `argmax` over the slots is 3-7x slower at 1 500-12 288 pixels.
    bits = (slots == top[:, None]).view(np.uint8)
    bits *= _SLOT_BITS.reshape((8,) + (1,) * (slots.ndim - 2))
    return bits.sum(axis=1, dtype=np.uint8)


def _ordered_sum(at: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """Per index below n, the float sum from +0 of its terms, added in input order."""
    return np.bincount(at, terms, n).astype(np.float64, copy=False)  # int64 when empty


def _soft_centroids(mass, sx, sy, tx, ty, bounds, floor: float):
    """Soft patch-centroid distances of one or more scales at once, from the
    per-cell sums `(mass, sx, sy)` and the target's centroids `(tx, ty)`;
    scale n owns the cells `bounds[n]` to `bounds[n + 1]`. A cell of no
    scale, such as a `SoftLayout`'s sentinel, must have mass 0.

    Cells with mass above `floor` enter. Returns per scale the mean distance
    over its entered cells (None if none enters) and the per-cell arrays
    `coeff, cx, cy, ex, ey` (0 off the entered cells): centroid c, offset
    e = c - t and 1 / (n_inc |e| m), with n_inc the count of entered cells of
    the cell's scale, so d(mean)/d(w_i) = coeff ((x_i - cx) ex + (y_i - cy) ey).
    Each scale's mean averages its entered cells in cell order, as the
    scale's own grid does.
    """
    include = mass > floor
    safe_m = np.where(include, mass, 1.0)
    cx = np.where(include, sx / safe_m, 0.0)
    cy = np.where(include, sy / safe_m, 0.0)
    ex = np.where(include, cx - tx, 0.0)
    ey = np.where(include, cy - ty, 0.0)
    d = np.hypot(ex, ey)
    # 1 where no cell enters, whose coefficients are 0: n_inc = 0 would divide by zero
    n_inc = np.ones(mass.size, dtype=np.intp)
    means = []
    for lo, hi in zip(bounds, bounds[1:]):
        entered = d[lo:hi][include[lo:hi]]
        means.append(float(entered.mean()) if entered.size else None)
        n_inc[lo:hi] = max(entered.size, 1)
    safe_d = np.where(d > 1e-12, d, 1.0)
    coeff = np.where(include & (d > 1e-12), 1.0 / (n_inc * safe_d * safe_m), 0.0)
    return means, (coeff, cx, cy, ex, ey)


@dataclass(frozen=True, eq=False)
class _PairPlan:
    """Which neighbor pairs of a window the soft term scores, and the pixels
    of its slot table: the `ring`, the free pixels and their 8-neighbors.

    `ring` picks the ring from the window's pixels, flattened: `slice(None)`
    when the ring fills the window, else their flat indices, ascending. A
    ring pixel's position is its index in the ring. `nbr` is the (8,
    len(ring)) int32 table of the ring position of each slot's neighbor,
    -1 off the raster and -2 at a pinned pixel off the ring, and
    `off_raster` the flat positions in that table of the -1 slots. `pairs`
    holds groups `(i, j, put_i, put_j)`: `i` and `j` pick the first and
    second pixels of the group's pairs from the ring's arrays, and `put_i`
    and `put_j` their slots in the (8, len(ring)) table of weights,
    flattened. A ring that fills the window scores every pair, one group per
    forward offset k of `_NEIGHBORS[:4]`, flat offset -o: `i` and `j` are
    the contiguous slices from o and to n - o of the n window pixels, and
    `put_i` and `put_j` the matching slices of slots k and 7 - k. A pair
    that wraps onto the other side of the window lands in an off-raster
    slot. Otherwise one group scores the pairs with a free endpoint, as
    arrays of ring positions and flat table positions. `pinned` holds the
    flat indices, in the window's flow flattened, of both channels of the
    pixels the solve cannot move.
    """

    pairs: tuple
    ring: slice | np.ndarray
    nbr: np.ndarray
    off_raster: np.ndarray
    pinned: np.ndarray


def _pair_plan(free: np.ndarray) -> _PairPlan:
    """The `_PairPlan` of a window given its `free` pixels."""
    h, wd = free.shape
    slices = [_pair_slices(dy, dx, h, wd) for dy, dx in _NEIGHBORS[:4]]
    on_ring = free.copy()
    touches = []
    for i, j in slices:
        touch = free[i] | free[j]
        on_ring[i] |= touch
        on_ring[j] |= touch
        touches.append(touch)
    n = int(on_ring.sum())
    # The ring pays: its bounding box through slices made ref128's soft term 17-22 % slower forward, 25-39 % backward.
    ring = slice(None) if n == h * wd else np.flatnonzero(on_ring)
    at = np.full(h * wd, -2)  # intp: numpy casts an int32 index array at every gather
    at[ring] = np.arange(n)
    at = at.reshape(h, wd)
    pad = np.full((h + 2, wd + 2), -1, dtype=np.int32)
    pad[1:-1, 1:-1] = at
    nbr = np.empty((8, n), dtype=np.int32)
    for k, (dy, dx) in enumerate(_NEIGHBORS):
        nbr[k] = pad[1 + dy:1 + dy + h, 1 + dx:1 + dx + wd].ravel()[ring]
    pinned = np.flatnonzero(np.repeat(~free.ravel(), 2))
    off_raster = np.flatnonzero(nbr == -1)
    if isinstance(ring, slice):
        # Pays: flat contiguous pairs made refine2's soft forward pass 1.2x faster than 2-D strided slices
        # (2.14-2.22 -> 1.80-1.85 ms per call); gathering every pair made the refine2 solve 1.41-1.64x slower.
        offsets = [min(-(dy * wd + dx), n) for dy, dx in _NEIGHBORS[:4]]
        pairs = tuple((slice(o, n), slice(0, n - o), slice(k * n + o, (k + 1) * n), slice((7 - k) * n, (8 - k) * n - o))
                      for k, o in enumerate(offsets))
        return _PairPlan(pairs, ring, nbr, off_raster, pinned)
    pi, pj = (np.concatenate([at[ij[end]][touch] for ij, touch in zip(slices, touches)]) for end in (0, 1))
    slot = np.repeat(np.arange(4), [touch.sum() for touch in touches]) * n
    return _PairPlan(((pi, pj, slot + pi, 7 * n - slot + pj),), ring, nbr, off_raster, pinned)


@dataclass(frozen=True, eq=False)
class SoftLayout:
    """What the soft boundary term reads of a boundary curve besides the
    flow, built once by `soft_layout` from `boundary` at the patch `scales`:
    the boundary-cell `window` (rows, columns) of the raster, the `_PairPlan`
    `plan` of the pairs it scores, which knows the window's free pixels, and
    the cells of every scale at once.

    Only a cell that holds a boundary point (a present cell) can enter the
    value, so the cells of all scales are numbered in one batch: scale n's
    present cells are `bounds[n]` to `bounds[n + 1]`, in row-major order on
    the grid of the raster's top-left part that ends with the window (which
    holds every present cell and orders them as the whole raster's grid
    does), and cell 0 is a sentinel that no pixel enters. `tx` and `ty` hold
    each cell's boundary centroid (0 at the sentinel). The pixels of the
    present cells are listed once per scale, scale by scale and row-major
    within a scale: `at` holds their flat indices in the window, `cell`
    their batched cell ids, and `x` and `y` their global columns and rows.
    So every per-cell sum adds its pixels in the order of the whole raster's
    grid, from +0. `ring_entries` holds, as `(at, cell, x, y)` in the same
    scale-major order, the entries whose pixel lies on the plan's ring, with
    `at` their ring positions: when the ring fills the window, the entries
    themselves. Its arrays are read-only.
    """

    boundary: PointSet
    scales: tuple
    window: tuple[slice, slice]
    plan: _PairPlan
    at: np.ndarray
    cell: np.ndarray
    x: np.ndarray
    y: np.ndarray
    tx: np.ndarray
    ty: np.ndarray
    bounds: tuple
    ring_entries: tuple


def soft_layout(boundary: PointSet, hp: Hyperparams, height: int, width: int,
                free: np.ndarray | None = None) -> SoftLayout:
    """The `SoftLayout` of `boundary` at the patch scales `hp.scales` on a
    height x width raster. Raises as the soft boundary term does on an empty
    boundary or one off the raster.

    `free`, a boolean height x width plane, marks the pixels a solve can
    move; every other pixel is pinned: its flow is +-0 at every call, and the
    soft term refuses a flow that moves one. The layout then plans to score
    only the neighbor pairs of its window with a free endpoint, or every
    pair when the free pixels and their 8-neighbors fill the window (see
    `soft_boundary_constraint`). None, the default, frees every pixel.
    The raster sides follow `core._check_count`.
    """
    _check_count("width", width)
    _check_count("height", height)
    rows, cols = _checked_boundary_window(boundary, hp.scales, height, width)
    wd = cols.stop - cols.start
    if free is not None:
        free = np.asarray(free, dtype=bool)
        if free.shape != (height, width):
            raise DimensionMismatch(f"free mask of shape {free.shape} does not cover {height}x{width}")
        free = free[rows, cols]
    else:
        free = np.ones((rows.stop - rows.start, wd), dtype=bool)
    ys, xs = np.arange(rows.start, rows.stop)[:, None], np.arange(cols.start, cols.stop)
    plan = _pair_plan(free)
    at, cell, tx, ty, bounds = [], [], [np.zeros(1)], [np.zeros(1)], [1]
    for scale in hp.scales:
        gh, gw = -(-rows.stop // scale), -(-cols.stop // scale)
        counts, centroids = _bin_points(boundary.points, scale, gh, gw)
        present = np.flatnonzero(counts)
        batched = np.zeros(gh * gw, dtype=np.intp)
        batched[present] = np.arange(bounds[-1], bounds[-1] + present.size)
        plane = batched[(ys // scale) * gw + (xs // scale)].ravel()
        inside = np.flatnonzero(plane)
        at.append(inside)
        cell.append(plane[inside])
        tx.append(centroids[..., 0].ravel()[present])
        ty.append(centroids[..., 1].ravel()[present])
        bounds.append(bounds[-1] + present.size)
    at, cell = np.concatenate(at), np.concatenate(cell)
    y, x = np.divmod(at, wd)
    x, y = (x + cols.start).astype(np.float64), (y + rows.start).astype(np.float64)
    if isinstance(plan.ring, slice):  # every entry is on the ring, at its own window position
        ring_entries = (at, cell, x, y)
    else:
        position = np.full(free.size, -1)
        position[plan.ring] = np.arange(plan.ring.size)
        position = position[at]
        on = position >= 0
        ring_entries = (position[on], cell[on], x[on], y[on])
    layout = SoftLayout(boundary, hp.scales, (rows, cols), plan, at, cell, x, y,
                        np.concatenate(tx), np.concatenate(ty), tuple(bounds), ring_entries)
    plan_arrays = (plan.ring, plan.nbr, plan.off_raster, plan.pinned, *chain(*plan.pairs))
    for arr in (layout.at, layout.cell, layout.x, layout.y, layout.tx, layout.ty, *layout.ring_entries,
                *(a for a in plan_arrays if isinstance(a, np.ndarray))):
        arr.setflags(write=False)
    return layout


def soft_boundary_constraint(
    flow: FlowMap,
    boundary: PointSet,
    hp: Hyperparams,
    tau: float,
    *,
    layout: SoftLayout | None = None,
) -> tuple[float, Callable[[], np.ndarray]]:
    """Differentiable relaxation of the boundary constraint.

    Edge membership becomes a per-pixel sigmoid weight on the neighbor
    discontinuities (the two measures are combined by a smooth union), cell
    centroids become weight-weighted means, and the gradient is analytic in
    every flow vector.

    Runs the forward pass and returns (value, backward): `backward()` runs
    the backward pass and returns the gradient, so a caller that needs only
    the value (a line-search trial that is rejected) skips that work. The
    forward pass computes what the value needs and no more: the pair
    weights, each pixel's largest weights and the mask of the slots that
    attain them, and the cell sums and per-cell arrays of every scale at
    once: one gather of the pixel weights at the layout's present-cell
    pixels, one `_cell_sums` over the batched cells and one
    `_soft_centroids`, whose per-scale means are added in scale order. The
    backward pass builds each ring pixel's d(value)/dw from the same
    per-cell arrays, one term per present-cell entry on the ring, added in
    scale order by one `np.bincount`, and reads the argmax slots where it
    is nonzero. Value and gradient are bitwise those of a single combined
    pass.

    Each neighbor pair (i, j) is scored once, over the 4 forward offsets,
    and its intensity weight b and angular weight a are written into a slot
    table: slot n of a pixel holds its pair with neighbor _NEIGHBORS[n]
    (pair min(n, 7 - n), seen from its first pixel when n < 4) and an
    off-raster slot holds 0. A pixel's weights are the largest of its 8
    slots, and the gradient flows through the lowest slot that attains it
    (slot 0 when all 8 are 0), read from an 8-bit mask of the slots equal to
    the max (`_tie_masks`).

    Pair dot products are written out, x_i x_j + y_i y_j. Where both
    products are -0 this gives -0 and numpy's 2-element `sum` gives +0, but
    the sign of a zero reaches neither the value nor the gradient: the cosine
    enters only arccos and cos^2, which ignore it, and each gradient term
    enters a bincount sum that starts at +0, which adding a zero of either
    sign leaves unchanged. So no `+ 0.0` is needed to stay bitwise equal.

    The backward pass gathers, at the pixels with a nonzero d(value)/dw
    whose argmax slot is on the raster, both pixels of the argmax pair,
    recomputes that pair's angular gate, sigmoid and cosine factor there
    (each symmetric in the pair, so bitwise the forward values), and sums
    every pixel's terms with one `np.bincount` per output after a stable
    sort by slot and term. So each pixel adds its terms in the order of a
    loop over its slots, term by term, from +0, and the gradient is bitwise
    that of such a loop.

    Only patch cells that hold a boundary point enter the value, so the
    forward and backward passes run on the boundary-cell window alone (see
    `_boundary_window`) and the cost follows the boundary's extent, not the
    raster. The gradient is exactly 0 outside that window, and value and
    gradient equal the full-raster evaluation bitwise: the scored cells lie
    inside the window with their full neighbor sets, each cell sums its
    pixels in the same row-major order, and each pixel's gradient adds run in
    the same slot order. Of the window's pixels, only those of cells that
    hold a boundary point are summed (see `SoftLayout`): a cell without one
    never enters the value, and its d(value)/dw term is +0, which leaves a
    sum from +0 as it is.

    A layout built with free pixels scores only the pairs that touch one
    (its `_PairPlan`). A pinned pixel holds +-0, so a pair of two pinned
    pixels has b = sigmoid(-theta_i / tau) and a = +0 exactly. A pinned
    pixel off the ring (the free pixels and their 8-neighbors) has only
    such pairs, so its weights take that closed form; a ring pixel fills its
    8 slots from it and from the scored pairs, and takes the max and tie
    mask as above. The cell sums still add the pixels of each present cell
    in row-major order, so the value is bitwise that of scoring every pair.
    The backward pass runs at the live ring pixels alone: off the ring the
    argmax pair is two pinned pixels, whose intensity term carries
    sign(0 - 0) = 0 and whose moving gate is 0, and adding a +-0 to a sum
    from +0 leaves its bytes, so the gradient keeps every byte, signed zeros
    on pinned pixels included.
    The ring's neighbor table names each argmax neighbor, so the backward
    pass works on the ring alone and pastes its gradient into zeros. A flow
    that is nonzero on a pinned pixel raises ValidationError. When the ring
    fills the window, as it does when every pixel is free, every pair is
    scored through contiguous slices of the flattened window, one per
    forward offset. The slices also pair pixels on opposite sides of the
    window, whose slots are off the raster and are reset to 0 with the
    others off the raster, so every slot holds what it would hold without
    them.

    `tau` follows the solver's rule (`core._check_tau`): a finite number,
    not a bool, in `TAU_RANGE`; anything else raises ValidationError.

    `layout`, if given, is a `SoftLayout` that `soft_layout` built from this
    `boundary` object and `hp.scales` on the raster; anything else, another
    term's layout or one of another curve or scale set included, raises
    ValidationError. `flow` then covers its window alone, and the gradient
    has `flow`'s shape. A solver builds it once, with the pixels it can
    move, and passes it at every evaluation. None, the default, builds it
    here, from the raster of `flow`, with every pixel free, and the gradient
    has the raster's shape.
    """
    tau = _check_tau("tau", tau)
    if layout is None:
        layout = soft_layout(boundary, hp, flow.height, flow.width)
        rows, cols = layout.window
        value, backward = _soft_boundary(flow.vectors[rows, cols], layout, hp, tau)

        def pasted() -> np.ndarray:
            grad = np.zeros(flow.vectors.shape)
            grad[rows, cols] = backward()
            return grad

        return value, pasted
    if not isinstance(layout, SoftLayout):
        raise ValidationError(f"layout must be a SoftLayout or None, got {type(layout).__name__}")
    if layout.boundary is not boundary or layout.scales != hp.scales:
        raise ValidationError("the soft layout was built from another boundary or scale set")
    rows, cols = layout.window
    if flow.vectors.shape[:2] != (rows.stop - rows.start, cols.stop - cols.start):
        raise DimensionMismatch(f"flow of {flow.width}x{flow.height} does not fill the "
                                f"{cols.stop - cols.start}x{rows.stop - rows.start} boundary-cell window")
    return _soft_boundary(flow.vectors, layout, hp, tau)


def _ring_dvdw(layout: SoftLayout, per_cell, n_scales: int) -> np.ndarray:
    """d(value)/dw at each pixel of the ring of `layout`, from the batched
    per-cell arrays `coeff, cx, cy, ex, ey` of `_soft_centroids`: one term per
    entry on the ring, summed per pixel from +0 in the entries' scale-major
    order, so in scale order. A cell that did not enter has every array 0,
    so its term is +-0, which leaves a sum from +0 as it is; a pixel without
    an entry gets +0."""
    at, cid, x, y = layout.ring_entries
    coeff, cx, cy, ex, ey = per_cell
    terms = coeff[cid] * ((x - cx[cid]) * ex[cid] + (y - cy[cid]) * ey[cid]) / n_scales
    return _ordered_sum(at, terms, layout.plan.nbr.shape[1])


def _angular_terms(pa, qa, common, mx, my, r, du, wu, hp: Hyperparams, tau: float, s2: float):
    """The soft term's gradient terms through each angular argmax pair (p, q)
    whose moving gate g = wu_p wu_q is > 0, given `common` = d(value)/d(a)
    there, a = g siga, on the ring's flow (mx, my), r, du and wu: the terms
    of d(value)/d(r_p) and d(value)/d(r_q) through wu, and per flow channel
    the terms at p, then at q, through the stabilized cosine. A function of
    its own so that its temporaries are freed before the sort and the sums,
    where the backward pass peaks."""
    wui, wuj = wu[pa], wu[qa]
    g = wui * wuj
    xi, yi, xj, yj, dui, duj = mx[pa], my[pa], mx[qa], my[qa], du[pa], du[qa]
    dot = xi * xj + yi * yj
    dij = dui * duj
    siga, cosfac = _soft_angle(dot / dij, hp.edge_theta_a, tau)
    ri, rj = r[pa], r[qa]
    ang_i = common * siga * wuj * (2.0 * ri * s2 / (ri * ri + s2) ** 2)
    ang_j = common * siga * wui * (2.0 * rj * s2 / (rj * rj + s2) ** 2)
    # factor d(cos)/d(m_p) and factor d(cos)/d(m_q), per channel, by `core._dcos`'s operations
    factor = common * g * cosfac
    ci, cj = dot / (dui ** 3 * duj), dot / (duj ** 3 * dui)
    flow_terms = [np.concatenate([factor * (vj / dij - ci * vi), factor * (vi / dij - cj * vj)])
                  for vi, vj in ((xi, xj), (yi, yj))]
    return ang_i, ang_j, flow_terms


def _pair_weights(r, mx, my, du, wu, i, j, hp: Hyperparams, tau: float):
    """The intensity weight b and the angular weight a = g siga, with moving
    gate g, of the pairs (i, j) of pixels with norm r, flow (mx, my),
    stabilized norm du and gate factor wu: b = sigmoid((|r_i - r_j| -
    theta_i) / tau) and a = wu_i wu_j angle_gate((x_i x_j + y_i y_j) / (du_i
    du_j)). Each step writes into one of three buffers, with the operations
    of those expressions in their order."""
    # Pays: the buffers made refine2's soft forward pass 1.08x faster than a temporary per step
    # (1.84 -> 1.71 ms per call).
    b = np.subtract(r[i], r[j])
    np.abs(b, out=b)
    np.subtract(b, hp.edge_theta_i, out=b)
    np.divide(b, tau, out=b)
    _sigmoid(b, out=b)
    a = np.multiply(mx[i], mx[j])
    t = np.multiply(my[i], my[j])
    np.add(a, t, out=a)
    np.divide(a, np.multiply(du[i], du[j], out=t), out=a)
    _angle_gate(a, hp.edge_theta_a, tau, out=a)
    np.multiply(np.multiply(wu[i], wu[j], out=t), a, out=a)
    return b, a


def _soft_boundary(m: np.ndarray, layout: SoftLayout, hp: Hyperparams, tau: float):
    """`soft_boundary_constraint` of the flow `m` on the window of `layout`,
    as (value, backward); `backward()` returns the gradient on `m`.

    Pixels at the edge of `m` miss some neighbor slots, so their weights are
    off, but `_boundary_window`'s 1 px halo keeps them out of every scored
    cell.
    """
    h, wd = m.shape[:2]
    plan = layout.plan
    mf = m.reshape(-1)
    if mf[plan.pinned].any():
        raise ValidationError("the flow moves a pixel that the soft layout pins")

    # Forward: per planned pair, b and a into the slot table of both pixels,
    # on the ring.
    mx, my = mf[0::2][plan.ring], mf[1::2][plan.ring]
    r = np.hypot(mx, my)
    s = EPS_VEC + tau
    s2 = s * s
    r2 = r * r
    du = np.sqrt(r2 + s2)
    wu = r2 / (r2 + s2)
    # A pair of pinned pixels (r = +0, wu = +0) has b = sigmoid(-theta_i / tau)
    # and a = +0: a gathered ring's slots start there, and every slot off the
    # raster holds 0. A full ring's pairs write all its other slots.
    b0 = _sigmoid(np.array([-hp.edge_theta_i / tau]))[0]
    slots = np.empty((2,) + plan.nbr.shape)
    if not isinstance(plan.ring, slice):
        slots[0].fill(b0)
        slots[1].fill(0.0)
    tables = slots.reshape(2, -1)
    for i, j, put_i, put_j in plan.pairs:
        for table, weight in zip(tables, _pair_weights(r, mx, my, du, wu, i, j, hp, tau)):
            table[put_i] = weight
            table[put_j] = weight
    tables[:, plan.off_raster] = 0.0

    # Every weight is >= +0, so the first slot equal to the max is the one a
    # running max with a strict > keeps: the lowest on ties, slot 0 if all are 0.
    # The forward pass keeps only the tie masks; the backward pass reads the
    # lowest slot at the pixels it needs.
    top = slots.max(axis=1)
    ties_i, ties_a = _tie_masks(slots, top)
    wi, wa = top
    del slots, tables
    # A pinned pixel off the ring has b0 in each slot on the raster: its
    # weights are (b0, +0), so w = 1 - (1 - b0), or (0, 0) in a 1 x 1 window.
    w = np.full(h * wd, 1.0 - (1.0 - b0) if h * wd > 1 else 0.0)
    w[plan.ring] = 1.0 - (1.0 - wi) * (1.0 - wa)

    # Per batched cell, the sums of w, w x and w y over the pixels of the present cells.
    sums = _cell_sums(layout.cell, layout.x, layout.y, layout.tx.size, w[layout.at])
    means, per_cell = _soft_centroids(*sums, layout.tx, layout.ty, layout.bounds, _MASS_FLOOR)
    n_scales = len(means)
    value = 0.0
    for mean in means:
        if mean is not None:  # no cell of the scale entered
            value += mean / n_scales

    def backward() -> np.ndarray:
        # Backward through w = 1 - (1 - wi)(1 - wa) and the argmax pair's
        # sigmoids, at the ring pixels p with dvdw != 0 (a term at dvdw == 0
        # is +-0 and every sum starts at +0, so skipping it keeps every bit).
        # Off the ring p and its argmax neighbor q are pinned, and so are the
        # pixels of a pair that leaves the ring: the intensity term carries
        # sign(0 - 0) = 0 and the moving gate drops the angular one. So the
        # gradient is built on the ring alone and pasted into zeros.
        dvdw = _ring_dvdw(layout, per_cell, n_scales)
        live = np.flatnonzero(dvdw)
        dvdw = dvdw[live]

        def argmax_pairs(ties):
            """(sel, slot, q): the positions in `live` of the pixels whose argmax
            slot, the lowest in their tie mask, holds a ring pixel, that slot,
            and the ring position of that pixel q."""
            slot = _LOWEST_SLOT[ties[live]]
            q = plan.nbr[slot, live]
            on = np.flatnonzero(q >= 0)
            return on, slot[on], q[on].astype(np.intp)  # cast once, not at every gather

        # intensity path: b = wi(p), with d(b)/d(r_p) = -d(b)/d(r_q)
        sel, slot_i, q = argmax_pairs(ties_i)
        p = live[sel]
        b = wi[p]
        common_i = dvdw[sel] * (1.0 - wa[p]) * b * (1.0 - b) / tau * np.sign(r[p] - r[q])

        # angular path, for the pairs whose moving gate g is > 0: a = g siga
        # through wu and the stabilized cosine
        sel, slot_a, qa = argmax_pairs(ties_a)
        moving = wu[live[sel]] * wu[qa] > 0
        sel, slot_a, qa = sel[moving], slot_a[moving], qa[moving]
        pa = live[sel]
        ang_i, ang_j, flow_terms = _angular_terms(pa, qa, dvdw[sel] * (1.0 - wi[pa]),
                                                  mx, my, r, du, wu, hp, tau, s2)

        # Terms in the order of a loop over slots: per slot, intensity at p,
        # intensity at q, angular at p, angular at q. uint8 keys sort by radix.
        key = np.concatenate([slot_i * 4, slot_i * 4 + 1, slot_a * 4 + 2, slot_a * 4 + 3])
        order = np.argsort(key, kind="stable")
        to = np.concatenate([p, q, pa, qa])[order]
        grad_r = _ordered_sum(to, np.concatenate([common_i, -common_i, ang_i, ang_j])[order], r.size)
        angular = order >= 2 * p.size
        to, at = to[angular], order[angular] - 2 * p.size

        # d(value)/d(m) = d(value)/d(m) through the cosine + grad_r m / r. Where
        # r is subnormal, grad_r / r may overflow; m / r, at most 1, does not.
        with np.errstate(over="ignore"):
            per_r = grad_r / np.where(r > 0, r, 1.0)
        tiny = np.flatnonzero(~np.isfinite(per_r))
        per_r[tiny] = 0.0
        grad = np.zeros((h * wd, 2))
        for c, (terms, mc) in enumerate(zip(flow_terms, (mx, my))):
            radial = per_r * mc
            radial[tiny] = grad_r[tiny] * (mc[tiny] / r[tiny])
            grad[plan.ring, c] = _ordered_sum(to, terms[at], r.size) + radial
        return grad.reshape(m.shape)

    return value, backward


# ---------------------------------------------------------------------------
# Curve morphing driven purely by the patch-centroid distance.
# ---------------------------------------------------------------------------


# Control grid rows x columns, patch scales and first trial step of the curve morph.
_MORPH_GRID_SHAPE = (10, 10)
_MORPH_SCALES = (4, 8, 16, 32)
# A fixed first step pays: 1/max|g| gave a worst Chamfer ratio of 0.228, not 0.197, on 32 curve pairs.
_MORPH_STEP_SIZE = 4.0


@dataclass(frozen=True)
class MorphOptions:
    """Budget and stopping tolerance of `morph_curve_fit`, and its raster size;
    a `width` or `height` of None fits the raster to the curves."""

    max_iters: int = 400
    tolerance: float = 1e-4
    width: int | None = None
    height: int | None = None

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        _check_positive("tolerance", self.tolerance)
        for name in ("width", "height"):
            if getattr(self, name) is not None:
                _check_count(name, getattr(self, name))


@dataclass(frozen=True)
class MorphResult:
    displacement: np.ndarray
    moved: PointSet
    objective_trace: tuple
    stop: str  # why `armijo_descent` stopped

    @property
    def converged(self) -> bool:
        return self.stop not in _UNCONVERGED


# The (di, dj) node offset of each corner of a grid cell, one row per corner.
_CORNER_DI = np.array([0, 1, 0, 1])[:, None]
_CORNER_DJ = np.array([0, 0, 1, 1])[:, None]


def _bilinear_corners(u: np.ndarray, v: np.ndarray, gw: int, gh: int, du: float = 1.0):
    """Bilinear assignment of fractional grid positions (u, v) to their 2x2
    surrounding nodes of a gw x gh grid.

    Returns (nodes, weights, slopes): nodes and weights are (n, 4), and
    off-grid nodes carry zero weight and point at node 0. `slopes()` returns
    dw/dx and dw/dy, each (n, 4), where `du` is du/dx = dv/dy; only a
    gradient needs them, so they are not built until it asks. The work runs
    on (4, n) arrays, whose long axis is the inner one, and each result is
    copied out as a contiguous (n, 4) array.
    """
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    tx = u - i0
    ty = v - j0
    ci, cj = i0 + _CORNER_DI, j0 + _CORNER_DJ
    wx = np.where(_CORNER_DI == 1, tx, 1.0 - tx)
    wy = np.where(_CORNER_DJ == 1, ty, 1.0 - ty)
    # A negative index seen as unsigned is far above any grid size.
    ok = (ci.view(np.uint64) < gw) & (cj.view(np.uint64) < gh)

    def slopes():
        gx = np.where(_CORNER_DI == 1, du, -du)
        gy = np.where(_CORNER_DJ == 1, du, -du)
        return np.where(ok, gx * wy, 0.0).T.copy(), np.where(ok, wx * gy, 0.0).T.copy()

    return np.where(ok, cj * gw + ci, 0).T.copy(), np.where(ok, wx * wy, 0.0).T.copy(), slopes


def _bilinear_weights(points: np.ndarray, gh: int, gw: int, width: int, height: int):
    """Control-grid corner indices and weights for each point."""
    fx = points[:, 0] / max(width - 1, 1) * (gw - 1)
    fy = points[:, 1] / max(height - 1, 1) * (gh - 1)
    fx = np.clip(fx, 0.0, gw - 1 - 1e-9)
    fy = np.clip(fy, 0.0, gh - 1 - 1e-9)
    return _bilinear_corners(fx, fy, gw, gh)[:2]


def _to_nodes(nodes: np.ndarray, weights: np.ndarray, point_grad: np.ndarray, n_nodes: int) -> np.ndarray:
    """Per grid node, the sum of weight * point gradient over the (point,
    corner) pairs that name it, as an (n_nodes, 2) array. Each node adds its
    terms in point order from +0, one `np.bincount` per channel, so the sums
    are bitwise those of `np.add.at`."""
    at = nodes.ravel()
    return np.stack([_ordered_sum(at, (weights * point_grad[:, c:c + 1]).ravel(), n_nodes)
                     for c in range(2)], axis=1)


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
        cells, tw, _ = _soft_bin(points, scale, gw, gh)
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
        cells, w, slopes = _soft_bin(moved, scale, gw, gh)
        m, sx, sy = _cell_sums(cells, moved[:, 0:1], moved[:, 1:2], gh * gw, w)
        # A cell enters only where the target's mass passes the floor too: 0 mass elsewhere keeps it out.
        (mean,), per_cell = _soft_centroids(np.where(me > _MORPH_MASS_FLOOR, m, 0.0), sx, sy, ce_x, ce_y,
                                            (0, gh * gw), _MORPH_MASS_FLOOR)
        if mean is None:
            continue
        value += mean / len(scales)
        kept.append(((cells, w, slopes), per_cell))

    def gradient() -> np.ndarray:
        # Point i reaches cell c through its weight w and through the centroid's
        # x_i term: d(d_c)/dx_i = coeff (w ex + dw/dx pull), pull = (x_i - cx) ex + (y_i - cy) ey.
        grad = np.zeros((moved.shape[0], 2))
        for (cells, w, slopes), (coeff, cx, cy, ex, ey) in kept:
            dwdx, dwdy = slopes()
            c, ex_c, ey_c = coeff[cells], ex[cells], ey[cells]
            pull = (moved[:, 0:1] - cx[cells]) * ex_c + (moved[:, 1:2] - cy[cells]) * ey_c
            grad[:, 0] += (c * (w * ex_c + dwdx * pull)).sum(axis=1)
            grad[:, 1] += (c * (w * ey_c + dwdy * pull)).sum(axis=1)
        return grad / len(scales)

    return value, gradient


def morph_curve_fit(moving: PointSet, target: PointSet, opts: MorphOptions = MorphOptions()) -> MorphResult:
    """Fit a coarse displacement grid moving one curve onto another.

    The control grid is bilinearly interpolated at the moving points and
    optimized by backtracking gradient descent on the multiscale
    patch-centroid distance alone. Non-convergence is reported through
    `stop` and the `converged` flag; the best iterate is always returned.
    Both curves must lie on the raster, from 0 to below `width` and
    `height`; a curve with a point off it, or a raster, given or fitted, of
    more than `core.MAX_PIXELS` pixels (`core._check_raster`) is refused
    (ValidationError) before any allocation.
    """
    if len(moving) == 0 or len(target) == 0:
        raise EmptyPointSet("morph_curve_fit requires two nonempty curves")
    pts = moving.points
    width = opts.width or int(np.ceil(max(pts[:, 0].max(), target.points[:, 0].max()) + 2))
    height = opts.height or int(np.ceil(max(pts[:, 1].max(), target.points[:, 1].max()) + 2))
    _check_raster(width, height)
    _check_in_raster("moving", pts, width, height)
    _check_in_raster("target", target.points, width, height)
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
            return _to_nodes(corners, weights, point_gradient(), len(d))

        return value, grid_gradient

    value, gradient = loss(disp)
    grad = gradient()
    del gradient  # its forward state is not needed during the descent
    trace = [value]
    disp, stop = armijo_descent(
        loss, disp, value, grad, _MORPH_STEP_SIZE, opts.max_iters, opts.tolerance,
        lambda d, v, step: trace.append(v),
    )
    moved = PointSet(_readonly(pts + field_at_points(disp)))
    return MorphResult(disp.reshape(gh, gw, 2), moved, tuple(trace), stop)

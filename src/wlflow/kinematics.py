"""Skeleton-guided kinematic constraint on flow fields.

The constraint combines an angular term (flow direction must stay within a
cone around the matched skeleton offset) and an intensity term (flow
magnitude must stay within a multiplicative band of the offset magnitude),
aggregated over matched pixels and normalized by the full pixel count.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import EPS_VEC, FlowMap, Hyperparams, SubjectMask, _dcos, _soft_angle, validate_pairing
from .errors import DimensionMismatch, ValidationError
from .skeleton import SkeletonOffsets


@dataclass(frozen=True)
class ConstraintReport:
    """Aggregate value plus diagnostics of a constraint evaluation."""

    f_value: float
    angular_violation_fraction: float
    intensity_mean_penalty: float
    matched_pixels: int
    f_matched_normalized: float


def angular_term(u, k, theta_a: float) -> float:
    """1 if the angle between u and k exceeds theta_a degrees, else 0.

    Both below EPS_VEC counts as jointly static (0); exactly one below
    EPS_VEC is motion without skeletal support, or vice versa (1). This is
    `skeleton_constraint`'s per-pixel term for one pair.
    """
    hp = Hyperparams(theta_a=theta_a)
    fa, _ = _terms(np.array([u], dtype=np.float64), np.array([k], dtype=np.float64), hp)
    return float(fa[0])


def intensity_term(u, k, theta_il: float, theta_ih: float) -> float:
    """ReLU[(|u| - theta_il |k|)(|u| - theta_ih |k|)]; zero inside the band.
    This is `skeleton_constraint`'s per-pixel term for one pair."""
    hp = Hyperparams(theta_il=theta_il, theta_ih=theta_ih)
    _, fi = _terms(np.array([u], dtype=np.float64), np.array([k], dtype=np.float64), hp)
    return float(fi[0])


@dataclass(frozen=True, eq=False)
class SkeletonLayout:
    """What the skeleton terms read of their priors besides the flow, built
    once by `skeleton_layout` from `offsets`, `matches` and `mask`: the
    `window` (rows, columns) of the mask's raster that a flow covers (None
    for all of it), the flat indices `at` in that window of the matched
    pixels, row-major, and their skeleton offsets `k` (n, 2) with the
    squared norms `rk2` and norms `rk` of those. Its arrays are read-only."""

    offsets: SkeletonOffsets
    matches: np.ndarray
    mask: SubjectMask
    window: tuple[slice, slice] | None
    at: np.ndarray
    k: np.ndarray
    rk2: np.ndarray
    rk: np.ndarray


def skeleton_layout(offsets: SkeletonOffsets, matches: np.ndarray, mask: SubjectMask,
                    window: tuple[slice, slice] | None = None) -> SkeletonLayout:
    """The `SkeletonLayout` of a flow that covers the `window` of the mask's
    raster, or all of it when `window` is None. Refuses the match table as
    `_check_matches` does, reading the part inside the window alone."""
    table = _check_matches(matches, offsets, mask, window).ravel()
    at = np.flatnonzero(table >= 0)
    k = offsets.vectors[table[at]]
    kx, ky = k.T
    rk2 = kx ** 2 + ky ** 2
    rk = np.sqrt(rk2)
    for arr in (at, k, rk2, rk):
        arr.setflags(write=False)
    return SkeletonLayout(offsets, matches, mask, window, at, k, rk2, rk)


def _matched_flow(flow: FlowMap, offsets: SkeletonOffsets, matches: np.ndarray, mask: SubjectMask,
                  window: tuple[slice, slice] | SkeletonLayout | None) -> tuple[SkeletonLayout, np.ndarray]:
    """The `SkeletonLayout` of `window` (built here unless it is one) and
    the flow vectors `u` (n, 2) of `flow` at its matched pixels. Refuses a
    layout built from other priors (ValidationError) and a flow that does
    not fill its window (DimensionMismatch)."""
    layout = window if isinstance(window, SkeletonLayout) else None
    if layout is not None:
        if layout.offsets is not offsets or layout.matches is not matches or layout.mask is not mask:
            raise ValidationError("the skeleton layout was built from other offsets, matches or mask")
        window = layout.window
    if window is None:
        validate_pairing(flow, mask)
    elif mask.labels[window].shape != flow.vectors.shape[:2]:
        raise DimensionMismatch(
            f"flow {flow.width}x{flow.height} does not fill its window of the {mask.width}x{mask.height} mask"
        )
    if layout is None:
        layout = skeleton_layout(offsets, matches, mask, window)
    return layout, flow.vectors.reshape(-1, 2)[layout.at]


def _check_matches(matches, offsets: SkeletonOffsets, mask: SubjectMask,
                   window: tuple[slice, slice] | None = None) -> np.ndarray:
    """The `window` of `matches` (all of it when None), refused unless the
    table is an integer array shaped like the mask (DimensionMismatch) whose
    every entry in the window is -1 (unmatched) or an index into `offsets`
    (ValidationError)."""
    matches = np.asarray(matches)
    if matches.shape != mask.labels.shape or not np.issubdtype(matches.dtype, np.integer):
        raise DimensionMismatch(
            f"match table must be an integer {mask.height}x{mask.width} array, "
            f"got {matches.dtype} of shape {matches.shape}"
        )
    if window is not None:
        matches = matches[window]
    n = offsets.vectors.shape[0]
    if matches.min() < -1 or matches.max() >= n:
        raise ValidationError(f"match table entries must be -1 or an index below {n}")
    return matches


def _terms(u: np.ndarray, k: np.ndarray, hp: Hyperparams):
    ru = np.hypot(u[:, 0], u[:, 1])
    rk = np.hypot(k[:, 0], k[:, 1])
    u_static = ru < EPS_VEC
    k_static = rk < EPS_VEC
    fa = np.zeros(len(u))
    one_static = u_static ^ k_static
    fa[one_static] = 1.0
    moving = ~(u_static | k_static)
    if moving.any():
        dot = (u[moving] * k[moving]).sum(axis=1)
        cos = dot / (ru[moving] * rk[moving])
        fa[moving] = (cos < np.cos(np.deg2rad(hp.theta_a))).astype(np.float64)
    fi = np.maximum((ru - hp.theta_il * rk) * (ru - hp.theta_ih * rk), 0.0)
    return fa, fi


def skeleton_constraint(
    flow: FlowMap,
    offsets: SkeletonOffsets,
    matches: np.ndarray,
    mask: SubjectMask,
    hp: Hyperparams,
) -> ConstraintReport:
    """Evaluate the hard constraint: mean over the raster of F_A + beta * F_I.

    Background (unmatched) pixels contribute zero; the normalizer is the
    total pixel count of the raster. A match table that `Priors` would
    refuse raises as it does there.
    """
    layout, u = _matched_flow(flow, offsets, matches, mask, None)
    fa, fi = _terms(u, layout.k, hp)
    total = flow.height * flow.width
    n = len(u)
    f = float((fa.sum() + hp.beta * fi.sum()) / total)
    return ConstraintReport(
        f_value=f,
        angular_violation_fraction=float(fa.mean()) if n else 0.0,
        intensity_mean_penalty=float(fi.mean()) if n else 0.0,
        matched_pixels=n,
        f_matched_normalized=float((fa.sum() + hp.beta * fi.sum()) / n) if n else 0.0,
    )


def smooth_skeleton_constraint(
    flow: FlowMap,
    offsets: SkeletonOffsets,
    matches: np.ndarray,
    mask: SubjectMask,
    hp: Hyperparams,
    tau: float,
    *,
    window: tuple[slice, slice] | SkeletonLayout | None = None,
) -> tuple[float, Callable[[], np.ndarray]]:
    """Differentiable surrogate of the constraint and a callable giving its
    flow gradient.

    The angular indicator becomes sigmoid((angle(u, k) - theta_a) / tau) on
    a stabilized cosine, gated so that jointly static pairs contribute
    nothing; the surrogate approaches the hard term as tau -> 0. The
    intensity term is kept as-is (piecewise smooth, subgradient 0 at its
    kinks). Returns (value, gradient), where `gradient()` builds the
    (h, w, 2) gradient only when called, as `soft_boundary_constraint`'s
    backward pass does, so a caller that needs the value alone never
    allocates it.

    `window` gives the rows and columns of the mask's raster that `flow`
    covers; None, the default, means the whole raster. With a window the
    gradient has `flow`'s shape, the normalizer is still the pixel count of
    the whole raster, and pixels outside the window count as unmatched: if
    the window holds every matched pixel, as the solver's solve box does,
    value and gradient are bitwise the whole raster's, cropped. The match
    table is refused as the hard term and `Priors` refuse it, but for its
    entries outside the window, which are not read.

    What depends on the priors alone (the match check, the matched pixels
    and their offsets with the offsets' norms) is a `SkeletonLayout`.
    `window` may be one, built by `skeleton_layout` from these `offsets`,
    `matches` and `mask` objects (others raise ValidationError) for the
    window `flow` covers: a solver builds it once and passes it at every
    evaluation, which then reads only the flow. Otherwise the layout is
    built here, at each call.
    """
    if tau <= 0:
        raise ValidationError("tau must be positive")
    layout, u = _matched_flow(flow, offsets, matches, mask, window)
    total = mask.height * mask.width
    shape = flow.vectors.shape
    if len(u) == 0:
        return 0.0, lambda: np.zeros(shape)

    s = EPS_VEC + tau  # stabilizer; shrinks with tau so the hard terms are recovered
    s2 = s * s
    # Written-out 2-element sums: bitwise numpy's `sum` but for (-0) + (-0), which `sum`
    # (adding from +0) makes +0. A sum of squares is never -0. A -0 dot product changes no
    # byte of value or gradient: the cosine enters only arccos and cos^2, and the sign of a
    # zero d(cos)/du_c shows only beside a -0 d(q)/du_c sig, which takes a sign bit on u_c and
    # k_c / (du dk) = -0, so u_c k_c = +0 and the dot product is not -0.
    k, rk2, rk = layout.k, layout.rk2, layout.rk
    (ux, uy), (kx, ky) = u.T, k.T
    ru2 = ux ** 2 + uy ** 2
    du = np.sqrt(ru2 + s2)
    dk = np.sqrt(rk2 + s2)
    dot = ux * kx + uy * ky
    sig, dsig_dcos = _soft_angle(dot / (du * dk), hp.theta_a, tau)
    wu = ru2 / (ru2 + s2)
    wk = rk2 / (rk2 + s2)
    q = 1.0 - (1.0 - wu) * (1.0 - wk)
    ang = q * sig

    ru = np.sqrt(ru2)
    g = (ru - hp.theta_il * rk) * (ru - hp.theta_ih * rk)
    fi = np.maximum(g, 0.0)
    value = float((ang.sum() + hp.beta * fi.sum()) / total)

    def gradient() -> np.ndarray:
        # d(ang)/du = dq * sig + q * dsig
        dsig_du = dsig_dcos[:, None] * _dcos(u, k, du, dk, dot)
        dwu_du = 2.0 * u * (s2 / (ru2 + s2) ** 2)[:, None]
        dq_du = (1.0 - wk)[:, None] * dwu_du
        dang_du = dq_du * sig[:, None] + q[:, None] * dsig_du

        active = g > 0
        u_hat = np.zeros_like(u)
        nz = ru > 0
        u_hat[nz] = u[nz] / ru[nz, None]
        dfi_du = np.where(active[:, None], (2.0 * ru - (hp.theta_il + hp.theta_ih) * rk)[:, None] * u_hat, 0.0)

        grad = np.zeros(shape)
        grad.reshape(-1, 2)[layout.at] = (dang_du + hp.beta * dfi_du) / total
        return grad

    return value, gradient

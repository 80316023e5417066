"""Shared raster and geometry types with their invariants.

Pixel convention used everywhere: x grows rightward (columns), y grows
downward (rows), origin at the top-left pixel center. Raster arrays are
indexed ``[y, x]``; displacement channels are ordered ``(dx, dy)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatch, ValidationError

# Confidence floor applied where keypoints enter matching/interpolation;
# distance-over-confidence scores degenerate at c = 0.
EPS_CONF = 1e-3

# Displacements with norm below this (pixels) count as static.
EPS_VEC = 1e-6

N_JOINTS = 17

# Largest raster, in pixels (4096 x 4096), that a scene or a patch grid may
# cover; both allocate several float64 arrays of this size.
MAX_PIXELS = 2**24


def _sigmoid(x):
    # Bitwise np.clip(x, -500, 500), whose Python wrappers cost more than these two ufunc calls.
    # Both ends are needed: past them e^-x would overflow or underflow.
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -500.0), 500.0)))


def _angle_gate(cos, theta_lim_deg: float, tau: float):
    """sigmoid((arccos(cos) - theta_lim) / tau), with cos clipped to [-1, 1]
    by two ufunc calls, as `_sigmoid` clips, bitwise np.clip's result."""
    return _sigmoid((np.arccos(np.minimum(np.maximum(cos, -1.0), 1.0)) - np.deg2rad(theta_lim_deg)) / tau)


def _soft_angle(cos, theta_lim_deg: float, tau: float):
    """(_angle_gate(cos, theta_lim, tau), its derivative in cos)."""
    sig = _angle_gate(cos, theta_lim_deg, tau)
    dtheta_dcos = -1.0 / np.sqrt(np.maximum(1.0 - cos ** 2, 1e-12))
    return sig, sig * (1.0 - sig) / tau * dtheta_dcos


def _dcos(u, v, du, dv, dot):
    """d(cos)/du of cos = dot / (du dv), with du = sqrt(|u|^2 + s^2), per (n, 2) row."""
    return v / (du * dv)[:, None] - (dot / (du ** 3 * dv))[:, None] * u


# The stop reasons of `armijo_descent` that are not convergence.
_UNCONVERGED = frozenset({"overflow", "budget"})


def armijo_descent(fn, x, value, grad, eta, max_steps, tolerance, on_step):
    """Backtracking gradient descent under the Armijo sufficient-decrease rule.

    `fn(x)` returns (value, gradient), where `gradient` is a zero-argument
    callable; `value` and `grad` are the value and gradient array at the
    start point and `eta` the first trial step. The Armijo test needs only
    the trial value, so the gradient is computed at accepted steps alone: a
    rejected trial's callable is dropped, with the state it holds, before
    the next trial. Results are bitwise those of calling it at every trial.
    A rejected step is halved, up to 40 times; an accepted step doubles into
    the next trial step, so accepted values never increase. `on_step(x,
    value, step)` sees every accepted iterate. Returns (x, stop), where
    `stop` is "zero_gradient", "tolerance" (an accepted step's largest
    per-entry move fell below `tolerance`), "line_search" (40 halvings
    failed, the last on a finite value), "overflow" (they failed on a
    non-finite one) or "budget" (`max_steps` accepted steps); the last two
    are not convergence.

    Neither `x` nor `grad` is written to; each iterate is a new array,
    read-only from the moment `fn` sees it, so that a `FlowMap` takes it
    without a copy. Per
    iteration, besides what `fn` allocates, it holds one x-sized temporary
    for `grad ** 2`, one per trial (`x - step * grad`, built in place in
    the trial array) and one for the largest move at the accepted step. It
    drops its references to the previous iterate and gradient before it
    builds the new gradient, so that they need not be alive at its peak.
    Every array is the size of `x`, so a caller that descends on part of
    its data (the solver passes the flow on its solve box) pays for that
    part alone.
    """
    for _ in range(max_steps):
        gnorm2 = float((grad ** 2).sum())
        if gnorm2 == 0.0:
            return x, "zero_gradient"
        step = eta
        for _ in range(40):
            cand = step * grad
            np.subtract(x, cand, out=cand)
            cand.setflags(write=False)
            v_new, gradient = fn(cand)
            if v_new <= value - 1e-4 * step * gnorm2:
                break
            gradient = None
            step *= 0.5
        else:
            return x, "line_search" if math.isfinite(v_new) else "overflow"
        move = cand - x
        delta = float(np.abs(move, out=move).max())
        x, value, grad = cand, v_new, None
        grad = gradient()
        gradient = None
        on_step(x, value, step)
        eta = step * 2.0
        if delta < tolerance:
            return x, "tolerance"
    return x, "budget"


def _finite_number(v) -> bool:
    """True for a real number (not a bool), numpy scalars included, that is finite as a float."""
    try:
        return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_number(name: str, value) -> None:
    """Refuse anything but a finite real number (not a bool)."""
    if not _finite_number(value):
        raise ValidationError(f"{name} must be a finite number")


# The tau values a surrogate term or a solve schedule takes. Within it the surrogates'
# arithmetic stays finite for flows within the float32 range: (tau + 1e-6)^4 below 1e200
# and x / tau below 1e139.
TAU_RANGE = (1e-100, 1e50)


def _check_tau(name: str, tau) -> float:
    """`tau` as a float, refused unless it is a finite real number (not a bool) in `TAU_RANGE`."""
    _check_number(name, tau)
    lo, hi = TAU_RANGE
    if not lo <= tau <= hi:
        raise ValidationError(f"{name} must lie in [{lo:g}, {hi:g}]")
    return float(tau)


def _check_scale(name: str, scale) -> int:
    """A patch scale as an int, refused unless it is a finite integral number
    from 2 to MAX_PIXELS: no raster side is longer, so a larger cell would
    still be one cell."""
    _check_number(name, scale)
    if scale != int(scale):
        raise ValidationError(f"{name} must be an integer, got {scale}")
    if not 2 <= scale <= MAX_PIXELS:
        raise ValidationError(f"{name} must lie in [2, {MAX_PIXELS}]")
    return int(scale)


def _check_scales(name: str, scales) -> tuple[int, ...]:
    """Patch scales as a tuple of ints, refused unless they are a nonempty
    list or tuple of distinct `_check_scale` entries: each is one term of a
    multiscale mean."""
    if not isinstance(scales, (list, tuple)) or not scales:
        raise ValidationError(f"{name} must be a nonempty list of integers")
    checked = tuple(_check_scale(f"each {name} entry", s) for s in scales)
    if len(set(checked)) < len(checked):
        raise ValidationError(f"{name} must not repeat an entry, got {list(checked)}")
    return checked


def _check_count(name: str, value, least: int = 1) -> None:
    """Refuse anything but an integer (not a bool) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")


def _plane_box(plane: np.ndarray, halo: int) -> tuple[slice, slice] | None:
    """Rows and columns of the bounding box of a boolean plane's True pixels,
    widened by `halo` px and clipped to the plane; None when none is True."""
    ys = np.flatnonzero(plane.any(axis=1))
    if ys.size == 0:
        return None
    y0, y1 = int(ys[0]), int(ys[-1]) + 1
    xs = np.flatnonzero(plane[y0:y1].any(axis=0))
    h, w = plane.shape
    return (slice(max(y0 - halo, 0), min(y1 + halo, h)),
            slice(max(int(xs[0]) - halo, 0), min(int(xs[-1]) + 1 + halo, w)))


def _owned(given, dtype=None) -> np.ndarray:
    """`given` as a read-only C-contiguous array (of `dtype`, if given) that
    its caller cannot change: `given` itself when it is such an array and
    read-only, the array that converting it made when that is fresh, else a
    copy. The caller's own array keeps its bytes and its flags; the
    library's producers mark their fresh arrays read-only, so they pay no
    copy."""
    arr = np.asarray(given, dtype=dtype)
    if not arr.flags.c_contiguous or arr.flags.writeable and (arr is given or arr.base is not None):
        arr = np.array(arr, order="C")
    arr.setflags(write=False)
    return arr


def _readonly(arr: np.ndarray) -> np.ndarray:
    """`arr`, a fresh array, marked read-only, so that a type built on it takes it without a copy."""
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")


def _check_confidences(conf: np.ndarray, name: str) -> None:
    """Refuse a keypoint confidence outside [0, 1]: it is a detector's probability."""
    if not ((conf >= 0.0) & (conf <= 1.0)).all():
        raise ValidationError(f"{name} has a confidence outside [0, 1]")


def _check_person(person, name: str) -> np.ndarray:
    """One person's 17 COCO-ordered keypoints, rows (x, y, c), as a read-only
    (17, 3) float64 array: finite, with every confidence in [0, 1]."""
    arr = _owned(person, np.float64)
    if arr.shape != (N_JOINTS, 3):
        raise ValidationError(f"{name} must have shape ({N_JOINTS}, 3), got {arr.shape}")
    _require_finite(arr, name)
    _check_confidences(arr[:, 2], name)
    return arr


@dataclass(frozen=True)
class Vec2:
    """Displacement in pixels."""

    dx: float
    dy: float

    def __post_init__(self):
        if not (_finite_number(self.dx) and _finite_number(self.dy)):
            raise ValidationError("Vec2 components must be finite numbers")
        object.__setattr__(self, "dx", float(self.dx))
        object.__setattr__(self, "dy", float(self.dy))

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy], dtype=np.float64)


def _pair(name: str, v) -> Vec2:
    """`v`, a pair such as a tuple or a (2,) array, as a `Vec2`, which refuses
    anything but two finite numbers."""
    try:
        x, y = v
    except (TypeError, ValueError):  # a scalar, or a sequence of another length
        raise ValidationError(f"{name} must hold 2 finite numbers") from None
    return Vec2(x, y)


@dataclass(frozen=True, eq=False)
class FlowMap:
    """Dense per-pixel displacement field, stored as (height, width, 2) float64.

    Like every type here that holds an array, it compares and hashes by identity.
    """

    vectors: np.ndarray

    def __post_init__(self):
        arr = _owned(self.vectors, np.float64)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValidationError(f"flow must have shape (h, w, 2), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"flow dimensions must be >= 1, got {arr.shape[:2]}")
        _require_finite(arr, "flow")
        object.__setattr__(self, "vectors", arr)

    @property
    def height(self) -> int:
        return self.vectors.shape[0]

    @property
    def width(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def zeros(cls, width: int, height: int) -> "FlowMap":
        return cls(_readonly(np.zeros((height, width, 2), dtype=np.float64)))

    @classmethod
    def constant(cls, width: int, height: int, v: Vec2) -> "FlowMap":
        arr = np.empty((height, width, 2), dtype=np.float64)
        arr[..., 0] = v.dx
        arr[..., 1] = v.dy
        return cls(_readonly(arr))


@dataclass(frozen=True, eq=False)
class KeypointFrame:
    """Per-person arrays of exactly 17 COCO-ordered keypoints, rows (x, y, c) (`_check_person`)."""

    persons: tuple

    def __post_init__(self):
        persons = tuple(_check_person(person, f"person {i}") for i, person in enumerate(self.persons))
        object.__setattr__(self, "persons", persons)

    def __len__(self) -> int:
        return len(self.persons)


@dataclass(frozen=True, eq=False)
class SubjectMask:
    """Per-pixel instance labels: 0 is background, subjects are 1..k contiguous.

    The labels are checked and the subjects listed once, when the mask is
    built; `subject_ids` is then a stored tuple, and `box` the rows and
    columns of the bounding box of the labelled pixels (None when there are
    none), so that a reader of the subjects can scan that box alone.
    """

    labels: np.ndarray
    subject_ids: tuple[int, ...] = field(init=False, repr=False)
    box: tuple[slice, slice] | None = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"mask must be a (h, w) array, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError(f"mask labels must be integers, got dtype {arr.dtype}")
        # Range checks on the input dtype, before the int32 cast could wrap a label.
        if int(arr.min()) < 0:
            raise ValidationError("mask labels must be non-negative")
        k = int(arr.max())
        if k > np.iinfo(np.int32).max:
            raise ValidationError(f"mask label {k} exceeds the int32 range")
        arr = arr.astype(np.int32, order="C")
        # Labels 1..k need k labelled pixels; the guard keeps `bincount` within one
        # count per labelled pixel. It counts only those, not the background.
        subject = arr > 0
        labelled = arr[subject]
        if k > labelled.size or not np.bincount(labelled)[1:].all():
            raise ValidationError(
                f"subject labels must form a contiguous range 1..k, got {np.unique(labelled).tolist()}"
            )
        object.__setattr__(self, "labels", _readonly(arr))
        object.__setattr__(self, "subject_ids", tuple(range(1, k + 1)))
        object.__setattr__(self, "box", _plane_box(subject, 0))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True, eq=False)
class PointSet:
    """Discrete (x, y) points on the pixel grid; may be empty."""

    points: np.ndarray

    def __post_init__(self):
        arr = _owned(self.points, np.float64)
        if arr.size == 0:
            arr = _readonly(np.empty((0, 2)))
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError(f"points must have shape (n, 2), got {arr.shape}")
        _require_finite(arr, "points")
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Hyperparams:
    """Constraint weights and thresholds.

    Defaults: alpha 0.1, beta 0.01, angle threshold 15 degrees, magnitude
    band [0.8, 1.2], edge thresholds 0.5 px / 30 degrees, patch scales
    {8, 16, 32}. The scales are distinct: each is one term of the mean.
    """

    alpha: float = 0.1
    beta: float = 0.01
    theta_a: float = 15.0
    theta_il: float = 0.8
    theta_ih: float = 1.2
    edge_theta_i: float = 0.5
    edge_theta_a: float = 30.0
    scales: tuple = (8, 16, 32)

    def __post_init__(self):
        for name in ("alpha", "beta", "theta_a", "theta_il", "theta_ih", "edge_theta_i", "edge_theta_a"):
            _check_number(name, getattr(self, name))
        if not (self.alpha > 0 and self.beta > 0):
            raise ValidationError("alpha and beta must be positive")
        if not 0 < self.theta_il < self.theta_ih:
            raise ValidationError("need 0 < theta_il < theta_ih")
        if not 0 < self.theta_a < 90:
            raise ValidationError("theta_a must lie in (0, 90) degrees")
        if not (self.edge_theta_i > 0 and self.edge_theta_a > 0):
            raise ValidationError("edge thresholds must be positive")
        if self.edge_theta_a > 180:
            raise ValidationError("edge_theta_a must be at most 180 degrees")
        object.__setattr__(self, "scales", _check_scales("scales", self.scales))


def validate_pairing(flow: FlowMap, mask: SubjectMask) -> None:
    """Raise DimensionMismatch unless flow and mask cover the same raster."""
    if (flow.height, flow.width) != (mask.height, mask.width):
        raise DimensionMismatch(
            f"flow is {flow.width}x{flow.height} but mask is {mask.width}x{mask.height}"
        )

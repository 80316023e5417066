"""Shared raster and geometry types with their invariants.

Pixel convention used everywhere: x grows rightward (columns), y grows
downward (rows), origin at the top-left pixel center. Raster arrays are
indexed ``[y, x]``; displacement channels are ordered ``(dx, dy)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """sigmoid((arccos(cos) - theta_lim) / tau)."""
    return _sigmoid((np.arccos(np.clip(cos, -1.0, 1.0)) - np.deg2rad(theta_lim_deg)) / tau)


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

    Neither `x` nor `grad` is written to; each iterate is a new array. Per
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
    """True for a number (not a bool) that is finite as a float."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_number(name: str, value) -> None:
    """Refuse a bool or a non-finite number; other non-numbers are left to fail
    the caller's comparisons with a TypeError or ValueError."""
    if isinstance(value, (int, float)) and not _finite_number(value):
        raise ValidationError(f"{name} must be a finite number")


def _check_count(name: str, value) -> None:
    """Refuse a bool, a non-integral number or one below 1; a non-number fails the `<`."""
    if isinstance(value, bool) or (isinstance(value, Real) and not isinstance(value, Integral)):
        raise ValidationError(f"{name} must be an integer")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1")


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")


@dataclass(frozen=True)
class Vec2:
    """Displacement in pixels."""

    dx: float
    dy: float

    def __post_init__(self):
        if not (np.isfinite(self.dx) and np.isfinite(self.dy)):
            raise ValidationError("Vec2 components must be finite")
        object.__setattr__(self, "dx", float(self.dx))
        object.__setattr__(self, "dy", float(self.dy))

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy], dtype=np.float64)

    @property
    def norm(self) -> float:
        return float(np.hypot(self.dx, self.dy))


@dataclass(frozen=True)
class FlowMap:
    """Dense per-pixel displacement field, stored as (height, width, 2) float64."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValidationError(f"flow must have shape (h, w, 2), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"flow dimensions must be >= 1, got {arr.shape[:2]}")
        _require_finite(arr, "flow")
        object.__setattr__(self, "vectors", _as_readonly(arr))

    @property
    def height(self) -> int:
        return self.vectors.shape[0]

    @property
    def width(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def zeros(cls, width: int, height: int) -> "FlowMap":
        return cls(np.zeros((height, width, 2), dtype=np.float64))

    @classmethod
    def constant(cls, width: int, height: int, v: Vec2) -> "FlowMap":
        arr = np.empty((height, width, 2), dtype=np.float64)
        arr[..., 0] = v.dx
        arr[..., 1] = v.dy
        return cls(arr)


@dataclass(frozen=True)
class KeypointFrame:
    """Per-person arrays of exactly 17 COCO-ordered keypoints, rows (x, y, c)."""

    persons: tuple

    def __post_init__(self):
        checked = []
        for i, person in enumerate(self.persons):
            arr = np.asarray(person, dtype=np.float64)
            if arr.shape != (N_JOINTS, 3):
                raise ValidationError(
                    f"person {i} must have shape ({N_JOINTS}, 3), got {arr.shape}"
                )
            _require_finite(arr, f"person {i}")
            if (arr[:, 2] < 0.0).any() or (arr[:, 2] > 1.0).any():
                raise ValidationError(f"person {i} has confidence outside [0, 1]")
            checked.append(_as_readonly(arr))
        object.__setattr__(self, "persons", tuple(checked))

    def __len__(self) -> int:
        return len(self.persons)


@dataclass(frozen=True)
class SubjectMask:
    """Per-pixel instance labels: 0 is background, subjects are 1..k contiguous."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"mask must be a (h, w) array, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError(f"mask labels must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int32, copy=True)
        if (arr < 0).any():
            raise ValidationError("mask labels must be non-negative")
        present = np.unique(arr)
        subjects = present[present > 0]
        if subjects.size and not np.array_equal(subjects, np.arange(1, subjects.size + 1)):
            raise ValidationError(
                f"subject labels must form a contiguous range 1..k, got {subjects.tolist()}"
            )
        object.__setattr__(self, "labels", _as_readonly(arr))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def subject_ids(self) -> tuple[int, ...]:
        present = np.unique(self.labels)
        return tuple(int(v) for v in present[present > 0])


@dataclass(frozen=True)
class PointSet:
    """Discrete (x, y) points on the pixel grid; may be empty."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError(f"points must have shape (n, 2), got {arr.shape}")
        _require_finite(arr, "points")
        object.__setattr__(self, "points", _as_readonly(arr))

    def __len__(self) -> int:
        return self.points.shape[0]

    def translated(self, v: Vec2) -> "PointSet":
        return PointSet(self.points + v.as_array())


@dataclass(frozen=True)
class Hyperparams:
    """Constraint weights and thresholds.

    Defaults: alpha 0.1, beta 0.01, angle threshold 15 degrees, magnitude
    band [0.8, 1.2], edge thresholds 0.5 px / 30 degrees, patch scales
    {8, 16, 32}.
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
        given = tuple(self.scales)
        for s in given:
            _check_number("each scales entry", s)
        scales = tuple(int(s) for s in given)
        if scales != given:
            raise ValidationError(f"scales must be integers, got {list(given)}")
        if not scales or any(s < 2 for s in scales):
            raise ValidationError("scales must be nonempty with every entry >= 2")
        object.__setattr__(self, "scales", scales)


def validate_pairing(flow: FlowMap, mask: SubjectMask) -> None:
    """Raise DimensionMismatch unless flow and mask cover the same raster."""
    if (flow.height, flow.width) != (mask.height, mask.width):
        raise DimensionMismatch(
            f"flow is {flow.width}x{flow.height} but mask is {mask.width}x{mask.height}"
        )

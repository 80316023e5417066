"""Joint objective, variational world-flow solver, and world/local decomposition.

The objective couples the kinematic skeleton constraint with the multiscale
boundary constraint. The solver runs backtracking gradient descent on the
smooth surrogates plus a discrete smoothness regularizer, annealing the
surrogate sharpness across phases so the hard terms are recovered in the
limit. Decomposition splits world flow into per-subject motion and the
residual local flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import boundary as bnd
from . import kinematics as kin
from . import skeleton as skel
from .core import (
    FlowMap,
    Hyperparams,
    KeypointFrame,
    PointSet,
    SubjectMask,
    Vec2,
    _as_readonly,
    _check_count,
    _check_number,
    armijo_descent,
    validate_pairing,
)
from .errors import DegenerateConfiguration, DimensionMismatch, EmptySubject, ValidationError


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Joint objective split into its skeleton and boundary parts."""

    total: float
    f: float
    g: float
    alpha: float
    f_report: kin.ConstraintReport | None = None
    g_result: bnd.BoundaryResult | None = None


# The tau values a schedule may hold. Within it the surrogates' arithmetic stays
# finite for flows within the float32 range: (tau + 1e-6)^4 below 1e200 and
# x / tau below 1e139.
TAU_RANGE = (1e-100, 1e50)


@dataclass(frozen=True)
class SolverOptions:
    """Budget, annealing schedule and regularizer weights of `solve_world_flow`.

    Every `tau_schedule` entry must lie in `TAU_RANGE`.
    """

    max_iters: int = 500
    tau_schedule: tuple = (0.5, 0.1, 0.02)
    smoothness_weight: float = 0.05
    tolerance: float = 1e-3

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        _check_number("tolerance", self.tolerance)
        if not self.tolerance > 0:
            raise ValidationError("tolerance must be positive")
        _check_number("smoothness_weight", self.smoothness_weight)
        if self.smoothness_weight < 0:
            raise ValidationError("smoothness_weight must be >= 0")
        for t in self.tau_schedule:
            _check_number("each tau_schedule entry", t)
        schedule = tuple(float(t) for t in self.tau_schedule)
        if not schedule:
            raise ValidationError("tau_schedule must be nonempty")
        lo, hi = TAU_RANGE
        if any(not lo <= t <= hi for t in schedule):
            raise ValidationError(f"each tau_schedule entry must lie in [{lo:g}, {hi:g}]")
        object.__setattr__(self, "tau_schedule", schedule)


@dataclass(frozen=True)
class Priors:
    """Everything the objective needs besides the flow itself."""

    matches: np.ndarray
    offsets: skel.SkeletonOffsets
    boundary: PointSet
    mask: SubjectMask

    def __post_init__(self):
        # read-only, so the bounds `_held_bounds` keeps cannot go stale
        object.__setattr__(self, "matches", _as_readonly(self.matches))

    @classmethod
    def build(
        cls,
        frame_t: KeypointFrame,
        frame_t1: KeypointFrame,
        mask: SubjectMask,
        boundary: PointSet,
        align_method: str | None = None,
    ) -> "Priors":
        """Assemble per-subject skeletons, matches, and offsets.

        With align_method set, offsets are expressed in the subject frame
        (the later skeleton is aligned onto the earlier one first), which
        yields the subject-relative constraint used for local flow.
        """
        if not mask.subject_ids:
            raise EmptySubject("mask contains no subjects")
        pairs = skel.subject_skeletons(frame_t, frame_t1, mask)
        offsets_by_label: dict[int, skel.SkeletonOffsets] = {}
        for label, (k_t, k_t1) in pairs.items():
            if align_method is None:
                offsets_by_label[label] = skel.skeleton_offsets(k_t, k_t1)
            else:
                transform = skel.fit_alignment(k_t, k_t1, align_method)
                offsets_by_label[label] = skel.aligned_offsets(k_t, k_t1, transform)
        matches = skel.match_all({label: k_t for label, (k_t, _) in pairs.items()}, mask)
        return cls(matches, skel.concat_offsets(offsets_by_label), boundary, mask)

    @cached_property
    def _held_bounds(self) -> tuple[int, int, int, int]:
        """First and last row, then first and last column, of the subject and
        matched pixels, or (h, -1, w, -1) if there are none. Computed at the
        first solve and kept, so a solve scans only its init (`_active_box`)."""
        held = (self.mask.labels > 0) | (self.matches >= 0)
        h, w = held.shape
        ys, xs = np.flatnonzero(held.any(axis=1)), np.flatnonzero(held.any(axis=0))
        return int(ys.min(initial=h)), int(ys.max(initial=-1)), int(xs.min(initial=w)), int(xs.max(initial=-1))


def joint_objective(flow: FlowMap, priors: Priors, hp: Hyperparams) -> ObjectiveBreakdown:
    """Hard objective: skeleton constraint plus alpha times boundary constraint."""
    validate_pairing(flow, priors.mask)
    f_rep = kin.skeleton_constraint(flow, priors.offsets, priors.matches, priors.mask, hp)
    g_res = bnd.boundary_constraint(flow, priors.boundary, hp)
    total = f_rep.f_value + hp.alpha * g_res.value
    return ObjectiveBreakdown(total, f_rep.f_value, g_res.value, hp.alpha, f_rep, g_res)


@dataclass(frozen=True)
class TraceEntry:
    """One accepted descent step: its 1-based index over the whole solve, the
    phase's tau, the accepted step length and the surrogate value there."""

    iteration: int
    tau: float
    step: float
    surrogate: float


@dataclass(frozen=True)
class SolveResult:
    """The solved flow, one `TraceEntry` per accepted step, whether the last
    phase converged, and `objective`, the hard `joint_objective` of `flow`."""

    flow: FlowMap
    trace: tuple
    converged: bool
    objective: ObjectiveBreakdown


def _active_box(init: np.ndarray, priors: Priors) -> tuple[slice, slice]:
    """Rows and columns of the bounding box of the pixels a solve from `init`
    can move, plus a 1 px halo, clipped to the raster.

    Off the subject, at a pixel that no skeleton point matches, a flow of 0
    gets a surrogate gradient of exactly +0: smoothness drops pairs whose
    labels differ, the soft boundary term differentiates through |x| and the
    skeleton term writes matched pixels only. So from an init that is 0 on
    the background no iterate and no line-search trial moves a pixel outside
    the subject, the matched pixels and the nonzero init, and the halo puts
    every neighbor pair that touches them inside the box. Nonzero background
    flow does spread: smoothness pulls its background neighbors along, one
    pixel per step. So an init that moves any background pixel gets the
    whole raster.
    """
    labels = priors.mask.labels
    h, w = labels.shape
    moving = (init != 0).any(axis=2)
    if (labels[moving] == 0).any():
        return slice(0, h), slice(0, w)
    y0, y1, x0, x1 = priors._held_bounds
    ys, xs = np.flatnonzero(moving.any(axis=1)), np.flatnonzero(moving.any(axis=0))
    y0, y1 = min(y0, int(ys.min(initial=h))), max(y1, int(ys.max(initial=-1)))
    x0, x1 = min(x0, int(xs.min(initial=w))), max(x1, int(xs.max(initial=-1)))
    # With nothing active the bounds cross and the box is empty (or one row or column).
    return slice(max(y0 - 1, 0), min(y1 + 2, h)), slice(max(x0 - 1, 0), min(x1 + 2, w))


@dataclass(frozen=True)
class _SolveBox:
    """The window of the raster a solve runs on, with what its terms need.

    `index` selects the solve box from the raster. `soft` is the soft
    boundary term's layout (`boundary.soft_layout`), built once per solve;
    its `window` is the boundary-cell window on the raster, and `boundary`
    selects that window from the solve box; the soft boundary term runs
    there. `active` selects the active box (`_active_box`) from the solve
    box; smoothness is evaluated there, where `same_x` and `same_y` mark the
    neighbor pairs whose labels agree, and `pixels`, the h * w of the whole
    raster, stays the normalizer.
    """

    index: tuple[slice, slice]
    soft: bnd.SoftLayout
    boundary: tuple[slice, slice]
    active: tuple[slice, slice]
    same_x: np.ndarray
    same_y: np.ndarray
    pixels: int


def _solve_box(init: np.ndarray, priors: Priors, hp: Hyperparams) -> _SolveBox:
    """The solve box of a solve from `init`: the smallest box that holds the
    active box (`_active_box`) and the boundary-cell window of the soft
    boundary term's layout (`boundary.soft_layout`).

    Outside it the flow stays `init` and the surrogate gradient is +0, and
    inside it each term's value and gradient are bitwise the whole raster's:
    the skeleton term sees every matched pixel and the soft boundary term
    every scored cell with its neighbors. Raises as the soft boundary term
    does on an empty boundary or one off the raster.
    """
    h, w = priors.mask.labels.shape
    active = _active_box(init, priors)
    soft = bnd.soft_layout(priors.boundary, hp, h, w)
    window = soft.window
    if active[0].start >= active[0].stop or active[1].start >= active[1].stop:
        active = window  # nothing can move; smoothness sums zeros either way
    index = tuple(slice(min(a.start, b.start), max(a.stop, b.stop)) for a, b in zip(active, window))

    def within(part):
        return tuple(slice(p.start - i.start, p.stop - i.start) for p, i in zip(part, index))

    inner = priors.mask.labels[active]
    return _SolveBox(
        index=index,
        soft=soft,
        boundary=within(window),
        active=within(active),
        same_x=(inner[:, 1:] == inner[:, :-1])[..., None],
        same_y=(inner[1:, :] == inner[:-1, :])[..., None],
        pixels=h * w,
    )


def _smoothness(arr: np.ndarray, box: _SolveBox):
    """Squared forward differences of the field over the active box, summed
    and divided by the pixel count of the whole raster, and a callable giving
    their gradient on the active box.

    Differences across region boundaries (label changes) are excluded:
    motion is expected to be discontinuous at the silhouette, and smoothing
    across it would drag subject flow toward the static background.
    `arr` is the flow on the active box (see `_active_box`). Every pair
    outside it joins two pixels of flow 0, so the gradient is bitwise that of
    the whole raster; the value sums fewer zeros and may differ in the last
    bits.
    """
    dx = (arr[:, 1:, :] - arr[:, :-1, :]) * box.same_x
    dy = (arr[1:, :, :] - arr[:-1, :, :]) * box.same_y
    value = float((dx ** 2).sum() + (dy ** 2).sum()) / box.pixels

    def gradient() -> np.ndarray:
        grad = np.zeros_like(arr)
        grad[:, 1:, :] += 2.0 * dx
        grad[:, :-1, :] -= 2.0 * dx
        grad[1:, :, :] += 2.0 * dy
        grad[:-1, :, :] -= 2.0 * dy
        return grad / box.pixels

    return value, gradient


def _surrogate(arr: np.ndarray, priors: Priors, hp: Hyperparams, opts: SolverOptions, tau: float,
               box: _SolveBox):
    """Surrogate objective at `arr`, the flow on the solve box `box.index`,
    and a callable giving its gradient there.

    The skeleton term runs on the solve box, the soft boundary term on the
    boundary-cell window within it (both through their `window` argument)
    and smoothness on the active box within it, so each term's cost follows
    the subject at any box size. Each value and each gradient is bitwise
    the whole raster's, cropped, for a flow that equals the solve's init
    outside the solve box (see `_solve_box`).
    Every term's value is computed here; every term's gradient waits for
    the callable, which a rejected line-search trial never calls (see
    `armijo_descent`), so a value-only call builds no gradient array.
    """
    flow = FlowMap(arr)
    f_val, f_grad = kin.smooth_skeleton_constraint(
        flow, priors.offsets, priors.matches, priors.mask, hp, tau, window=box.index
    )
    g_val, g_backward = bnd.soft_boundary_constraint(FlowMap(arr[box.boundary]), priors.boundary, hp, tau,
                                                     window=box.soft)
    s_val, s_gradient = _smoothness(arr[box.active], box)
    value = f_val + hp.alpha * g_val + opts.smoothness_weight * s_val

    def gradient() -> np.ndarray:
        # The soft term's gradient is built first, and its forward state, the largest, released
        # before the others are built. The sum still adds skeleton, soft, smoothness in that
        # order, and the soft gradient is scaled in place, so no third solve-box array is
        # allocated. Outside the boundary-cell window the whole raster's soft gradient is +0
        # and adding it would only turn a -0 skeleton entry into +0; those entries are at
        # matched pixels, where smoothness then adds a term.
        nonlocal g_backward
        g = g_backward()
        g_backward = None
        g *= hp.alpha
        total = f_grad()
        total[box.boundary] += g
        total[box.active] += opts.smoothness_weight * s_gradient()
        return total

    return value, gradient


def solve_world_flow(
    init: FlowMap,
    priors: Priors,
    hp: Hyperparams,
    opts: SolverOptions = SolverOptions(),
) -> SolveResult:
    """Minimize the smooth surrogate objective by backtracking gradient descent.

    The tau schedule splits the iteration budget into phases of decreasing
    surrogate sharpness; once the budget is spent, the remaining phases are
    skipped and the result is not converged. Accepted steps never increase
    the surrogate within a phase. The trace records the surrogate at every
    accepted step; the hard objective is scored once, on the returned flow
    (`SolveResult.objective`).

    The descent runs on one solve box per solve (`_solve_box`): the bounding
    box of the subject, the matched pixels, the nonzero init and the
    boundary-cell window, plus a 1 px halo. It is the whole raster when the
    init moves any background pixel. Outside it the result is `init`, and
    the whole-raster result is written once, at the end. Surrogate values
    and gradients are bitwise those of the terms on the whole raster (the
    smoothness value sums the active box, see `_smoothness`). The line
    search's squared gradient norm sums the box alone, so its last bits may
    differ from a whole-raster sum, and with them, in principle, an Armijo
    decision on a knife edge.
    Deterministic: same inputs and options give bitwise-identical output.
    """
    validate_pairing(init, priors.mask)
    box = _solve_box(init.vectors, priors, hp)
    x = init.vectors[box.index]
    trace: list[TraceEntry] = []
    iters_per_phase = -(-opts.max_iters // len(opts.tau_schedule))
    for tau in opts.tau_schedule:
        budget = min(iters_per_phase, opts.max_iters - len(trace))
        if budget == 0:
            converged = False
            break

        def surrogate(arr, tau=tau):
            return _surrogate(arr, priors, hp, opts, tau, box)

        def record(arr, value, step, tau=tau):
            trace.append(TraceEntry(iteration=len(trace) + 1, tau=tau, step=step, surrogate=value))

        value, gradient = surrogate(x)
        grad = gradient()
        del gradient  # its forward state is not needed during the descent
        gmax = float(np.abs(grad).max())
        eta = 1.0 / gmax if gmax > 0 else 1.0
        x, converged = armijo_descent(surrogate, x, value, grad, eta, budget, opts.tolerance, record)
    index = box.index
    del box  # its layout and label masks are not needed for the whole-raster write
    solved = init.vectors.copy()
    solved[index] = x
    flow = FlowMap(solved)
    return SolveResult(flow, tuple(trace), converged, joint_objective(flow, priors, hp))


@dataclass(frozen=True)
class SubjectMotion:
    """Overall motion of one subject: a single trend vector or a dense field."""

    label: int
    method: str
    vector: Vec2 | None = None
    transform: skel.AlignTransform | None = None


def estimate_subject_motion(
    flow: FlowMap,
    mask: SubjectMask,
    skeletons: Mapping[int, tuple[skel.SkeletonMap, skel.SkeletonMap]] | None = None,
    method: str = "mask_mean",
    align: str = "full_body_homography",
) -> dict[int, SubjectMotion]:
    """Estimate each subject's overall motion trend from the world flow.

    "mask_mean" averages the flow over the subject's pixels into a single
    vector. "alignment_field" fits a skeleton alignment transform and turns
    its inverse into a dense displacement field evaluated per pixel; it needs
    `skeletons` as {label: (k_t, k_t1)}, the form subject_skeletons returns.
    """
    validate_pairing(flow, mask)
    out: dict[int, SubjectMotion] = {}
    if not mask.subject_ids:
        raise EmptySubject("mask contains no subjects")
    for label in mask.subject_ids:
        sel = mask.labels == label
        if not sel.any():
            raise EmptySubject(f"subject {label} has no pixels")
        if method == "mask_mean":
            mean = flow.vectors[sel].mean(axis=0)
            out[label] = SubjectMotion(label, method, vector=Vec2(mean[0], mean[1]))
        elif method == "alignment_field":
            if skeletons is None:
                raise ValidationError("alignment_field needs skeleton maps for both frames")
            t = skel.fit_alignment(*skeletons[label], align)
            out[label] = SubjectMotion(label, method, transform=t)
        else:
            raise ValidationError(f"unknown subject motion method {method!r}")
    return out


def subject_motion_field(motions: Mapping[int, SubjectMotion], mask: SubjectMask) -> np.ndarray:
    """Dense per-pixel subject motion; zero on background.

    For alignment-based motions the field at pixel x is T^-1(x) - x: the
    displacement the fitted inter-frame transform induces at that pixel.
    """
    field = np.zeros((mask.height, mask.width, 2))
    for label, motion in motions.items():
        sel = mask.labels == label
        if motion.vector is not None:
            field[sel] = motion.vector.as_array()
        elif motion.transform is not None:
            ys, xs = np.nonzero(sel)
            pts = np.stack([xs, ys], axis=1).astype(np.float64)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                field[ys, xs] = motion.transform.inverse().apply(pts) - pts
            if not np.isfinite(field[ys, xs]).all():
                raise DegenerateConfiguration(f"subject {label} motion leaves the float range")
        else:
            raise ValidationError(f"subject {label} motion carries neither vector nor transform")
    return field


@dataclass(frozen=True)
class Decomposition:
    """World flow split into subject motion and residual local flow.

    `subject` stores the exact residual world - local, so the
    reconstruction world == local + subject holds bitwise on every pixel.
    """

    world: FlowMap
    subject: FlowMap
    local: FlowMap
    motions: dict


def decompose_local(world: FlowMap, v_s, mask: SubjectMask) -> Decomposition:
    """Split world flow into subject motion and local flow.

    `v_s` is either a {label: SubjectMotion} mapping or a dense (h, w, 2)
    field. Background keeps local == world (subject motion zero there).
    """
    validate_pairing(world, mask)
    if isinstance(v_s, np.ndarray):
        field = v_s
        motions: dict[int, SubjectMotion] = {}
    else:
        motions = dict(v_s)
        field = subject_motion_field(motions, mask)
    if field.shape != world.vectors.shape:
        raise DimensionMismatch(
            f"subject field shape {field.shape} does not match flow {world.vectors.shape}"
        )
    local = world.vectors - field
    exact_subject = world.vectors - local
    return Decomposition(
        world=world,
        subject=FlowMap(exact_subject),
        local=FlowMap(local),
        motions=motions,
    )


def endpoint_error(pred: FlowMap, gt: FlowMap, mask: SubjectMask | None = None) -> tuple[float, float]:
    """Mean and max Euclidean error between two flows, optionally masked."""
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

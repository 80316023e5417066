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


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 500
    tau_schedule: tuple = (0.5, 0.1, 0.02)
    smoothness_weight: float = 0.05
    background_weight: float = 0.05
    tolerance: float = 1e-3

    def __post_init__(self):
        if isinstance(self.max_iters, (bool, float)):
            raise ValidationError("max_iters must be an integer")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        for name in ("smoothness_weight", "background_weight", "tolerance"):
            _check_number(name, getattr(self, name))
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if self.smoothness_weight < 0 or self.background_weight < 0:
            raise ValidationError("smoothness_weight and background_weight must be >= 0")
        for t in self.tau_schedule:
            _check_number("each tau_schedule entry", t)
        schedule = tuple(float(t) for t in self.tau_schedule)
        if not schedule or any(t <= 0 for t in schedule):
            raise ValidationError("tau_schedule must be nonempty and positive")
        object.__setattr__(self, "tau_schedule", schedule)


@dataclass(frozen=True)
class Priors:
    """Everything the objective needs besides the flow itself."""

    matches: np.ndarray
    offsets: skel.SkeletonOffsets
    boundary: PointSet
    mask: SubjectMask

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


def joint_objective(flow: FlowMap, priors: Priors, hp: Hyperparams) -> ObjectiveBreakdown:
    """Hard objective: skeleton constraint plus alpha times boundary constraint."""
    validate_pairing(flow, priors.mask)
    f_rep = kin.skeleton_constraint(flow, priors.offsets, priors.matches, priors.mask, hp)
    g_res = bnd.boundary_constraint(flow, priors.boundary, hp)
    total = f_rep.f_value + hp.alpha * g_res.value
    return ObjectiveBreakdown(total, f_rep.f_value, g_res.value, hp.alpha, f_rep, g_res)


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    tau: float
    step: float
    surrogate: float
    hard: ObjectiveBreakdown


@dataclass(frozen=True)
class SolveResult:
    flow: FlowMap
    trace: tuple
    converged: bool


def _smoothness(arr: np.ndarray, labels: np.ndarray):
    """Mean squared forward difference of the field, and a callable giving its
    gradient.

    Differences across region boundaries (label changes) are excluded:
    motion is expected to be discontinuous at the silhouette, and smoothing
    across it would drag subject flow toward the static background.
    """
    h, w = arr.shape[:2]
    same_x = (labels[:, 1:] == labels[:, :-1])[..., None]
    same_y = (labels[1:, :] == labels[:-1, :])[..., None]
    dx = (arr[:, 1:, :] - arr[:, :-1, :]) * same_x
    dy = (arr[1:, :, :] - arr[:-1, :, :]) * same_y
    value = float((dx ** 2).sum() + (dy ** 2).sum()) / (h * w)

    def gradient() -> np.ndarray:
        grad = np.zeros_like(arr)
        grad[:, 1:, :] += 2.0 * dx
        grad[:, :-1, :] -= 2.0 * dx
        grad[1:, :, :] += 2.0 * dy
        grad[:-1, :, :] -= 2.0 * dy
        return grad / (h * w)

    return value, gradient


def _surrogate(arr: np.ndarray, priors: Priors, hp: Hyperparams, opts: SolverOptions, tau: float):
    """Surrogate objective at `arr` and a callable giving its gradient.

    Every term's value is computed here; the gradients that cost most to
    build wait for the callable, which a rejected line-search trial never
    calls (see `armijo_descent`).
    """
    flow = FlowMap(arr)
    f_val, f_grad = kin.smooth_skeleton_constraint(
        flow, priors.offsets, priors.matches, priors.mask, hp, tau
    )
    g_val, g_backward = bnd.soft_boundary_constraint(flow, priors.boundary, hp, tau)
    s_val, s_gradient = _smoothness(arr, priors.mask.labels)
    h, w = arr.shape[:2]
    background = (priors.mask.labels == 0)[..., None]
    b_val = float((arr ** 2 * background).sum()) / (h * w)
    value = f_val + hp.alpha * g_val + opts.smoothness_weight * s_val + opts.background_weight * b_val

    def gradient() -> np.ndarray:
        # Each deferred gradient is built only when the sum reaches it, so no two are alive at
        # once; the soft term's forward state is released before the others are built.
        nonlocal g_backward
        total = f_grad + hp.alpha * g_backward()
        g_backward = None
        total += opts.smoothness_weight * s_gradient()
        total += opts.background_weight * (2.0 * arr * background / (h * w))
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
    the surrogate within a phase. The trace records the hard objective at
    every accepted step.
    Deterministic: same inputs and options give bitwise-identical output.
    """
    validate_pairing(init, priors.mask)
    x = init.vectors
    trace: list[TraceEntry] = []
    iters_per_phase = -(-opts.max_iters // len(opts.tau_schedule))
    for tau in opts.tau_schedule:
        budget = min(iters_per_phase, opts.max_iters - len(trace))
        if budget == 0:
            converged = False
            break

        def surrogate(arr, tau=tau):
            return _surrogate(arr, priors, hp, opts, tau)

        def record(arr, value, step, tau=tau):
            trace.append(TraceEntry(
                iteration=len(trace) + 1,
                tau=tau,
                step=step,
                surrogate=value,
                hard=joint_objective(FlowMap(arr), priors, hp),
            ))

        value, gradient = surrogate(x)
        grad = gradient()
        del gradient  # its forward state is not needed during the descent
        gmax = float(np.abs(grad).max())
        eta = 1.0 / gmax if gmax > 0 else 1.0
        x, converged = armijo_descent(surrogate, x, value, grad, eta, budget, opts.tolerance, record)
    return SolveResult(FlowMap(x), tuple(trace), converged)


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

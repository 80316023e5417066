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
from functools import reduce
from operator import add
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
    _UNCONVERGED,
    _owned,
    _readonly,
    _check_count,
    _check_number,
    _check_positive,
    _check_raster,
    _check_tau,
    _plane_box,
    armijo_descent,
    validate_pairing,
)
from .errors import DegenerateConfiguration, DimensionMismatch, EmptySubject, ValidationError


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Joint objective `total` = f + alpha * g, split into the skeleton
    constraint `f` and the boundary constraint `g`, read from their reports."""

    total: float
    alpha: float
    f_report: kin.ConstraintReport
    g_result: bnd.BoundaryResult

    @property
    def f(self) -> float:
        return self.f_report.f_value

    @property
    def g(self) -> float:
        return self.g_result.value


# The largest init entry a solve takes: the float32 range, which `core.TAU_RANGE` assumes and a .flo file holds.
_MAX_INIT = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class SolverOptions:
    """Budget, annealing schedule and regularizer weights of `solve_world_flow`.

    Every `tau_schedule` entry follows the surrogate terms' tau rule
    (`core._check_tau`): a finite number, not a bool, in `core.TAU_RANGE`.
    """

    max_iters: int = 500
    tau_schedule: tuple = (0.5, 0.1, 0.02)
    smoothness_weight: float = 0.05
    tolerance: float = 1e-3

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        _check_positive("tolerance", self.tolerance)
        _check_number("smoothness_weight", self.smoothness_weight)
        if self.smoothness_weight < 0:
            raise ValidationError("smoothness_weight must be >= 0")
        if not isinstance(self.tau_schedule, (list, tuple)):
            raise ValidationError("tau_schedule must be a list of numbers")
        schedule = tuple(_check_tau("each tau_schedule entry", t) for t in self.tau_schedule)
        if not schedule:
            raise ValidationError("tau_schedule must be nonempty")
        object.__setattr__(self, "tau_schedule", schedule)


def _require_subjects(mask: SubjectMask) -> None:
    if not mask.subject_ids:
        raise EmptySubject("mask contains no subjects")


@dataclass(frozen=True)
class Priors:
    """Everything the objective needs besides the flow itself.

    `matches` must be an integer table shaped like the mask whose every
    entry is -1 (unmatched) or an index into `offsets`, as `match_all`
    builds it. The mask's raster holds at most `core.MAX_PIXELS` pixels
    (`core._check_raster`), the cap of the patch grids that the hard
    objective builds on it, so that a solve or an eval on a larger raster
    is refused here, before any descent.
    """

    matches: np.ndarray
    offsets: skel.SkeletonOffsets
    boundary: PointSet
    mask: SubjectMask

    def __post_init__(self):
        _check_raster(self.mask.width, self.mask.height)
        _require_subjects(self.mask)  # so a solve's free pixels are never empty (`_free_pixels`)
        kin._check_matches(self.matches, self.offsets, self.mask)
        # read-only, as every other frozen input type keeps its arrays
        object.__setattr__(self, "matches", _owned(self.matches))

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

        With align_method set (one of `skeleton.ALIGN_METHODS`), offsets are
        expressed in the subject frame (the later skeleton is aligned onto
        the earlier one first), which yields the subject-relative constraint
        used for local flow. A mask that `Priors` refuses, for its raster
        or for holding no subject, is refused before any skeleton is
        assembled.
        """
        _check_raster(mask.width, mask.height)
        _require_subjects(mask)
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
    """Hard objective: skeleton constraint plus alpha times boundary constraint.
    A flow off the priors' raster raises DimensionMismatch, by the skeleton
    constraint's check, which comes first."""
    f_rep = kin.skeleton_constraint(flow, priors.offsets, priors.matches, priors.mask, hp)
    g_res = bnd.boundary_constraint(flow, priors.boundary, hp)
    total = f_rep.f_value + hp.alpha * g_res.value
    return ObjectiveBreakdown(total, hp.alpha, f_rep, g_res)


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
    """The solved flow, one `TraceEntry` per accepted step, why each phase
    stopped (`armijo_descent`'s reason, or "budget" for a phase skipped
    because the budget ran out), and `objective`, the hard `joint_objective`
    of `flow`."""

    flow: FlowMap
    trace: tuple
    stops: tuple
    objective: ObjectiveBreakdown

    @property
    def converged(self) -> bool:
        """Whether the last phase converged."""
        return self.stops[-1] not in _UNCONVERGED


def _free_pixels(init: np.ndarray, priors: Priors) -> np.ndarray:
    """The pixels a solve from `init` can move, as a boolean plane of the
    raster; every other pixel is pinned at its init, +-0, for the whole solve.

    Off the subject, at a pixel that no skeleton point matches, a flow of 0
    gets a surrogate gradient of exactly +0: smoothness drops pairs whose
    labels differ, the soft boundary term differentiates through |x| and the
    skeleton term writes matched pixels only. So from an init that is 0 on
    the background, with every matched pixel on a subject (as `match_all`
    builds them), no iterate and no line-search trial moves a pixel off the
    subject, and the subject pixels are the free ones. Background motion
    spreads: smoothness pulls a moving background pixel's background
    neighbors along, one pixel per step. So an init that moves a background
    pixel, or a match on the background, which the skeleton term moves,
    frees the whole raster.
    """
    labels = priors.mask.labels
    driven = (init[..., 0] != 0) | (init[..., 1] != 0)  # moved by the init or matched
    driven |= priors.matches >= 0
    if (labels[driven] == 0).any():
        return np.ones(labels.shape, dtype=bool)
    return labels > 0


def _solve_terms(init: np.ndarray, priors: Priors, hp: Hyperparams, opts: SolverOptions):
    """The solve box `index` of a solve from `init`, and the surrogate's terms
    on it, each `(weight, crop, fn)`: `fn(arr[crop], tau)` gives the term's
    value and gradient callable on its crop of the box. In order: the
    skeleton term, weight 1, on the whole box; the soft boundary term,
    weight alpha, on the boundary-cell window; smoothness, weight
    `smoothness_weight`, on the active box: the bounding box of the free
    pixels (`_free_pixels`) plus a 1 px halo, clipped to the raster, which
    puts every neighbor pair that touches a free pixel inside it.

    The box is the smallest that holds the active box and the boundary-cell
    window. Outside it the flow stays `init` and every gradient is +0;
    inside it each term's value and gradient are bitwise the whole raster's,
    cropped, but for the smoothness value (see `smoothness`). The soft
    term's layout, which is told the free pixels so that it scores only the
    neighbor pairs that touch one, the skeleton term's layout on the box
    (its checked match table, matched pixels and their offsets) and
    smoothness's label masks are built here, once per solve. The constraint
    terms are looked up in their modules at each call and take their layouts
    as their `layout` keyword; each checks the tau it is given by the rule
    that `SolverOptions` applies to the schedule. Raises as the soft
    boundary term does on an empty boundary or one off the raster.
    """
    h, w = priors.mask.labels.shape
    free = _free_pixels(init, priors)
    active = _plane_box(free, 1)  # never None: `Priors` holds a subject
    soft = bnd.soft_layout(priors.boundary, hp, h, w, free)
    window = soft.window
    index = tuple(slice(min(a.start, b.start), max(a.stop, b.stop)) for a, b in zip(active, window))
    matched = kin.skeleton_layout(priors.offsets, priors.matches, priors.mask, index)

    def within(part):
        return tuple(slice(p.start - i.start, p.stop - i.start) for p, i in zip(part, index))

    inner = priors.mask.labels[active]
    same_x = (inner[:, 1:] == inner[:, :-1])[..., None]
    same_y = (inner[1:, :] == inner[:-1, :])[..., None]

    def skeleton(arr, tau):
        return kin.smooth_skeleton_constraint(FlowMap(arr), priors.offsets, priors.matches, priors.mask, hp,
                                              tau, layout=matched)

    def soft_boundary(arr, tau):
        return bnd.soft_boundary_constraint(FlowMap(arr), priors.boundary, hp, tau, layout=soft)

    def smoothness(arr, tau):
        """Squared forward differences of the flow on the active box, summed
        over the raster's pixel count, and a callable giving their gradient.
        Pairs across a label change are dropped: motion is discontinuous at
        the silhouette. Every pair outside the active box joins two zero
        flows, so the gradient is bitwise the whole raster's; the value sums
        fewer zeros and may differ in the last bits."""
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

    return index, ((1, within(index), skeleton),
                   (hp.alpha, within(window), soft_boundary),
                   (opts.smoothness_weight, within(active), smoothness))


def _surrogate(arr: np.ndarray, terms, tau: float):
    """Surrogate objective at `arr`, the flow on the solve box, and a callable
    giving its gradient there: the weighted `terms` of `_solve_terms`, values
    and then gradients added in table order. Gradients wait for the
    callable, which a rejected line-search trial never calls (see
    `armijo_descent`). The first term covers the box, so its gradient,
    scaled in place, holds the sum. Adding the +0 that a later term has
    outside its crop on the whole raster would only turn some -0 entries
    into +0, at matched pixels, where smoothness then adds its term.
    """
    parts = [(weight, crop, *fn(arr[crop], tau)) for weight, crop, fn in terms]
    # a + b + c, from the first value: sum() starts from 0, and from Python 3.12 compensates
    value = reduce(add, [weight * v for weight, _, v, _ in parts])

    def gradient() -> np.ndarray:
        (weight, _, _, first), *rest = parts
        total = first()
        total *= weight
        for weight, crop, _, term_gradient in rest:
            g = term_gradient()
            g *= weight
            total[crop] += g
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

    The descent runs on one solve box per solve (`_solve_terms`): the
    smallest box that holds the boundary-cell window and the bounding box
    of the free pixels (`_free_pixels`) widened by a 1 px halo; the halo
    does not widen the window. The free pixels are the subject's, or the
    whole raster when the init moves a background pixel or a match lies on
    the background. Outside the box the result is `init`, and the
    whole-raster result is written once, at the end. Surrogate values and
    gradients are bitwise those of the terms on the whole raster (the
    smoothness value sums the active box). The line search's squared
    gradient norm sums the box alone, so its last bits may differ from a
    whole-raster sum, and with them, in principle, an Armijo decision on a
    knife edge.
    Deterministic: same inputs and options give bitwise-identical output.
    An init with an entry beyond the float32 range raises ValidationError.
    """
    validate_pairing(init, priors.mask)
    if init.vectors.max() > _MAX_INIT or init.vectors.min() < -_MAX_INIT:
        raise ValidationError(f"init flow entries must lie within +-{_MAX_INIT:g}, the float32 range")
    index, terms = _solve_terms(init.vectors, priors, hp, opts)
    x = init.vectors[index]
    trace: list[TraceEntry] = []
    stops: list[str] = []
    iters_per_phase = -(-opts.max_iters // len(opts.tau_schedule))
    for tau in opts.tau_schedule:
        budget = min(iters_per_phase, opts.max_iters - len(trace))
        if budget == 0:
            stops.append("budget")
            continue

        def surrogate(arr, tau=tau):
            return _surrogate(arr, terms, tau)

        def record(arr, value, step, tau=tau):
            trace.append(TraceEntry(iteration=len(trace) + 1, tau=tau, step=step, surrogate=value))

        value, gradient = surrogate(x)
        grad = gradient()
        del gradient  # its forward state is not needed during the descent
        gmax = float(np.abs(grad).max())
        eta = 1.0 / gmax if gmax > 0 else 1.0
        x, stop = armijo_descent(surrogate, x, value, grad, eta, budget, opts.tolerance, record)
        stops.append(stop)
    del terms  # the layout and label masks are not needed for the whole-raster write
    solved = init.vectors.copy()
    solved[index] = x
    flow = FlowMap(_readonly(solved))
    return SolveResult(flow, tuple(trace), tuple(stops), joint_objective(flow, priors, hp))


# The ways `estimate_subject_motion` measures a subject's motion.
MOTION_METHODS = ("mask-mean", *skel.ALIGN_METHODS)


def estimate_subject_motion(
    flow: FlowMap,
    mask: SubjectMask,
    method: str = "mask-mean",
    skeletons: Mapping[int, tuple[skel.SkeletonMap, skel.SkeletonMap]] | None = None,
) -> dict[int, Vec2 | skel.AlignTransform]:
    """Estimate each subject's overall motion from the world flow, as
    {label: motion}.

    "mask-mean" averages the flow over the subject's pixels into one `Vec2`.
    The alignment methods (`skeleton.ALIGN_METHODS`) fit the subject's
    skeleton alignment transform with `fit_alignment`; they need
    `skeletons` as {label: (k_t, k_t1)}, the form subject_skeletons returns.
    """
    validate_pairing(flow, mask)
    _require_subjects(mask)
    if method not in MOTION_METHODS:
        raise ValidationError(f"unknown subject motion method {method!r}")
    out: dict[int, Vec2 | skel.AlignTransform] = {}
    for label in mask.subject_ids:
        if method == "mask-mean":
            mean = flow.vectors[mask.labels == label].mean(axis=0)
            out[label] = Vec2(mean[0], mean[1])
        elif skeletons is None or label not in skeletons:
            raise ValidationError(f"{method} needs skeleton maps of subject {label} in both frames")
        else:
            out[label] = skel.fit_alignment(*skeletons[label], method)
    return out


def subject_motion_field(motions: Mapping[int, Vec2 | skel.AlignTransform], mask: SubjectMask) -> np.ndarray:
    """Dense per-pixel subject motion; zero on background.

    For a transform T the field at pixel x is T^-1(x) - x: the displacement
    the fitted inter-frame transform induces at that pixel.
    """
    field = np.zeros((mask.height, mask.width, 2))
    for label, motion in motions.items():
        sel = mask.labels == label
        if isinstance(motion, Vec2):
            field[sel] = motion.as_array()
            continue
        ys, xs = np.nonzero(sel)
        pts = np.stack([xs, ys], axis=1).astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            field[ys, xs] = motion.inverse().apply(pts) - pts
        if not np.isfinite(field[ys, xs]).all():
            raise DegenerateConfiguration(f"subject {label} motion leaves the float range")
    return field


@dataclass(frozen=True)
class Decomposition:
    """World flow split into subject motion and residual local flow.

    `subject` stores the exact residual world - local, so the
    reconstruction world == local + subject holds bitwise on every pixel.
    """

    subject: FlowMap
    local: FlowMap


def decompose_local(world: FlowMap, motions: Mapping[int, Vec2 | skel.AlignTransform],
                    mask: SubjectMask) -> Decomposition:
    """Split world flow into subject motion and local flow, given each
    subject's motion as `estimate_subject_motion` returns it. Background
    keeps local == world (subject motion zero there).
    """
    validate_pairing(world, mask)
    local = world.vectors - subject_motion_field(motions, mask)
    return Decomposition(subject=FlowMap(_readonly(world.vectors - local)), local=FlowMap(_readonly(local)))


def endpoint_error(pred: FlowMap, gt: FlowMap, mask: SubjectMask | None = None) -> tuple[float, float]:
    """Mean and max Euclidean error between two flows, optionally masked.

    With a mask, the errors are computed on the bounding box of the subject
    pixels (`SubjectMask.box`) alone, so the cost follows the subjects'
    extent, not the raster.
    Selecting the subject pixels inside that box gives the same errors in
    the same row-major order as selecting them on the whole raster, so mean
    and max are bitwise those of the whole-raster computation.
    """
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise DimensionMismatch(
            f"flows differ in size: {pred.width}x{pred.height} vs {gt.width}x{gt.height}"
        )

    def errors(box):
        diff = pred.vectors[box] - gt.vectors[box]
        return np.hypot(diff[..., 0], diff[..., 1])

    if mask is None:
        err = errors(...)
    else:
        validate_pairing(pred, mask)
        if mask.box is None:
            raise EmptySubject("mask selects no pixels")
        err = errors(mask.box)[mask.labels[mask.box] > 0]
    return float(err.mean()), float(err.max())

"""Deterministic 2D articulated-figure scenes with exact ground truth.

A figure is a kinematic tree over the 17 COCO joints driven by named bone
lengths and absolute per-frame angles. Bodies are rasterized as capsules
around the default bone set; every body pixel's ground-truth world flow is
the motion of its governing bone, so the generated scenes satisfy the
kinematic and boundary constraints by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_PIXELS, FlowMap, KeypointFrame, PointSet, SubjectMask, Vec2, _check_count, _finite_number, _readonly,
)
from .errors import EmptySubject, SpecOutOfBounds, ValidationError
from .skeleton import DEFAULT_BONES

DEFAULT_LENGTHS = {
    "hip_width": 10.0,
    "torso": 22.0,
    "neck": 8.0,
    "head": 5.0,
    "upper_arm": 12.0,
    "forearm": 11.0,
    "thigh": 14.0,
    "shin": 13.0,
}

_DOWN = np.pi / 2
_UP = -np.pi / 2

DEFAULT_ANGLES = {
    "hip_axis": 0.0,
    "torso_l": _UP,
    "torso_r": _UP,
    "neck": _UP,
    "upper_arm_l": _DOWN + 0.35,
    "forearm_l": _DOWN + 0.2,
    "upper_arm_r": _DOWN - 0.35,
    "forearm_r": _DOWN - 0.2,
    "thigh_l": _DOWN + 0.15,
    "shin_l": _DOWN + 0.08,
    "thigh_r": _DOWN - 0.15,
    "shin_r": _DOWN - 0.08,
}

# Capsule radius per bone in DEFAULT_BONES order: arms, legs, shoulder/hip
# girdles, torso sides, nose struts.
DEFAULT_RADII = (2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 3.0, 3.0, 4.0, 4.0, 2.5, 2.5)

_MARGIN = 2.0


def _finite_floats(name: str, values, count: int) -> tuple:
    """`values`, a tuple or list of `count` finite numbers, as floats."""
    if not (isinstance(values, (tuple, list)) and len(values) == count
            and all(_finite_number(v) for v in values)):
        raise ValidationError(f"{name} must hold {count} finite numbers")
    return tuple(float(v) for v in values)


def _named_floats(name: str, values) -> dict:
    """`values`, a dict of bone parameter names to finite numbers, with float values."""
    if not (isinstance(values, dict) and all(_finite_number(v) for v in values.values())):
        raise ValidationError(f"{name} must map names to finite numbers")
    for key in values:
        if key not in DEFAULT_LENGTHS and key not in DEFAULT_ANGLES:
            raise ValidationError(f"unknown bone parameter {key!r}")
    return {key: float(v) for key, v in values.items()}


@dataclass(frozen=True)
class SubjectSpec:
    """One articulated figure: root path plus per-frame absolute bone angles."""

    root_t: tuple = (64.0, 64.0)
    root_t1: tuple = (64.0, 64.0)
    lengths: dict = field(default_factory=dict)
    angles_t: dict = field(default_factory=dict)
    angles_t1: dict = field(default_factory=dict)
    capsule_radii: tuple = DEFAULT_RADII

    def __post_init__(self):
        for name in ("root_t", "root_t1"):
            object.__setattr__(self, name, _finite_floats(name, getattr(self, name), 2))
        for name in ("lengths", "angles_t", "angles_t1"):
            object.__setattr__(self, name, _named_floats(name, getattr(self, name)))
        radii = _finite_floats("capsule_radii", self.capsule_radii, len(DEFAULT_BONES))
        if any(r <= 0 for r in radii):
            raise ValidationError("capsule_radii must be positive")
        object.__setattr__(self, "capsule_radii", radii)


@dataclass(frozen=True)
class SceneSpec:
    width: int = 128
    height: int = 128
    subjects: tuple = (SubjectSpec(),)
    camera_motion: Vec2 = Vec2(0.0, 0.0)
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("width", 32), ("height", 32), ("seed", 0)):
            _check_count(name, getattr(self, name), least)
        if self.width * self.height > MAX_PIXELS:
            raise ValidationError(f"scene width x height must be at most {MAX_PIXELS} pixels (4096x4096)")
        subjects = tuple(self.subjects)
        if not subjects:
            raise ValidationError("scene needs at least one subject")
        if not all(isinstance(s, SubjectSpec) for s in subjects):
            raise ValidationError("each subject must be a SubjectSpec")
        if not isinstance(self.camera_motion, Vec2):
            raise ValidationError("camera_motion must be a Vec2")
        if not _finite_number(self.noise_sigma):
            raise ValidationError("noise_sigma must be a finite number")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        object.__setattr__(self, "subjects", subjects)
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))


@dataclass(frozen=True)
class SceneTruth:
    keypoints: tuple
    mask_t: SubjectMask
    boundary_t: PointSet
    gt_world: FlowMap
    gt_local: FlowMap
    gt_subject: dict
    frames: tuple


def _dir(angle: float) -> np.ndarray:
    return np.array([np.cos(angle), np.sin(angle)])


def _figure_joints(spec: SubjectSpec, frame: int) -> np.ndarray:
    """Forward kinematics: 17 COCO joint positions for frame 0 or 1."""
    lengths = {**DEFAULT_LENGTHS, **spec.lengths}
    overrides = spec.angles_t if frame == 0 else spec.angles_t1
    angles = {**DEFAULT_ANGLES, **overrides}
    root = np.asarray(spec.root_t if frame == 0 else spec.root_t1, dtype=np.float64)

    j = np.zeros((17, 2))
    axis = _dir(angles["hip_axis"])
    j[11] = root - 0.5 * lengths["hip_width"] * axis
    j[12] = root + 0.5 * lengths["hip_width"] * axis
    j[5] = j[11] + lengths["torso"] * _dir(angles["torso_l"])
    j[6] = j[12] + lengths["torso"] * _dir(angles["torso_r"])
    mid = 0.5 * (j[5] + j[6])
    u = _dir(angles["neck"])
    v = np.array([-u[1], u[0]])
    j[0] = mid + lengths["neck"] * u
    # face features stay within the nose-strut capsules so every keypoint
    # lies on the rasterized body
    head = lengths["head"]
    j[1] = j[0] + 0.25 * head * u - 0.3 * head * v
    j[2] = j[0] + 0.25 * head * u + 0.3 * head * v
    j[3] = j[0] + 0.1 * head * u - 0.45 * head * v
    j[4] = j[0] + 0.1 * head * u + 0.45 * head * v
    j[7] = j[5] + lengths["upper_arm"] * _dir(angles["upper_arm_l"])
    j[9] = j[7] + lengths["forearm"] * _dir(angles["forearm_l"])
    j[8] = j[6] + lengths["upper_arm"] * _dir(angles["upper_arm_r"])
    j[10] = j[8] + lengths["forearm"] * _dir(angles["forearm_r"])
    j[13] = j[11] + lengths["thigh"] * _dir(angles["thigh_l"])
    j[15] = j[13] + lengths["shin"] * _dir(angles["shin_l"])
    j[14] = j[12] + lengths["thigh"] * _dir(angles["thigh_r"])
    j[16] = j[14] + lengths["shin"] * _dir(angles["shin_r"])
    return j


def _bone_motion(j0: np.ndarray, j1: np.ndarray, bone: tuple) -> tuple:
    """Segment-to-segment map (rotation, scale, translation anchor pair)."""
    a0, b0 = j0[bone[0]], j0[bone[1]]
    a1, b1 = j1[bone[0]], j1[bone[1]]
    v0 = b0 - a0
    v1 = b1 - a1
    len0 = np.hypot(*v0)
    len1 = np.hypot(*v1)
    if len0 < 1e-12:
        theta, scale = 0.0, 1.0
    else:
        theta = np.arctan2(v1[1], v1[0]) - np.arctan2(v0[1], v0[0])
        scale = len1 / len0
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]]) * scale
    return a0, a1, rot


def _rasterize(joints: np.ndarray, radii: np.ndarray, box: tuple, label: int,
               frame: np.ndarray, when: str) -> tuple:
    """Draw one subject's capsules at `joints` into `frame` on `box`. Returns
    the box's body pixels and each pixel's governing bone, the nearest
    capsule holding it, the lowest bone on ties. Raises if the body overlaps
    an earlier subject, which the frame marks: every body pixel is drawn at
    70 + 12 * bone > 0. `when` ends that message.

    Each bone is scored on its own capsule window: its segment's box widened
    by its radius and 1 px against rounding, clipped to `box`. A pixel's
    distance to a bone does not depend on the window it is scored in, and
    no pixel outside the window lies within the radius, so the result is
    bitwise that of scoring every bone on the whole raster.
    """
    rows, cols = box
    best = np.full((rows.stop - rows.start, cols.stop - cols.start), np.inf)
    governing = np.zeros(best.shape, dtype=np.intp)
    for bi, (a_idx, b_idx) in enumerate(DEFAULT_BONES):
        a, b, r = joints[a_idx], joints[b_idx], radii[bi]
        lo = np.floor(np.minimum(a, b) - r).astype(int) - 1
        hi = np.ceil(np.maximum(a, b) + r).astype(int) + 2
        y0, y1 = max(lo[1], rows.start), min(hi[1], rows.stop)
        x0, x1 = max(lo[0], cols.start), min(hi[0], cols.stop)
        px = np.arange(x0, x1, dtype=np.float64)[None, :]
        py = np.arange(y0, y1, dtype=np.float64)[:, None]
        ab = b - a
        denom = float(ab @ ab)
        if denom < 1e-12:
            cx, cy = a[0], a[1]
        else:
            # Elementwise, not `(p - a) @ ab`: a BLAS product's rounding can
            # depend on the shape of the array it runs on.
            t = np.clip(((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / denom, 0.0, 1.0)
            cx, cy = a[0] + t * ab[0], a[1] + t * ab[1]
        d = np.hypot(px - cx, py - cy)
        window = (slice(y0 - rows.start, y1 - rows.start), slice(x0 - cols.start, x1 - cols.start))
        nearer = (d <= r) & (d < best[window])  # strict: a tie keeps the lower bone
        best[window][nearer] = d[nearer]
        governing[window][nearer] = bi
    body = best != np.inf
    if (frame[box][body] != 0).any():
        raise SpecOutOfBounds(f"subject {label} overlaps an earlier subject{when}")
    frame[box][body] = (70 + 12 * governing[body]).astype(np.uint8)
    return body, governing


def generate_scene(spec: SceneSpec) -> SceneTruth:
    """Build frames, masks, keypoints, boundaries, and exact GT flow.

    Identical specs (including seed) produce bitwise-identical output.
    """
    w, h = spec.width, spec.height
    labels = np.zeros((h, w), dtype=np.int32)
    world = np.zeros((h, w, 2))
    world[..., 0] = spec.camera_motion.dx
    world[..., 1] = spec.camera_motion.dy
    # Off every body, local flow is world - 0 = world, so it is written on the
    # bodies alone.
    local = world.copy()
    frame0 = np.zeros((h, w), dtype=np.uint8)
    frame1 = np.zeros((h, w), dtype=np.uint8)
    persons_t = []
    persons_t1 = []
    gt_subject: dict[int, Vec2] = {}

    for si, sub in enumerate(spec.subjects):
        label = si + 1
        j0 = _figure_joints(sub, 0)
        j1 = _figure_joints(sub, 1)
        radii = np.asarray(sub.capsule_radii)
        reach = radii.max()
        for joints in (j0, j1):
            lo = joints.min(axis=0) - reach
            hi = joints.max(axis=0) + reach
            if lo[0] < _MARGIN or lo[1] < _MARGIN or hi[0] > w - 1 - _MARGIN or hi[1] > h - 1 - _MARGIN:
                raise SpecOutOfBounds(
                    f"subject {label} leaves the raster (extent {lo} .. {hi})"
                )
        # Every capsule pixel of either frame lies within `reach` of the joints'
        # bounding box, so both frames are rasterized on that box, 1 px wider
        # against rounding; the margin check above keeps it on the raster.
        both = np.concatenate([j0, j1])
        x0, y0 = np.floor(both.min(axis=0) - reach).astype(int) - 1
        x1, y1 = np.ceil(both.max(axis=0) + reach).astype(int) + 2
        box = (slice(y0, y1), slice(x0, x1))

        body, governing = _rasterize(j0, radii, box, label, frame0, "")
        _rasterize(j1, radii, box, label, frame1, " at t+1")
        labels[box][body] = label
        ys, xs = np.nonzero(body)
        p = np.stack([xs + x0, ys + y0], axis=1).astype(np.float64)
        motions = [_bone_motion(j0, j1, bone) for bone in DEFAULT_BONES]
        for bi, (a0, a1, rot) in enumerate(motions):
            sel = governing[ys, xs] == bi
            if not sel.any():
                continue
            moved = (p[sel] - a0) @ rot.T + a1
            world[box][ys[sel], xs[sel]] = moved - p[sel]

        root_delta = np.asarray(sub.root_t1) - np.asarray(sub.root_t)
        gt_subject[label] = Vec2(root_delta[0], root_delta[1])
        local[box][body] = world[box][body] - root_delta

        for joints, plist in ((j0, persons_t), (j1, persons_t1)):
            arr = np.ones((17, 3))
            arr[:, :2] = joints
            plist.append(arr)

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        conf = float(np.exp(-spec.noise_sigma))
        for plist in (persons_t, persons_t1):
            for arr in plist:
                arr[:, :2] += rng.normal(0.0, spec.noise_sigma, size=(17, 2))
                arr[:, 2] = conf

    mask = SubjectMask(labels)
    boundaries = [trace_boundary(mask, lab).points for lab in mask.subject_ids]
    union = np.concatenate(boundaries) if boundaries else np.zeros((0, 2))

    # Every array is fresh: marked read-only, the types below take it without a copy.
    for arr in (frame0, frame1, union, world, local, *persons_t, *persons_t1):
        arr.setflags(write=False)

    return SceneTruth(
        keypoints=(KeypointFrame(tuple(persons_t)), KeypointFrame(tuple(persons_t1))),
        mask_t=mask,
        boundary_t=PointSet(union),
        gt_world=FlowMap(world),
        gt_local=FlowMap(local),
        gt_subject=gt_subject,
        frames=(frame0, frame1),
    )


def trace_boundary(mask: SubjectMask, subject_id: int) -> PointSet:
    """Boundary pixels of one subject, in raster order (row by row, then by
    column): every subject-labeled pixel that is 8-adjacent to a non-subject
    pixel or to the raster edge. Only the mask's subject box is read: every
    pixel just outside it is off the subject, as the raster edge is."""
    sel = None if mask.box is None else mask.labels[mask.box] == subject_id
    if sel is None or not sel.any():
        raise EmptySubject(f"subject {subject_id} not present in mask")

    padded = np.pad(sel, 1)
    interior = (
        padded[:-2, :-2] & padded[:-2, 1:-1] & padded[:-2, 2:]
        & padded[1:-1, :-2] & padded[1:-1, 2:]
        & padded[2:, :-2] & padded[2:, 1:-1] & padded[2:, 2:]
    )
    ys, xs = np.nonzero(sel & ~interior)
    rows, cols = mask.box
    return PointSet(_readonly(np.stack([xs + cols.start, ys + rows.start], axis=1).astype(np.float64)))


def scaled_lengths(factor: float) -> dict:
    """Default bone lengths scaled by a factor (smaller figures for small rasters)."""
    return {name: length * factor for name, length in DEFAULT_LENGTHS.items()}


def single_figure_scene(
    width: int = 128,
    height: int = 128,
    translation: tuple = (4.0, 1.0),
    arm_swing: float = 0.25,
    leg_swing: float = 0.18,
    root: tuple | None = None,
    length_scale: float = 1.0,
    seed: int = 0,
) -> SceneSpec:
    """Reference walking-style scene: root translation plus limb swings."""
    if root is None:
        root = (width * 0.45, height * 0.55)
    root_t1 = (root[0] + translation[0], root[1] + translation[1])
    angles_t1 = {
        "upper_arm_l": DEFAULT_ANGLES["upper_arm_l"] + arm_swing,
        "forearm_l": DEFAULT_ANGLES["forearm_l"] + arm_swing,
        "upper_arm_r": DEFAULT_ANGLES["upper_arm_r"] - arm_swing,
        "thigh_l": DEFAULT_ANGLES["thigh_l"] - leg_swing,
        "thigh_r": DEFAULT_ANGLES["thigh_r"] + leg_swing,
        "shin_l": DEFAULT_ANGLES["shin_l"] - leg_swing,
    }
    lengths = scaled_lengths(length_scale) if length_scale != 1.0 else {}
    subject = SubjectSpec(root_t=root, root_t1=root_t1, angles_t1=angles_t1, lengths=lengths)
    return SceneSpec(width=width, height=height, subjects=(subject,), seed=seed)


def random_scene(seed: int, width: int = 96, height: int = 96, length_scale: float = 1.0) -> SceneSpec:
    """Randomized single-figure scene with modest articulation, reproducible by seed."""
    rng = np.random.default_rng(seed)
    translation = rng.uniform(-3.5, 3.5, size=2)
    angles_t1 = {}
    for name in ("upper_arm_l", "upper_arm_r", "forearm_l", "forearm_r",
                 "thigh_l", "thigh_r", "shin_l", "shin_r"):
        angles_t1[name] = DEFAULT_ANGLES[name] + rng.uniform(-0.2, 0.2)
    root = (width * 0.5 - translation[0] * 0.5, height * 0.55 - translation[1] * 0.5)
    lengths = scaled_lengths(length_scale) if length_scale != 1.0 else {}
    subject = SubjectSpec(
        root_t=root,
        root_t1=(root[0] + translation[0], root[1] + translation[1]),
        angles_t1=angles_t1,
        lengths=lengths,
    )
    return SceneSpec(width=width, height=height, subjects=(subject,), seed=seed)

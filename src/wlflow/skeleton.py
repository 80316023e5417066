"""Dense skeleton maps, body-point matching, and alignment transforms.

A skeleton map is built by uniformly sampling points along each bone of a
17-joint COCO frame. Matching assigns every subject pixel to the skeleton
point minimizing distance-over-confidence. Alignment transforms map the
later skeleton onto the earlier one so offsets can be expressed in the
subject's own frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import EPS_CONF, KeypointFrame, SubjectMask, _check_confidences, _check_person, _owned, _pair, _readonly
from .errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    InsufficientHeadPoints,
    NoCandidates,
    ValidationError,
)

# 14 limb/torso bones over COCO indices; with 15 samples each this yields
# the default 210-point skeleton map.
DEFAULT_BONES = (
    (5, 7), (7, 9), (6, 8), (8, 10),      # arms
    (11, 13), (13, 15), (12, 14), (14, 16),  # legs
    (5, 6), (11, 12),                      # shoulders, hips
    (5, 11), (6, 12),                      # torso sides
    (0, 5), (0, 6),                        # nose to shoulders
)
DEFAULT_SAMPLES_PER_BONE = 15

HEAD_JOINTS = (0, 1, 2, 3, 4)

# match_all scores subject pixels in chunks of this many, which bounds its
# temporaries at _MATCH_CHUNK x (skeleton points) floats.
_MATCH_CHUNK = 256

# match_all's prefilter keeps a pixel's candidates whose squared score lies
# within this relative and this absolute slack of the least one. Both scores
# carry a few roundings each (a relative error of some 1e-15), and underflow
# shifts a squared score by under 1e-317 once EPS_CONF <= c <= 1, so the slack
# keeps every candidate whose exact score can tie or beat the least one's.
_PREFILTER_REL = 1e-12
_PREFILTER_ABS = 1e-300

# Skeleton offsets must stay below this many pixels: the skeleton terms multiply
# offset magnitudes together, and 1e150 squared stays inside the float range.
_MAX_OFFSET = 1e150

# The alignment fits of `fit_alignment`, by name.
ALIGN_METHODS = ("homography", "head", "translation")

# Homography fits fall back to a similarity when the DLT system is this
# ill-conditioned (near-collinear skeletons).
_DLT_CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class SkeletonMap:
    """Skeleton points, rows (x, y, c): any nonempty, finite (n, 3) array with c in [0, 1].

    interpolate_skeleton fills it bone by bone over DEFAULT_BONES and keeps
    the source person (`core._check_person`) in `joints`; head-anchor alignment needs it.
    """

    points: np.ndarray
    joints: np.ndarray | None = None

    def __post_init__(self):
        arr = _owned(self.points, np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
            raise ValidationError(f"skeleton points must have shape (n, 3) with n >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("skeleton points contain non-finite values")
        _check_confidences(arr[:, 2], "skeleton map")
        object.__setattr__(self, "points", arr)
        if self.joints is not None:
            object.__setattr__(self, "joints", _check_person(self.joints, "joint array"))

    @property
    def xy(self) -> np.ndarray:
        return self.points[:, :2]

    @property
    def confidences(self) -> np.ndarray:
        return self.points[:, 2]


@dataclass(frozen=True)
class SkeletonOffsets:
    """Per-point displacement vectors, (n, 2), between two skeleton maps of the same length."""

    vectors: np.ndarray

    def __post_init__(self):
        v = _owned(self.vectors, np.float64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValidationError(f"offsets need (n, 2) vectors, got shape {v.shape}")
        if not (np.abs(v) < _MAX_OFFSET).all():  # NaN fails too
            raise ValidationError(f"skeleton offsets must be finite and below {_MAX_OFFSET:g} px")
        object.__setattr__(self, "vectors", v)


@dataclass(frozen=True)
class AlignTransform:
    """Homogeneous 3x3 map taking later-frame skeleton coordinates to the earlier frame."""

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in ("homography", "similarity", "translation"):
            raise ValidationError(f"unknown transform kind {self.kind!r}")
        m = _owned(self.matrix, np.float64)
        if m.shape != (3, 3):
            raise ValidationError(f"transform matrix must be 3x3, got {m.shape}")
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValidationError("transform matrix is singular")
        if self.kind != "homography" and not np.allclose(m[2], (0.0, 0.0, 1.0)):
            raise ValidationError(f"{self.kind} transform must have affine bottom row")
        if abs(np.linalg.det(m[:2, :2])) < 1e-12:
            raise ValidationError("upper-left 2x2 block is singular")
        object.__setattr__(self, "matrix", m)

    def apply(self, xy: np.ndarray) -> np.ndarray:
        """Transform an (n, 2) array of points."""
        return _apply_homogeneous(self.matrix, np.asarray(xy, dtype=np.float64))

    def inverse(self) -> "AlignTransform":
        return AlignTransform(self.kind, _readonly(np.linalg.inv(self.matrix)))


def _apply_homogeneous(matrix: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Map (n, 2) points through a 3x3 homogeneous matrix."""
    h = np.hstack([pts, np.ones((pts.shape[0], 1))]) @ matrix.T
    return h[:, :2] / h[:, 2:3]


def interpolate_skeleton(frame: np.ndarray) -> SkeletonMap:
    """Sample each of the DEFAULT_BONES uniformly into DEFAULT_SAMPLES_PER_BONE points.

    `frame` is one person's (17, 3) array of (x, y, c) (`core._check_person`).
    A sampled point's confidence is the smaller endpoint confidence, floored
    at EPS_CONF. The t=0 and t=1 samples reproduce the joint coordinates bit-exactly.
    """
    joints = _check_person(frame, "joint array")
    m = DEFAULT_SAMPLES_PER_BONE
    t = np.linspace(0.0, 1.0, m)[:, None]
    out = np.empty((len(DEFAULT_BONES) * m, 3), dtype=np.float64)
    for i, (a, b) in enumerate(DEFAULT_BONES):
        pa, pb = joints[a, :2], joints[b, :2]
        seg = (1.0 - t) * pa[None, :] + t * pb[None, :]
        seg[0] = pa
        seg[-1] = pb
        conf = max(min(joints[a, 2], joints[b, 2]), EPS_CONF)
        out[i * m:(i + 1) * m, :2] = seg
        out[i * m:(i + 1) * m, 2] = conf
    return SkeletonMap(_readonly(out), joints=joints)


def _check_same_length(k_t: SkeletonMap, k_t1: SkeletonMap) -> None:
    if k_t.points.shape != k_t1.points.shape:
        raise DimensionMismatch(
            f"skeleton maps hold {k_t.points.shape[0]} and {k_t1.points.shape[0]} points"
        )


def skeleton_offsets(k_t: SkeletonMap, k_t1: SkeletonMap) -> SkeletonOffsets:
    """Per-point offsets, later minus earlier: k_t1.xy - k_t.xy."""
    _check_same_length(k_t, k_t1)
    with np.errstate(over="ignore", invalid="ignore"):  # SkeletonOffsets refuses what overflows
        vectors = k_t1.xy - k_t.xy
    return SkeletonOffsets(_readonly(vectors))


def match_body_point(p, skeleton: SkeletonMap, mask: SubjectMask) -> int:
    """Index of the skeleton point minimizing ||p - q|| / max(c_q, EPS_CONF).

    `p`, its (x, y), is a pair of finite numbers (`core._pair`) and must
    lie on a subject; the skeleton is assumed pre-filtered to that subject.
    Ties break toward the lowest index.
    """
    point = _pair("point", p)
    x, y = point.dx, point.dy
    ix, iy = int(round(x)), int(round(y))
    if not (0 <= iy < mask.height and 0 <= ix < mask.width) or mask.labels[iy, ix] == 0:
        raise ValidationError(f"point ({x}, {y}) is not on a subject")
    pts = skeleton.xy
    d = np.hypot(pts[:, 0] - x, pts[:, 1] - y)
    score = d / np.maximum(skeleton.confidences, EPS_CONF)
    return int(np.argmin(score))


def match_all(skeletons: Mapping[int, SkeletonMap], mask: SubjectMask) -> np.ndarray:
    """Per-pixel skeleton match table.

    Returns an (h, w) int32 array of indices into the concatenation of
    `skeletons[label].points` in ascending label order; background pixels
    hold -1. Each subject pixel gets the match_body_point index against its
    own subject's skeleton, bitwise: a prefilter on the squared score
    (dx^2 + dy^2) / c^2 keeps the candidates that can reach the least
    score, and the exact score hypot(dx, dy) / c is taken on those alone.
    Only the mask's subject box is read.
    """
    out = np.full((mask.height, mask.width), -1, dtype=np.int32)
    for lab in mask.subject_ids:
        if lab not in skeletons:
            raise NoCandidates(f"no skeleton supplied for subject {lab}")
    if mask.box is None:
        return _readonly(out)

    rows, cols = mask.box
    labels = mask.labels[mask.box]
    base = 0
    for lab in sorted(skeletons):
        sk = skeletons[lab]
        ys, xs = np.nonzero(labels == lab)
        ys += rows.start
        xs += cols.start
        qx, qy = sk.xy[:, 0], sk.xy[:, 1]
        conf = np.maximum(sk.confidences, EPS_CONF)
        conf2 = conf * conf
        with np.errstate(over="ignore"):  # far points square to inf
            for lo in range(0, ys.size, _MATCH_CHUNK):
                py = ys[lo:lo + _MATCH_CHUNK]
                px = xs[lo:lo + _MATCH_CHUNK]
                score = np.square(qx - px[:, None])
                score += np.square(qy - py[:, None])
                score /= conf2
                least = score.min(axis=1, keepdims=True)
                i, j = np.nonzero(score <= least * (1.0 + _PREFILTER_REL) + _PREFILTER_ABS)
                score.fill(np.inf)
                score[i, j] = np.hypot(qx[j] - px[i], qy[j] - py[i]) / conf[j]
                out[py, px] = base + np.argmin(score, axis=1)
        base += sk.points.shape[0]
    return _readonly(out)


def concat_points(skeletons: Mapping[int, SkeletonMap]) -> np.ndarray:
    """Skeleton points concatenated in the same label order match_all uses."""
    return np.concatenate([skeletons[lab].points for lab in sorted(skeletons)], axis=0)


def concat_offsets(offsets: Mapping[int, SkeletonOffsets]) -> SkeletonOffsets:
    """Offset vectors concatenated in the same label order match_all uses, so
    that a match table's index picks its point's offset."""
    return SkeletonOffsets(_readonly(np.concatenate([offsets[lab].vectors for lab in sorted(offsets)], axis=0)))


def assign_subjects(frame: KeypointFrame, mask: SubjectMask) -> dict[int, int]:
    """Map each mask label to the person whose hip midpoint lies nearest.

    Returns {label: person_index}. Every subject present in the mask must
    win exactly one person.
    """
    if mask.box is None:
        return {}
    labels = mask.labels[mask.box]
    ys, xs = np.nonzero(labels)
    labels_flat = labels[ys, xs]
    ys += mask.box[0].start
    xs += mask.box[1].start
    assignment: dict[int, int] = {}
    for pi, person in enumerate(frame.persons):
        with np.errstate(over="ignore", invalid="ignore"):
            hip_mid = 0.5 * (person[11, :2] + person[12, :2])
            d2 = (xs - hip_mid[0]) ** 2 + (ys - hip_mid[1]) ** 2
        nearest = int(np.argmin(d2))
        if not np.isfinite(d2[nearest]):
            raise ValidationError(f"person {pi} lies too far from every subject")
        lab = int(labels_flat[nearest])
        if lab in assignment:
            raise ValidationError(f"persons {assignment[lab]} and {pi} both map to subject {lab}")
        assignment[lab] = pi
    return assignment


def subject_skeletons(
    frame_t: KeypointFrame,
    frame_t1: KeypointFrame,
    mask: SubjectMask,
) -> dict[int, tuple[SkeletonMap, SkeletonMap]]:
    """Each subject's skeleton maps in both frames, as {label: (k_t, k_t1)}.

    Persons are assigned to subjects in frame t (assign_subjects) and keep
    their index in frame t+1, so both frames must list the same persons.
    """
    if len(frame_t) != len(frame_t1):
        raise ValidationError("keypoint frames list different person counts")
    assignment = assign_subjects(frame_t, mask)
    pairs = {}
    for label in mask.subject_ids:
        if label not in assignment:
            raise ValidationError(f"no person assigned to subject {label}")
        person = assignment[label]
        pairs[label] = (
            interpolate_skeleton(frame_t.persons[person]),
            interpolate_skeleton(frame_t1.persons[person]),
        )
    return pairs


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    centroid = pts.mean(axis=0)
    d = np.hypot(pts[:, 0] - centroid[0], pts[:, 1] - centroid[1]).mean()
    if d < 1e-12:
        raise DegenerateConfiguration("points are coincident")
    s = np.sqrt(2.0) / d
    return np.array([[s, 0.0, -s * centroid[0]],
                     [0.0, s, -s * centroid[1]],
                     [0.0, 0.0, 1.0]])


def _fit_similarity(src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least-squares similarity (scale, rotation, translation) src -> dst; weights > 0."""
    wn = w / w.sum()
    mu_s = wn @ src
    mu_d = wn @ dst
    cs = src - mu_s
    cd = dst - mu_d
    var_s = float((wn * (cs ** 2).sum(axis=1)).sum())
    cov = (cd * wn[:, None]).T @ cs
    _require_finite_fit(var_s, cov)
    if var_s < 1e-12:
        raise DegenerateConfiguration("source points are coincident")
    u, d, vt = np.linalg.svd(cov)
    sign = np.sign(np.linalg.det(u @ vt))  # +-1: u and vt are orthogonal
    rot = u @ np.diag([1.0, sign]) @ vt
    scale = float(d[0] + sign * d[1]) / var_s
    if abs(scale) < 1e-12:
        raise DegenerateConfiguration("degenerate similarity scale")
    t = mu_d - scale * (rot @ mu_s)
    m = np.eye(3)
    m[:2, :2] = scale * rot
    m[:2, 2] = t
    return m


def _fit_homography(src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Confidence-weighted normalized DLT; returns (matrix, condition)."""
    if src.shape[0] < 4:
        raise DegenerateConfiguration("homography needs at least 4 point pairs")
    t_src = _hartley_normalization(src)
    t_dst = _hartley_normalization(dst)
    sn = _apply_homogeneous(t_src, src)
    dn = _apply_homogeneous(t_dst, dst)
    sw = np.sqrt(w)
    n = src.shape[0]
    a = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    xp, yp = dn[:, 0], dn[:, 1]
    a[0::2, 3] = -x * sw
    a[0::2, 4] = -y * sw
    a[0::2, 5] = -sw
    a[0::2, 6] = yp * x * sw
    a[0::2, 7] = yp * y * sw
    a[0::2, 8] = yp * sw
    a[1::2, 0] = x * sw
    a[1::2, 1] = y * sw
    a[1::2, 2] = sw
    a[1::2, 6] = -xp * x * sw
    a[1::2, 7] = -xp * y * sw
    a[1::2, 8] = -xp * sw
    _require_finite_fit(a)
    # The null vector is the last row of the full V^T; the reduced one holds it
    # only when the system has at least 9 rows (n >= 5), and skips the 2n x 2n U.
    _, s, vt = np.linalg.svd(a, full_matrices=2 * n < 9)
    cond = s[0] / max(s[-2], 1e-300)
    hn = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ hn @ t_src
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    return h, cond


def _require_finite_fit(*values) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise DegenerateConfiguration("coordinates too large: the fit overflows")


def fit_alignment(k_t: SkeletonMap, k_t1: SkeletonMap, method: str) -> AlignTransform:
    """Fit a transform mapping k_t1 coordinates onto k_t.

    Methods (`ALIGN_METHODS`): "homography" (confidence-weighted normalized
    DLT over all skeleton points, similarity fallback on ill conditioning),
    "head" (weighted Procrustes similarity over head joints 0..4),
    "translation" (confidence-weighted mean offset, negated).
    Coordinates so large that the fit overflows raise DegenerateConfiguration
    without a floating-point warning.
    """
    _check_same_length(k_t, k_t1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kind, m = _fit_matrix(k_t, k_t1, method)
        _require_finite_fit(m)
        return AlignTransform(kind, _readonly(m))


def _fit_matrix(k_t: SkeletonMap, k_t1: SkeletonMap, method: str) -> tuple[str, np.ndarray]:
    w = np.maximum(np.minimum(k_t.confidences, k_t1.confidences), EPS_CONF)
    src = k_t1.xy
    dst = k_t.xy

    if method == "translation":
        wn = w / w.sum()
        shift = wn @ (dst - src)
        m = np.eye(3)
        m[:2, 2] = shift
        return "translation", m

    if method == "head":
        if k_t.joints is None or k_t1.joints is None:
            raise InsufficientHeadPoints("skeleton maps carry no source joints")
        idx = np.array(HEAD_JOINTS)
        c = np.minimum(k_t.joints[idx, 2], k_t1.joints[idx, 2])
        usable = c > EPS_CONF
        if usable.sum() < 2:
            raise InsufficientHeadPoints(
                f"need >= 2 head keypoints with confidence above {EPS_CONF}, got {int(usable.sum())}"
            )
        hs = k_t1.joints[idx[usable], :2]
        hd = k_t.joints[idx[usable], :2]
        return "similarity", _fit_similarity(hs, hd, c[usable])

    if method == "homography":
        h, cond = _fit_homography(src, dst, w)
        if cond > _DLT_CONDITION_LIMIT or abs(np.linalg.det(h)) < 1e-12:
            return "similarity", _fit_similarity(src, dst, w)
        return "homography", h

    raise ValidationError(f"unknown alignment method {method!r}")


def aligned_offsets(k_t: SkeletonMap, k_t1: SkeletonMap, t: AlignTransform) -> SkeletonOffsets:
    """Offsets after mapping k_t1 into k_t's frame: t.apply(k_t1.xy) - k_t.xy."""
    _check_same_length(k_t, k_t1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        vectors = t.apply(k_t1.xy) - k_t.xy
    return SkeletonOffsets(_readonly(vectors))

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wlflow import boundary as bnd
from wlflow import core, synth
from wlflow.core import (
    EPS_CONF,
    FlowMap,
    Hyperparams,
    KeypointFrame,
    PointSet,
    SubjectMask,
    Vec2,
    _UNCONVERGED,
    _plane_box,
    _sigmoid,
    armijo_descent,
    validate_pairing,
)
from wlflow.errors import DimensionMismatch, ValidationError
from wlflow.flows import Priors
from wlflow.skeleton import AlignTransform, SkeletonMap, SkeletonOffsets, interpolate_skeleton


def test_validate_pairing_matching_shapes():
    validate_pairing(FlowMap.zeros(64, 64), SubjectMask(np.zeros((64, 64), dtype=np.int32)))


def test_validate_pairing_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_pairing(FlowMap.zeros(64, 64), SubjectMask(np.zeros((64, 32), dtype=np.int32)))


def test_validate_pairing_minimal():
    validate_pairing(FlowMap.zeros(1, 1), SubjectMask(np.zeros((1, 1), dtype=np.int32)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, pytest.param(10 ** 400, id="huge-int"),
                                 pytest.param("1.0", id="string"), pytest.param(None, id="none"),
                                 pytest.param(True, id="bool")])
def test_vec2_rejects_non_finite(bad):
    with pytest.raises(ValidationError):
        Vec2(bad, 0.0)
    with pytest.raises(ValidationError):
        Vec2(0.0, bad)


def test_vec2_stores_floats():
    v = Vec2(np.float64(1.5), np.float32(-2.0))
    assert (v.dx, v.dy) == (1.5, -2.0) and type(v.dx) is float and type(v.dy) is float


def test_flowmap_rejects_non_finite():
    arr = np.zeros((4, 4, 2))
    arr[1, 2, 0] = np.nan
    with pytest.raises(ValidationError):
        FlowMap(arr)


def test_flowmap_rejects_bad_shape():
    with pytest.raises(ValidationError):
        FlowMap(np.zeros((4, 4, 3)))
    with pytest.raises(ValidationError):
        FlowMap(np.zeros((0, 4, 2)))


def test_flowmap_immutable():
    f = FlowMap.zeros(4, 4)
    with pytest.raises(ValueError):
        f.vectors[0, 0, 0] = 1.0


def test_pointset_rejects_nan():
    with pytest.raises(ValidationError):
        PointSet(np.array([[0.0, np.nan]]))


def test_pointset_may_be_empty():
    assert len(PointSet(np.zeros((0, 2)))) == 0


def test_keypoint_confidence_range():
    for ok in (0.0, 0.5, 1.0):
        arr = np.ones((17, 3))
        arr[0, 2] = ok
        KeypointFrame((arr,))
    for bad in (1.5, -0.1):
        arr = np.ones((17, 3))
        arr[0, 2] = bad
        with pytest.raises(ValidationError):
            KeypointFrame((arr,))


def test_keypoint_frame_needs_17_joints():
    with pytest.raises(ValidationError):
        KeypointFrame((np.ones((16, 3)),))
    KeypointFrame((np.ones((17, 3)),))


def test_keypoint_frame_rejects_bad_confidence():
    arr = np.ones((17, 3))
    arr[4, 2] = 1.5
    with pytest.raises(ValidationError):
        KeypointFrame((arr,))


_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def reference_mask_rule(arr):
    """Reference copy of `SubjectMask`'s label rule as it ran with `np.unique`,
    plus the int32 range check. Returns (subject ids, None) or (None, error text)."""
    if arr.min() < 0:
        return None, "mask labels must be non-negative"
    if arr.max() > np.iinfo(np.int32).max:
        return None, f"mask label {arr.max()} exceeds the int32 range"
    present = np.unique(arr)
    subjects = present[present > 0]
    if subjects.size and not np.array_equal(subjects, np.arange(1, subjects.size + 1)):
        return None, f"subject labels must form a contiguous range 1..k, got {subjects.tolist()}"
    return tuple(int(v) for v in subjects), None


@st.composite
def label_planes(draw):
    """An integer label plane up to 8x8 of any dtype int8..uint64: labels 0..k
    (all zero when k is 0, with gaps where a label is not drawn), and at times
    one pixel set to a large label, to the dtype's extreme or to -1."""
    dtype = np.dtype(draw(st.sampled_from(_INT_DTYPES)))
    k = draw(st.integers(0, 4))
    arr = draw(hnp.arrays(dtype, (draw(st.integers(1, 8)), draw(st.integers(1, 8))),
                          elements=st.integers(0, k)))
    info = np.iinfo(dtype)
    special = draw(st.sampled_from([None, 2**30, 2**31 - 1, 2**31, 2**32 + 1, info.max, info.min, -1]))
    if special is not None and info.min <= special <= info.max:
        arr[draw(st.integers(0, arr.shape[0] - 1)), draw(st.integers(0, arr.shape[1] - 1))] = special
    return arr


@settings(max_examples=150)
@given(label_planes())
def test_mask_labels_must_be_contiguous(arr):
    ids, error = reference_mask_rule(arr)
    if error is None:
        mask = SubjectMask(arr)
        assert mask.subject_ids == ids
        assert mask.labels.dtype == np.int32 and np.array_equal(mask.labels, arr)
    else:
        with pytest.raises(ValidationError) as info:
            SubjectMask(arr)
        assert str(info.value) == error


@settings(max_examples=150)
@given(label_planes())
def test_mask_box_bounds_the_labelled_pixels(arr):
    """`box` is the bounding box of the labelled pixels: none lies outside it,
    and one lies on each of its four sides."""
    if reference_mask_rule(arr)[1] is not None:
        return
    mask = SubjectMask(arr)
    assert mask.box == _plane_box(arr > 0, 0)
    if mask.box is None:
        assert not arr.any()
        return
    inside = np.zeros(arr.shape, dtype=bool)
    inside[mask.box] = True
    assert not arr[~inside].any()
    part = arr[mask.box] > 0
    assert part[0].any() and part[-1].any() and part[:, 0].any() and part[:, -1].any()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: FlowMap.zeros(3, 2), id="FlowMap"),
    pytest.param(lambda: SubjectMask(np.zeros((2, 3), np.int32)), id="SubjectMask"),
    pytest.param(lambda: PointSet(np.zeros((3, 2))), id="PointSet"),
    pytest.param(lambda: KeypointFrame((np.ones((17, 3)),)), id="KeypointFrame"),
])
def test_array_types_compare_and_hash_by_identity(make):
    """`==` and `hash` work on the types that hold arrays, by identity: two
    objects built from equal arrays are different objects."""
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: SubjectMask(np.zeros(4, np.int32)), "mask must be a (h, w) array, got shape (4,)",
                 id="mask-1d"),
    pytest.param(lambda: SubjectMask(np.zeros((0, 3), np.int32)), "mask must be a (h, w) array, got shape (0, 3)",
                 id="mask-no-rows"),
    pytest.param(lambda: SubjectMask(np.zeros((2, 2, 1), np.int32)),
                 "mask must be a (h, w) array, got shape (2, 2, 1)", id="mask-3d"),
    pytest.param(lambda: SubjectMask(np.zeros((2, 2))), "mask labels must be integers, got dtype float64",
                 id="mask-float"),
    pytest.param(lambda: SubjectMask(np.zeros((2, 2), bool)), "mask labels must be integers, got dtype bool",
                 id="mask-bool"),
    pytest.param(lambda: PointSet(np.zeros((2, 3))), "points must have shape (n, 2), got (2, 3)",
                 id="points-three-columns"),
    pytest.param(lambda: PointSet(np.zeros(4)), "points must have shape (n, 2), got (4,)", id="points-1d"),
])
def test_mask_and_point_set_refuse_shapes_and_dtypes(make, message):
    with pytest.raises(ValidationError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("dtype, label", [(np.int64, 2**32 + 1), (np.uint32, 2**31), (np.uint64, 2**63)])
def test_mask_refuses_labels_past_int32(dtype, label):
    with pytest.raises(ValidationError, match=f"mask label {label} exceeds the int32 range"):
        SubjectMask(np.array([[0, label]], dtype=dtype))


def test_mask_refuses_a_huge_label_without_counting_up_to_it():
    arr = np.full((2, 2), 2**30, dtype=np.int32)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"contiguous range 1\.\.k, got \[1073741824\]"):
            SubjectMask(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_hyperparams_defaults():
    hp = Hyperparams()
    assert hp.alpha == 0.1
    assert hp.beta == 0.01
    assert hp.theta_a == 15.0
    assert hp.theta_il == 0.8
    assert hp.theta_ih == 1.2
    assert hp.scales == (8, 16, 32)


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.0},
    {"beta": -1.0},
    {"theta_il": 1.2, "theta_ih": 0.8},
    {"theta_a": 95.0},
    {"scales": ()},
    {"scales": (1,)},
    {"scales": (2.5, 8.9)},
    {"alpha": float("inf")},
    {"beta": float("nan")},
    {"theta_ih": float("inf")},
    {"edge_theta_i": float("inf")},
    {"edge_theta_a": float("inf")},
    {"edge_theta_a": 360.0},
    {"alpha": True},
    {"scales": (8, float("inf"))},
    {"scales": (float("nan"),)},
    {"scales": (8, 8)},
    {"scales": (8, 16, 8.0)},
])
def test_hyperparams_invariants(kwargs):
    with pytest.raises(ValidationError):
        Hyperparams(**kwargs)


def test_hyperparams_integral_float_scales_become_ints():
    scales = Hyperparams(scales=(8.0, 16)).scales
    assert scales == (8, 16)
    assert all(type(s) is int for s in scales)


def test_hyperparams_scale_cap():
    """A scale up to MAX_PIXELS (2^24), the longest raster side, is kept;
    a larger one, which would still be one cell, is refused."""
    assert Hyperparams(scales=(2**24,)).scales == (2**24,)
    for scale in (2**24 + 1, 2**63, 1e300):
        with pytest.raises(ValidationError, match=r"each scales entry must lie in \[2, 16777216\]"):
            Hyperparams(scales=(8, scale))


def _padded_priors(truth, width: int, height: int) -> Priors:
    """`Priors.build` of a scene of at most `width` x `height` pixels, its mask
    padded with background on the right and at the bottom to that raster."""
    labels = truth.mask_t.labels
    pad = ((0, height - labels.shape[0]), (0, width - labels.shape[1]))
    return Priors.build(*truth.keypoints[:2], SubjectMask(np.pad(labels, pad)), truth.boundary_t)


# Each entry point of the raster rule (`core._check_raster`), called on a width x height raster.
_RASTER_ENTRIES = {
    "scene": lambda truth, w, h: synth.SceneSpec(width=w, height=h),
    "patch-grid": lambda truth, w, h: bnd.build_patch_grid(truth.boundary_t, truth.boundary_t, 8, w, h),
    "morph": lambda truth, w, h: bnd.morph_curve_fit(
        truth.boundary_t, truth.boundary_t, bnd.MorphOptions(max_iters=1, width=w, height=h)),
    "priors": _padded_priors,
}


@pytest.mark.parametrize("entry", list(_RASTER_ENTRIES))
def test_raster_rule_holds_at_every_entry_point(small_truth, entry, monkeypatch):
    """Scenes, patch grids, morph rasters and priors take a raster of exactly
    `core.MAX_PIXELS` pixels and refuse one pixel more, with one message. The
    cap is lowered to 66 x 64 so that no test allocates 2^24 pixels; 65 x 65
    is one pixel more, and both rasters hold the 64 x 64 scene."""
    monkeypatch.setattr(core, "MAX_PIXELS", 66 * 64)
    build = _RASTER_ENTRIES[entry]
    build(small_truth, 66, 64)
    with pytest.raises(ValidationError, match=r"^raster width x height must be at most 4224 pixels \("):
        build(small_truth, 65, 65)


def test_confidence_floor_constant():
    assert EPS_CONF == 1e-3


@pytest.mark.parametrize("trial_value, converged", [(np.inf, False), (2.0, True)])
def test_armijo_exhausted_line_search_converges_only_on_a_finite_value(trial_value, converged):
    """Every trial is rejected, so all 40 halvings run and the start point is
    returned. A search exhausted on finite values stops on "line_search" and
    has converged; one whose trial values overflow to inf stops on
    "overflow" and has not."""
    x = np.array([1.0, -2.0])
    trials = []

    def fn(cand):
        trials.append(cand)
        return trial_value, lambda: pytest.fail("a rejected trial built its gradient")

    def on_step(*_):
        pytest.fail("a step was accepted")

    out, stop = armijo_descent(fn, x, 1.0, np.array([0.5, 0.5]), 1.0, 3, 1e-9, on_step)
    assert out is x and stop == ("line_search" if converged else "overflow")
    assert (stop not in _UNCONVERGED) is converged
    assert len(trials) == 40


@given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(width=64)))
def test_sigmoid_equals_the_two_sided_clip_bitwise(x):
    """`_sigmoid` is bitwise the formula with `np.clip` for any float, NaN
    and ±inf included, also when it writes in place (`out` x), and raises
    no floating-point error on a number: the clip keeps e^-x from
    overflowing and from underflowing."""
    x = np.concatenate([x, [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 36.0, 38.0, 500.0, 501.0, 800.0]])
    clipped = 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))
    assert _sigmoid(x).view(np.uint64).tolist() == clipped.view(np.uint64).tolist()
    y = x.copy()
    assert _sigmoid(y, out=y) is y and y.view(np.uint64).tolist() == clipped.view(np.uint64).tolist()
    with np.errstate(all="raise"):
        _sigmoid(x[~np.isnan(x)])


def test_armijo_writes_neither_its_start_point_nor_its_gradient():
    """Read-only start point and gradient keep their bytes, and each accepted
    iterate keeps its own: no trial or move is built in an array that the
    caller or an earlier step holds."""
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    grad = 2.0 * x
    for arr in (x, grad):
        arr.setflags(write=False)
    start = x.tobytes(), grad.tobytes()
    seen = []

    def fn(cand):
        return float((cand ** 2).sum()), lambda: 2.0 * cand

    def on_step(it, value, step):
        seen.append((it, it.tobytes()))

    out, stop = armijo_descent(fn, x, float((x ** 2).sum()), grad, 0.125, 3, 1e-12, on_step)
    assert (x.tobytes(), grad.tobytes()) == start
    assert len(seen) == 3 and stop == "budget" and out is seen[-1][0]
    assert all(it.tobytes() == saved for it, saved in seen)
    assert seen[0][1] == (x - 0.125 * grad).tobytes()


def _person(rng):
    return np.column_stack([rng.uniform(0.0, 30.0, (17, 2)), rng.uniform(0.0, 1.0, 17)])


_OWNER_LABELS = np.array([[0, 1, 1, 0], [0, 1, 2, 2], [0, 0, 2, 0]], dtype=np.int32)


def _owner_priors(matches):
    offsets = SkeletonOffsets(np.zeros((5, 2)))
    return Priors(matches, offsets, PointSet(np.zeros((0, 2))), SubjectMask(_OWNER_LABELS))


# Per public constructor: a valid input array of its kind from a generator,
# and the array that the built object keeps of it.
_OWNERS = {
    "FlowMap": (lambda rng: rng.normal(0.0, 2.0, (3, 4, 2)), lambda a: FlowMap(a).vectors),
    "PointSet": (lambda rng: rng.uniform(0.0, 9.0, (5, 2)), lambda a: PointSet(a).points),
    "KeypointFrame": (_person, lambda a: KeypointFrame((a,)).persons[0]),
    "SkeletonMap": (_person, lambda a: SkeletonMap(a).points),
    "SkeletonMap joints": (_person, lambda a: SkeletonMap(np.full((2, 3), 0.5), joints=a).joints),
    "interpolate_skeleton": (_person, lambda a: interpolate_skeleton(a).joints),
    "SkeletonOffsets": (lambda rng: rng.normal(0.0, 3.0, (4, 2)), lambda a: SkeletonOffsets(a).vectors),
    "AlignTransform": (lambda rng: np.array([[1.0, 0.0, rng.normal()], [0.0, 1.0, rng.normal()], [0.0, 0.0, 1.0]]),
                       lambda a: AlignTransform("translation", a).matrix),
    "SubjectMask": (lambda rng: _OWNER_LABELS * (rng.random() < 2.0), lambda a: SubjectMask(a).labels),
    "Priors": (lambda rng: np.where(_OWNER_LABELS > 0, rng.integers(0, 5, _OWNER_LABELS.shape), -1),
               lambda a: _owner_priors(a).matches),
}


def _flags(arr):
    return {name: arr.flags[name] for name in ("WRITEABLE", "C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "ALIGNED")}


@settings(max_examples=120)
@given(owner=st.sampled_from(sorted(_OWNERS)), seed=st.integers(0, 2**32 - 1), writeable=st.booleans(),
       layout=st.sampled_from(["contiguous", "strided", "fortran", "other-dtype"]))
def test_no_public_constructor_changes_its_input(owner, seed, writeable, layout):
    """A public type takes a read-only array as it is and copies a writeable
    one: the caller's array keeps its bytes and its flags, the object's
    array is read-only and holds the same values, and a later write to the
    caller's array does not reach it. A read-only C-contiguous array of the
    type's dtype is kept without a copy."""
    make, kept = _OWNERS[owner]
    arr = make(np.random.default_rng(seed))
    if layout == "strided":
        arr = np.repeat(arr, 2, axis=0)[::2]
    elif layout == "fortran":
        arr = np.asfortranarray(arr)
    elif layout == "other-dtype":
        arr = arr.astype(np.float32 if arr.dtype.kind == "f" else np.int16)
    arr.setflags(write=writeable)
    before, flags = arr.tobytes(), _flags(arr)
    stored = kept(arr)
    assert arr.tobytes() == before and _flags(arr) == flags
    assert not stored.flags.writeable and stored.flags.c_contiguous
    assert np.array_equal(stored, arr)
    if writeable:
        assert not np.shares_memory(stored, arr)
        snapshot = stored.copy()
        arr[...] = 0
        assert np.array_equal(stored, snapshot)
    elif layout == "contiguous" and owner != "SubjectMask":  # a mask always casts its labels to a fresh int32 plane
        assert stored is arr

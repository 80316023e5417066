import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlflow import flows, io, synth
from wlflow.cli import _read_scene_spec
from wlflow.core import TAU_RANGE, FlowMap, Hyperparams, KeypointFrame, PointSet, SubjectMask, Vec2
from wlflow.errors import (
    BadMagic,
    FormatError,
    NonFiniteValue,
    SchemaError,
    TruncatedFile,
    ValidationError,
    WlflowError,
)

GOLDEN_RENDER_SHA256 = "2240d3ea1b043c9fe7b1acf60d6bb07396bd455dc7679d07e0a5c4e751fc5244"


def test_flo_1x1_layout(tmp_path):
    path = tmp_path / "one.flo"
    io.write_flo(path, FlowMap(np.array([[[1.5, -2.0]]])))
    raw = path.read_bytes()
    assert len(raw) == 20
    assert struct.unpack("<fiiff", raw) == (202021.25, 1, 1, 1.5, -2.0)


def test_flo_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(16, 16, 2)).astype(np.float32).astype(np.float64)
    path = tmp_path / "rt.flo"
    io.write_flo(path, FlowMap(arr))
    back = io.read_flo(path)
    assert np.array_equal(back.vectors, arr)
    # second write is byte-identical
    path2 = tmp_path / "rt2.flo"
    io.write_flo(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_flo_bad_magic(tmp_path):
    path = tmp_path / "bad.flo"
    path.write_bytes(struct.pack("<fii", 0.0, 1, 1) + b"\x00" * 8)
    with pytest.raises(BadMagic):
        io.read_flo(path)


def test_flo_truncated(tmp_path):
    path = tmp_path / "trunc.flo"
    path.write_bytes(struct.pack("<fii", 202021.25, 4, 4) + b"\x00" * 10)
    with pytest.raises(TruncatedFile):
        io.read_flo(path)


def test_flo_non_finite(tmp_path):
    path = tmp_path / "nan.flo"
    payload = np.array([np.nan, 0.0], dtype="<f4").tobytes()
    path.write_bytes(struct.pack("<fii", 202021.25, 1, 1) + payload)
    with pytest.raises(NonFiniteValue):
        io.read_flo(path)


def test_keypoints_roundtrip(tmp_path):
    arr = np.zeros((17, 3))
    arr[:, 2] = 1.0
    frames = [KeypointFrame((arr,))]
    path = tmp_path / "kp.json"
    io.write_keypoints(path, frames)
    back = io.read_keypoints(path)
    assert len(back) == 1
    assert np.array_equal(back[0].persons[0], arr)


def test_mask_all_zero(tmp_path):
    path = tmp_path / "zero.pgm"
    io.write_mask(path, SubjectMask(np.zeros((6, 8), dtype=np.int32)))
    back = io.read_mask(path)
    assert back.subject_ids == ()
    assert back.width == 8 and back.height == 6


def test_mask_roundtrip(tmp_path):
    labels = np.zeros((10, 12), dtype=np.int32)
    labels[2:5, 3:7] = 1
    labels[6:9, 8:11] = 2
    path = tmp_path / "mask.pgm"
    io.write_mask(path, SubjectMask(labels))
    back = io.read_mask(path)
    assert np.array_equal(back.labels, labels)
    path2 = tmp_path / "mask2.pgm"
    io.write_mask(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_mask_rejects_ascii_pgm(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text("P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(FormatError):
        io.read_mask(path)


def test_points_roundtrip(tmp_path):
    pts = PointSet(np.array([[1.0, 2.0], [3.5, 4.25]]))
    path = tmp_path / "pts.json"
    io.write_points(path, pts)
    back = io.read_points(path)
    assert np.array_equal(back.points, pts.points)


_PERSON = [[1.0, 2.0, 0.5]] * 17


def _person_with(index, keypoint):
    person = list(_PERSON)
    person[index] = keypoint
    return {"frames": [{"persons": [person]}]}


@pytest.mark.parametrize("read, text, message", [
    pytest.param(io.read_keypoints, "[]", "$.frames missing", id="keypoints-not-an-object"),
    pytest.param(io.read_keypoints, '{"persons": []}', "$.frames missing", id="keypoints-no-frames"),
    pytest.param(io.read_keypoints, '{"frames": {}}', "$.frames must be a list", id="frames-object"),
    pytest.param(io.read_keypoints, '{"frames": [[]]}', "$.frames[0].persons missing", id="frame-list"),
    pytest.param(io.read_keypoints, '{"frames": [{"persons": []}, {}]}', "$.frames[1].persons missing",
                 id="frame-no-persons"),
    pytest.param(io.read_keypoints, '{"frames": [{"persons": 3}]}', "$.frames[0].persons must be a list",
                 id="persons-number"),
    pytest.param(io.read_keypoints, json.dumps({"frames": [{"persons": [_PERSON[:16]]}]}),
                 "$.frames[0].persons[0] must list exactly 17 keypoints", id="sixteen-keypoints"),
    pytest.param(io.read_keypoints, '{"frames": [{"persons": [{}]}]}',
                 "$.frames[0].persons[0] must list exactly 17 keypoints", id="person-object"),
    pytest.param(io.read_keypoints, json.dumps(_person_with(3, [1.0, 2.0])),
                 "$.frames[0].persons[0][3] must be [x, y, c]", id="keypoint-two-numbers"),
    pytest.param(io.read_keypoints, json.dumps(_person_with(16, 5.0)),
                 "$.frames[0].persons[0][16] must be [x, y, c]", id="keypoint-number"),
    pytest.param(io.read_keypoints, json.dumps(_person_with(0, [1.0, None, 0.5])),
                 "$.frames[0].persons[0][0] has entries that are not finite numbers", id="keypoint-null"),
    pytest.param(io.read_keypoints, json.dumps(_person_with(2, [1.0, 2.0, True])),
                 "$.frames[0].persons[0][2] has entries that are not finite numbers", id="keypoint-bool"),
    pytest.param(io.read_keypoints, json.dumps(_person_with(4, [float("nan"), 2.0, 0.5])),
                 "$.frames[0].persons[0][4] has entries that are not finite numbers", id="keypoint-nan"),
    pytest.param(io.read_keypoints, json.dumps(_person_with(5, [1.0, 2.0, 1.5])),
                 "$.frames[0].persons[0][5] confidence 1.5 outside [0, 1]", id="keypoint-confidence"),
    pytest.param(io.read_points, "[]", "$.points must be a list", id="points-not-an-object"),
    pytest.param(io.read_points, "{}", "$.points must be a list", id="points-missing"),
    pytest.param(io.read_points, '{"points": {}}', "$.points must be a list", id="points-object"),
    pytest.param(io.read_points, '{"points": [[1, 2], [3]]}', "$.points[1] must be [x, y]", id="point-one-number"),
    pytest.param(io.read_points, '{"points": [[1, 2, 3]]}', "$.points[0] must be [x, y]", id="point-three-numbers"),
    pytest.param(io.read_points, '{"points": ["xy"]}', "$.points[0] must be [x, y]", id="point-string"),
    pytest.param(io.read_points, '{"points": [[1, "2"]]}', "$.points[0] has entries that are not finite numbers",
                 id="point-string-entry"),
    pytest.param(io.read_points, '{"points": [[Infinity, 2]]}',
                 "$.points[0] has entries that are not finite numbers", id="point-infinity"),
    pytest.param(io.read_points, '{"points": [[1e400, 2]]}',
                 "$.points[0] has entries that are not finite numbers", id="point-overflow"),
])
def test_json_readers_refuse_each_fault_with_its_message(tmp_path, read, text, message):
    """A keypoints or points file with one fault raises SchemaError whose
    message is the file's path and the fault's JSON location and rule."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(SchemaError) as info:
        read(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("raw, error, message", [
    pytest.param(b"P2\n2 2\n255\n\0\0\0\0", FormatError, "ASCII PGM (P2) not accepted, use binary P5", id="ascii"),
    pytest.param(b"P6\n2 2\n255\n", FormatError, "not a PGM file (magic b'P6')", id="ppm"),
    pytest.param(b"P", TruncatedFile, "too short for a PGM header", id="one-byte"),
    pytest.param(b"P5\n2 # w\n", TruncatedFile, "header ended early", id="no-height"),
    pytest.param(b"P5\n2 -2\n255\n", FormatError, "non-numeric header token b'-2'", id="negative-height"),
    pytest.param(b"P5\n0 2\n255\n", FormatError, "bad dimensions 0x2", id="zero-width"),
    pytest.param(b"P5\n2 0\n255\n", FormatError, "bad dimensions 2x0", id="zero-height"),
    pytest.param(b"P5\n1 1\n65535\n\0\0", FormatError, "only 8-bit PGM accepted (maxval 65535)", id="16-bit"),
    pytest.param(b"P5\n2 2\n255\n\0\0\0", TruncatedFile, "expected 4 pixels, got 3", id="short-payload"),
    pytest.param(b"P5\n2 1\n255\n\0\2", FormatError, "subject labels must form a contiguous range 1..k, got [2]",
                 id="label-gap"),
])
def test_mask_reader_refuses_each_fault_with_its_message(tmp_path, raw, error, message):
    path = tmp_path / "mask.pgm"
    path.write_bytes(raw)
    with pytest.raises(error) as info:
        io.read_mask(path)
    assert str(info.value) == f"{path}: {message}"


def test_mask_writer_refuses_more_than_255_labels(tmp_path):
    labels = np.arange(257, dtype=np.int32).reshape(1, 257)
    with pytest.raises(FormatError) as info:
        io.write_mask(tmp_path / "mask.pgm", SubjectMask(labels))
    assert str(info.value) == "PGM masks support at most 255 subject labels"
    assert not (tmp_path / "mask.pgm").exists()


def test_render_zero_flow_is_white(tmp_path):
    path = tmp_path / "white.ppm"
    io.render_flow(FlowMap.zeros(8, 8), path)
    raw = path.read_bytes()
    header_end = raw.index(b"255\n") + 4
    pixels = raw[header_end:]
    assert pixels == b"\xff" * (8 * 8 * 3)


def test_render_constant_flow_single_hue(tmp_path):
    path = tmp_path / "hue.ppm"
    io.render_flow(FlowMap.constant(8, 8, Vec2(1.0, 0.0)), path, max_norm=1.0)
    raw = path.read_bytes()
    header_end = raw.index(b"255\n") + 4
    pixels = np.frombuffer(raw[header_end:], dtype=np.uint8).reshape(-1, 3)
    assert (pixels == pixels[0]).all()
    assert not (pixels[0] == (255, 255, 255)).all()


@pytest.mark.parametrize("max_norm", [float("nan"), float("inf"), -float("inf")])
def test_render_rejects_non_finite_max_norm(max_norm):
    with pytest.raises(ValidationError, match="max_norm must be a finite number"):
        io.flow_to_rgb(FlowMap.constant(4, 4, Vec2(1.0, 0.0)), max_norm)


def test_render_golden_hash(tmp_path):
    sub = synth.SubjectSpec(
        angles_t1={"forearm_l": synth.DEFAULT_ANGLES["forearm_l"] + np.deg2rad(20)}
    )
    truth = synth.generate_scene(synth.SceneSpec(subjects=(sub,)))
    path = tmp_path / "golden.ppm"
    io.render_flow(truth.gt_world, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_RENDER_SHA256
    # rendering a hue gradient inside the rotated limb: more than one color
    header_end = path.read_bytes().index(b"255\n") + 4
    pixels = np.frombuffer(path.read_bytes()[header_end:], dtype=np.uint8).reshape(-1, 3)
    moving = pixels[(pixels != 255).any(axis=1)]
    assert len({tuple(p) for p in moving}) > 3


def test_fuzz_readers_raise_typed_errors(tmp_path):
    rng = np.random.default_rng(123)

    flo_path = tmp_path / "seed.flo"
    io.write_flo(flo_path, FlowMap(rng.normal(size=(6, 5, 2))))
    flo_bytes = bytearray(flo_path.read_bytes())

    mask_path = tmp_path / "seed.pgm"
    labels = np.zeros((6, 5), dtype=np.int32)
    labels[2:4, 1:4] = 1
    io.write_mask(mask_path, SubjectMask(labels))
    mask_bytes = bytearray(mask_path.read_bytes())

    kp_path = tmp_path / "seed.json"
    arr = np.zeros((17, 3))
    arr[:, 2] = 0.5
    io.write_keypoints(kp_path, [KeypointFrame((arr,))])
    kp_bytes = bytearray(kp_path.read_bytes())

    cases = [
        (flo_bytes, io.read_flo, "f.flo"),
        (mask_bytes, io.read_mask, "m.pgm"),
        (kp_bytes, io.read_keypoints, "k.json"),
    ]
    n_mutations = 1000
    for i in range(n_mutations):
        seed_bytes, reader, name = cases[i % 3]
        mutated = bytearray(seed_bytes)
        if rng.random() < 0.5 and len(mutated) > 1:
            mutated = mutated[: rng.integers(0, len(mutated))]
        else:
            for _ in range(rng.integers(1, 4)):
                pos = rng.integers(0, len(mutated))
                mutated[pos] = rng.integers(0, 256)
        target = tmp_path / f"mut_{i}_{name}"
        target.write_bytes(bytes(mutated))
        try:
            reader(target)
        except WlflowError:
            pass  # typed rejection is the contract


def test_reports_have_deterministic_key_order():
    rep = io.Report(
        command="metrics",
        inputs={"pred": {"path": "a", "sha256": "00"}},
        hyperparams={"alpha": 0.1},
        metrics={"mean_epe": 1.23456789123},
        trace=[],
        wall_time_s=0.5,
    )
    doc = rep.to_json()
    assert json.loads(doc)["metrics"]["mean_epe"] == 1.23456789
    assert doc == rep.to_json()


def test_hyperparams_config_roundtrip(tmp_path):
    path = tmp_path / "hp.json"
    path.write_text(json.dumps({"alpha": 0.2, "scales": [4, 8]}))
    hp = io.hyperparams_from_json(path)
    assert hp.alpha == 0.2
    assert hp.scales == (4, 8)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gamma": 1.0}))
    with pytest.raises(SchemaError):
        io.hyperparams_from_json(bad)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(1e-6, 1e6)

_HYPERPARAMS = st.builds(
    lambda theta_il, band, **fields: Hyperparams(theta_il=theta_il, theta_ih=theta_il + band, **fields),
    theta_il=st.floats(0.01, 10.0), band=st.floats(0.01, 10.0), alpha=_POSITIVE, beta=_POSITIVE,
    theta_a=st.floats(0.0, 90.0, exclude_min=True, exclude_max=True), edge_theta_i=_POSITIVE,
    edge_theta_a=st.floats(0.0, 180.0, exclude_min=True),
    scales=st.lists(st.integers(2, 64), min_size=1, max_size=4, unique=True).map(tuple),
)
_SOLVER_OPTIONS = st.builds(
    flows.SolverOptions, max_iters=st.integers(1, 10 ** 6),
    tau_schedule=st.lists(st.floats(*TAU_RANGE), min_size=1, max_size=4).map(tuple),
    smoothness_weight=st.floats(0.0, 1e6), tolerance=_POSITIVE,
)
_SUBJECT_SPECS = st.builds(
    synth.SubjectSpec, root_t=st.tuples(_FINITE, _FINITE), root_t1=st.tuples(_FINITE, _FINITE),
    lengths=st.dictionaries(st.sampled_from(sorted(synth.DEFAULT_LENGTHS)), _FINITE, max_size=3),
    angles_t=st.dictionaries(st.sampled_from(sorted(synth.DEFAULT_ANGLES)), _FINITE, max_size=3),
    angles_t1=st.dictionaries(st.sampled_from(sorted(synth.DEFAULT_ANGLES)), _FINITE, max_size=3),
    capsule_radii=st.tuples(*[_POSITIVE] * len(synth.DEFAULT_RADII)),
)
_SCENE_SPECS = st.builds(
    synth.SceneSpec, width=st.integers(32, 4096), height=st.integers(32, 4096),
    subjects=st.lists(_SUBJECT_SPECS, min_size=1, max_size=2).map(tuple),
    camera_motion=st.builds(Vec2, _FINITE, _FINITE), noise_sigma=st.floats(0.0, 1e6), seed=st.integers(0, 2 ** 64),
)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


@settings(max_examples=30)
@given(value=st.one_of(_HYPERPARAMS, _SOLVER_OPTIONS, _SCENE_SPECS))
def test_config_values_round_trip_through_json(config_dir, value):
    """A valid Hyperparams, SolverOptions or SceneSpec, written as the JSON its
    config file holds, reads back equal."""
    doc = dataclasses.asdict(value)
    path = config_dir / "config.json"
    if isinstance(value, synth.SceneSpec):
        doc["camera_motion"] = [value.camera_motion.dx, value.camera_motion.dy]
        path.write_text(json.dumps(doc))
        assert _read_scene_spec(path) == value
    else:
        path.write_text(json.dumps(doc))
        assert io.read_config(path, type(value)) == value

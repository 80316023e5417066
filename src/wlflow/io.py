"""File formats, flow rendering, and machine-readable reports.

Flow fields use the Middlebury .flo layout, masks use binary PGM (P5),
renders use binary PPM (P6), keypoints and boundaries use small JSON
schemas, and config files are JSON objects of a dataclass's field names
(`read_config`). Readers raise typed errors for anything their writers
cannot produce.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .core import FlowMap, Hyperparams, KeypointFrame, PointSet, SubjectMask, N_JOINTS, _finite_number, _readonly
from .errors import (
    BadMagic,
    FormatError,
    NonFiniteValue,
    SchemaError,
    TruncatedFile,
    ValidationError,
)

FLO_MAGIC = 202021.25


def write_flo(path, flow: FlowMap) -> None:
    """Middlebury .flo: float32 tag, int32 width/height, row-major (dx, dy)."""
    with np.errstate(over="ignore"):  # values beyond the float32 range become inf and are refused
        data = flow.vectors.astype(np.float32)
    if not np.isfinite(data).all():
        raise NonFiniteValue("flow contains values not representable in the file")
    with open(path, "wb") as f:
        f.write(struct.pack("<f", FLO_MAGIC))
        f.write(struct.pack("<ii", flow.width, flow.height))
        f.write(data.tobytes())


def read_flo(path) -> FlowMap:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12:
        raise TruncatedFile(f"{path}: header needs 12 bytes, file has {len(raw)}")
    magic = struct.unpack_from("<f", raw, 0)[0]
    if magic != FLO_MAGIC:
        raise BadMagic(f"{path}: sanity tag {magic!r} != {FLO_MAGIC}")
    width, height = struct.unpack_from("<ii", raw, 4)
    if width < 1 or height < 1 or width > 10 ** 6 or height > 10 ** 6:
        raise FormatError(f"{path}: implausible dimensions {width}x{height}")
    expected = 12 + 8 * width * height
    if len(raw) < expected:
        raise TruncatedFile(f"{path}: expected {expected} bytes, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<f4", count=2 * width * height, offset=12)
    if not np.isfinite(data).all():
        raise NonFiniteValue(f"{path}: payload contains NaN or infinity")
    return FlowMap(_readonly(data.reshape(height, width, 2).astype(np.float64)))


def write_keypoints(path, frames) -> None:
    """JSON schema: {"frames": [{"persons": [[[x, y, c] x17], ...]}, ...]}."""
    doc = {
        "frames": [
            {"persons": [person.tolist() for person in frame.persons]}
            for frame in frames
        ]
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)


def _load_json(path):
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def read_keypoints(path) -> list:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "frames" not in doc:
        raise SchemaError(f"{path}: $.frames missing")
    frames_raw = doc["frames"]
    if not isinstance(frames_raw, list):
        raise SchemaError(f"{path}: $.frames must be a list")
    frames = []
    for fi, frame in enumerate(frames_raw):
        if not isinstance(frame, dict) or "persons" not in frame:
            raise SchemaError(f"{path}: $.frames[{fi}].persons missing")
        persons_raw = frame["persons"]
        if not isinstance(persons_raw, list):
            raise SchemaError(f"{path}: $.frames[{fi}].persons must be a list")
        persons = []
        for pi, person in enumerate(persons_raw):
            loc = f"$.frames[{fi}].persons[{pi}]"
            if not isinstance(person, list) or len(person) != N_JOINTS:
                raise SchemaError(f"{path}: {loc} must list exactly {N_JOINTS} keypoints")
            for ki, kp in enumerate(person):
                if not isinstance(kp, list) or len(kp) != 3:
                    raise SchemaError(f"{path}: {loc}[{ki}] must be [x, y, c]")
                if not all(_finite_number(v) for v in kp):
                    raise SchemaError(f"{path}: {loc}[{ki}] has entries that are not finite numbers")
                if not 0.0 <= kp[2] <= 1.0:
                    raise SchemaError(f"{path}: {loc}[{ki}] confidence {kp[2]} outside [0, 1]")
            persons.append(_readonly(np.asarray(person, dtype=np.float64)))
        frames.append(KeypointFrame(tuple(persons)))  # the checks above are the ones it makes
    return frames


def write_mask(path, mask: SubjectMask) -> None:
    """8-bit binary PGM; pixel value is the subject label."""
    if len(mask.subject_ids) > 255:
        raise FormatError("PGM masks support at most 255 subject labels")
    write_grayscale(path, mask.labels)


def _read_pgm_header(raw: bytes, path) -> tuple:
    if raw[:2] == b"P2":
        raise FormatError(f"{path}: ASCII PGM (P2) not accepted, use binary P5")
    if raw[:2] != b"P5":
        raise FormatError(f"{path}: not a PGM file (magic {raw[:2]!r})")
    # header tokens: magic, width, height, maxval; comments start with '#'
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise TruncatedFile(f"{path}: header ended early")
        token = raw[start:pos]
        if not token.isdigit():
            raise FormatError(f"{path}: non-numeric header token {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    return fields[0], fields[1], fields[2], pos


def read_mask(path) -> SubjectMask:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 2:
        raise TruncatedFile(f"{path}: too short for a PGM header")
    width, height, maxval, pos = _read_pgm_header(raw, path)
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit PGM accepted (maxval {maxval})")
    need = width * height
    payload = raw[pos:pos + need]
    if len(payload) < need:
        raise TruncatedFile(f"{path}: expected {need} pixels, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    try:
        return SubjectMask(arr)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_grayscale(path, image: np.ndarray) -> None:
    """Binary 8-bit PGM (P5) of an (h, w) raster: synthetic frames and label masks."""
    arr = np.asarray(image, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        f.write(arr.tobytes())


def write_points(path, points: PointSet) -> None:
    """JSON schema: {"points": [[x, y], ...]}."""
    with open(path, "w") as f:
        json.dump({"points": points.points.tolist()}, f, sort_keys=True)


def read_points(path) -> PointSet:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "points" not in doc or not isinstance(doc["points"], list):
        raise SchemaError(f"{path}: $.points must be a list")
    pts = []
    for i, item in enumerate(doc["points"]):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"{path}: $.points[{i}] must be [x, y]")
        if not all(_finite_number(v) for v in item):
            raise SchemaError(f"{path}: $.points[{i}] has entries that are not finite numbers")
        pts.append(item)
    return PointSet(_readonly(np.asarray(pts, dtype=np.float64).reshape(-1, 2)))


# ---------------------------------------------------------------------------
# Flow rendering with the standard flow color wheel.
# ---------------------------------------------------------------------------


def _make_colorwheel() -> np.ndarray:
    """55-entry RY/YG/GC/CB/BM/MR color wheel used by flow visualizations."""
    ry, yg, gc, cb, bm, mr = 15, 6, 4, 11, 13, 6
    wheel = np.zeros((ry + yg + gc + cb + bm + mr, 3))
    col = 0
    wheel[0:ry, 0] = 255
    wheel[0:ry, 1] = np.floor(255 * np.arange(ry) / ry)
    col += ry
    wheel[col:col + yg, 0] = 255 - np.floor(255 * np.arange(yg) / yg)
    wheel[col:col + yg, 1] = 255
    col += yg
    wheel[col:col + gc, 1] = 255
    wheel[col:col + gc, 2] = np.floor(255 * np.arange(gc) / gc)
    col += gc
    wheel[col:col + cb, 1] = 255 - np.floor(255 * np.arange(cb) / cb)
    wheel[col:col + cb, 2] = 255
    col += cb
    wheel[col:col + bm, 2] = 255
    wheel[col:col + bm, 0] = np.floor(255 * np.arange(bm) / bm)
    col += bm
    wheel[col:col + mr, 2] = 255 - np.floor(255 * np.arange(mr) / mr)
    wheel[col:col + mr, 0] = 255
    return wheel


def flow_to_rgb(flow: FlowMap, max_norm: float | None = None) -> np.ndarray:
    """Color-code a flow field: hue from direction, saturation from magnitude.

    Zero flow renders white. max_norm defaults to the 99th percentile of the
    magnitudes (or 1 if the field is everywhere static); a max_norm <= 0
    also means 1. A non-finite max_norm, or one so small that the normalised
    flow overflows, raises ValidationError.
    """
    u = flow.vectors[..., 0]
    v = flow.vectors[..., 1]
    rad = np.hypot(u, v)
    if max_norm is None:
        max_norm = float(np.percentile(rad, 99.0))
    elif not np.isfinite(max_norm):
        raise ValidationError(f"max_norm must be a finite number, got {max_norm}")
    if max_norm <= 0:
        max_norm = 1.0
    with np.errstate(over="ignore"):
        un = u / max_norm
        vn = v / max_norm
        rad = np.hypot(un, vn)
    if not np.isfinite(rad).all():
        raise ValidationError(f"max_norm {max_norm} is too small: the normalised flow overflows")

    wheel = _make_colorwheel()
    ncols = wheel.shape[0]
    angle = np.arctan2(-vn, -un) / np.pi
    fk = (angle + 1.0) / 2.0 * (ncols - 1)
    k0 = np.floor(fk).astype(np.int64)
    k1 = (k0 + 1) % ncols
    frac = fk - k0
    img = np.zeros(u.shape + (3,), dtype=np.uint8)
    small = rad <= 1.0
    for ch in range(3):
        col0 = wheel[k0, ch] / 255.0
        col1 = wheel[k1, ch] / 255.0
        col = (1.0 - frac) * col0 + frac * col1
        col = np.where(small, 1.0 - rad * (1.0 - col), col * 0.75)
        img[..., ch] = np.floor(255.0 * col).astype(np.uint8)
    return img


def render_flow(flow: FlowMap, path, max_norm: float | None = None) -> None:
    """Write the color-coded flow as a binary PPM (P6)."""
    write_rgb(path, flow_to_rgb(flow, max_norm))


def write_rgb(path, img: np.ndarray) -> None:
    """Binary PPM (P6) for an (h, w, 3) uint8 image."""
    with open(path, "wb") as f:
        f.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _format_floats(obj):
    """Round-trip floats through 9 significant digits for stable text diffs."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _format_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_format_floats(v) for v in obj]
    return obj


@dataclass
class Report:
    """Reproducible record of one command invocation."""

    command: str
    inputs: dict
    hyperparams: dict
    metrics: dict
    trace: list
    wall_time_s: float

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "hyperparams": _format_floats(self.hyperparams),
            "metrics": _format_floats(self.metrics),
            "trace": _format_floats(self.trace),
            "wall_time_s": round(self.wall_time_s, 6),
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def config_object(doc, cls, loc: str = "$", **convert):
    """Build the dataclass `cls` from a JSON object of its field names.

    JSON lists become tuples; the value of a key named in `convert` goes
    through that function instead. `loc` is the object's JSON location,
    which every SchemaError message starts with. A non-object, an unknown
    key, or a value that a conversion or `cls` refuses (TypeError or
    ValueError, ValidationError included) raises SchemaError.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{loc} must be a JSON object")
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise SchemaError(f"{loc} has unknown keys {sorted(unknown)}")
    fields = {}
    for key, value in doc.items():
        to_field = convert.get(key, lambda v: tuple(v) if isinstance(v, list) else v)
        try:
            fields[key] = to_field(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{loc}.{key} invalid ({exc})") from exc
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{loc} invalid ({exc})") from exc


def read_config(path, cls, **convert):
    """Read a config file, a JSON object of `cls`'s field names, with
    `config_object`; a SchemaError names the file and the JSON location."""
    doc = _load_json(path)
    try:
        return config_object(doc, cls, **convert)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def hyperparams_from_json(path) -> Hyperparams:
    """Config JSON mirrors the Hyperparams field names."""
    return read_config(path, Hyperparams)

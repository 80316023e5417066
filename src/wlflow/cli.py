"""Command-line surface tying the library into reproducible pipelines.

Exit codes: 0 success, 1 validation error (bad arguments, shapes, domain
violations), 2 I/O error (missing or malformed files). Diagnostics go to
stderr; reports go to stdout as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import boundary as bnd
from . import flows, io, skeleton as skel, synth
from .core import FlowMap, Hyperparams, SubjectMask, Vec2, _finite_number
from .errors import FileFormatError, ValidationError, WlflowError

def _load_hp(path: str | None) -> Hyperparams:
    return io.hyperparams_from_json(path) if path else Hyperparams()


def _inputs_record(**paths) -> dict:
    out = {}
    for name, path in paths.items():
        if path is None:
            continue
        out[name] = {"path": str(path), "sha256": io.sha256_of(path)}
    return out


def _emit(report: io.Report) -> None:
    print(report.to_json())


def _cmd_synth(args) -> int:
    if args.spec:
        spec = _scene_spec_from_json(io._load_json(args.spec), args.spec)
    else:
        spec = synth.single_figure_scene()
    truth = synth.generate_scene(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.write_grayscale(out / "frame_t.pgm", truth.frames[0])
    io.write_grayscale(out / "frame_t1.pgm", truth.frames[1])
    io.write_mask(out / "mask_t.pgm", truth.mask_t)
    io.write_keypoints(out / "keypoints.json", truth.keypoints)
    io.write_flo(out / "gt_world.flo", truth.gt_world)
    io.write_flo(out / "gt_local.flo", truth.gt_local)
    io.write_points(out / "boundary.json", truth.boundary_t)
    print(json.dumps(io._format_floats({
        "out_dir": str(out),
        "subjects": {str(k): [v.dx, v.dy] for k, v in truth.gt_subject.items()},
        "mask_pixels": int((truth.mask_t.labels > 0).sum()),
    }), sort_keys=True))
    return 0


def _scene_spec_from_json(doc: dict, path: str) -> synth.SceneSpec:
    if not isinstance(doc, dict):
        raise io.SchemaError(f"{path}: expected a JSON object")

    def numbers(loc: str, value, n: int | None = None) -> tuple:
        """A list of finite numbers (exactly n of them, if n is given), as floats."""
        if not (isinstance(value, list) and n in (None, len(value))
                and all(_finite_number(v) for v in value)):
            size = f"{n} " if n else ""
            raise io.SchemaError(f"{path}: {loc} must be a list of {size}finite numbers")
        return tuple(float(v) for v in value)

    def known_keys(loc: str, obj: dict, spec_type) -> None:
        unknown = set(obj) - set(spec_type.__dataclass_fields__)
        if unknown:
            raise io.SchemaError(f"{path}: {loc} has unknown keys {sorted(unknown)}")

    def named_numbers(loc: str, value) -> dict:
        if not (isinstance(value, dict) and all(_finite_number(v) for v in value.values())):
            raise io.SchemaError(f"{path}: {loc} must map names to finite numbers")
        return {k: float(v) for k, v in value.items()}

    known_keys("$", doc, synth.SceneSpec)
    subjects_doc = doc.get("subjects", [])
    if not isinstance(subjects_doc, list):
        raise io.SchemaError(f"{path}: $.subjects must be a list")
    subjects = []
    for si, sub in enumerate(subjects_doc):
        loc = f"$.subjects[{si}]"
        if not isinstance(sub, dict):
            raise io.SchemaError(f"{path}: {loc} must be an object")
        known_keys(loc, sub, synth.SubjectSpec)
        sub_fields = {}
        for key, n in (("root_t", 2), ("root_t1", 2), ("capsule_radii", None)):
            if key in sub:
                sub_fields[key] = numbers(f"{loc}.{key}", sub[key], n)
        for key in ("lengths", "angles_t", "angles_t1"):
            if key in sub:
                sub_fields[key] = named_numbers(f"{loc}.{key}", sub[key])
        try:
            subjects.append(synth.SubjectSpec(**sub_fields))
        except ValidationError as exc:
            raise io.SchemaError(f"{path}: {loc} invalid ({exc})") from exc
    fields = {key: doc[key] for key in ("width", "height", "seed") if key in doc}
    for key, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise io.SchemaError(f"{path}: $.{key} must be an integer")
    if "noise_sigma" in doc:
        if not _finite_number(doc["noise_sigma"]):
            raise io.SchemaError(f"{path}: $.noise_sigma must be a finite number")
        fields["noise_sigma"] = float(doc["noise_sigma"])
    if "camera_motion" in doc:
        fields["camera_motion"] = Vec2(*numbers("$.camera_motion", doc["camera_motion"], 2))
    if subjects:
        fields["subjects"] = tuple(subjects)
    try:
        return synth.SceneSpec(**fields)
    except ValidationError as exc:
        raise io.SchemaError(f"{path}: {exc}") from exc


def _read_frame_pair(path):
    frames = io.read_keypoints(path)
    if len(frames) < 2:
        raise ValidationError("keypoints file must contain two frames (t and t+1)")
    return frames[0], frames[1]


def _build_priors(args, mask: SubjectMask, align_method: str | None):
    frame_t, frame_t1 = _read_frame_pair(args.keypoints)
    boundary = io.read_points(args.boundary)
    return flows.Priors.build(frame_t, frame_t1, mask, boundary, align_method=align_method)


def _cmd_eval(args) -> int:
    start = time.perf_counter()
    hp = _load_hp(args.config)
    flow = io.read_flo(args.flow)
    mask = io.read_mask(args.mask)
    priors = _build_priors(args, mask, args.align if args.local else None)
    breakdown = flows.joint_objective(flow, priors, hp)
    metrics = {
        "total": breakdown.total,
        "f": breakdown.f,
        "g": breakdown.g,
        "alpha": breakdown.alpha,
        "constraint_kind": "local" if args.local else "world",
        "angular_violation_fraction": breakdown.f_report.angular_violation_fraction,
        "intensity_mean_penalty": breakdown.f_report.intensity_mean_penalty,
        "matched_pixels": breakdown.f_report.matched_pixels,
        "f_matched_normalized": breakdown.f_report.f_matched_normalized,
        "boundary_edges_empty": breakdown.g_result.edges_empty,
        "boundary_cooccupied_fraction": list(breakdown.g_result.cooccupied_fraction),
    }
    _emit(io.Report(
        command="eval",
        inputs=_inputs_record(flow=args.flow, keypoints=args.keypoints,
                              mask=args.mask, boundary=args.boundary),
        hyperparams=vars(hp) | {"scales": list(hp.scales)},
        metrics=metrics,
        trace=[],
        wall_time_s=time.perf_counter() - start,
    ))
    return 0


def _cmd_edges(args) -> int:
    flow = io.read_flo(args.flow)
    hp = Hyperparams()
    theta_i = args.theta_i
    if args.auto:
        theta_i = bnd.auto_intensity_threshold(flow)
    if theta_i is not None or args.theta_a is not None:
        hp = Hyperparams(
            edge_theta_i=theta_i if theta_i is not None else hp.edge_theta_i,
            edge_theta_a=args.theta_a if args.theta_a is not None else hp.edge_theta_a,
        )
    edges = bnd.extract_flow_edges(flow, hp)
    doc = {
        "theta_i": float(hp.edge_theta_i),
        "theta_a": float(hp.edge_theta_a),
        "intensity": edges.intensity_edges.points.tolist(),
        "angular": edges.angular_edges.points.tolist(),
        "union": edges.union.points.tolist(),
    }
    print(json.dumps(io._format_floats(doc), sort_keys=True))
    if args.overlay:
        img = io.flow_to_rgb(flow)
        pts = edges.union.points.astype(int)
        img[pts[:, 1], pts[:, 0]] = (0, 0, 0)
        io.write_rgb(args.overlay, img)
    return 0


def _cmd_chamfer(args) -> int:
    s = io.read_points(args.s)
    e = io.read_points(args.e)
    doc: dict = {}
    if args.patch:
        try:
            scales = tuple(int(x) for x in args.scales.split(","))
        except ValueError as exc:
            raise ValidationError(
                f"--scales must be comma-separated integers, got {args.scales!r}"
            ) from exc
        all_pts = np.vstack([s.points, e.points])

        def fitted(axis: int) -> int:
            return int(np.ceil(all_pts[:, axis].max() + 1)) if len(all_pts) else 1

        # A side that is given, 0 included, goes to build_patch_grid's checks as it is.
        width = fitted(0) if args.width is None else args.width
        height = fitted(1) if args.height is None else args.height
        res = bnd.multiscale_patch_distance(s, e, scales, width, height)
        doc["patch_centroid"] = res.value
        doc["per_scale"] = {
            str(scale): {"value": r.value, "cooccupied": r.cooccupied_cells, "cells": r.total_cells}
            for scale, r in zip(scales, res.per_scale)
        }
    else:
        doc["exact"] = bnd.exact_chamfer(s, e)
    print(json.dumps(io._format_floats(doc), sort_keys=True))
    return 0


def _cmd_solve(args) -> int:
    start = time.perf_counter()
    hp = _load_hp(args.config)
    mask = io.read_mask(args.mask)
    priors = _build_priors(args, mask, None)
    if args.init == "zero":
        init = FlowMap.zeros(mask.width, mask.height)
    else:
        init = io.read_flo(args.init)
    opts = flows.SolverOptions()
    if args.opts:
        doc = io._load_json(args.opts)
        if not isinstance(doc, dict):
            raise io.SchemaError(f"{args.opts}: expected a JSON object")
        allowed = set(flows.SolverOptions.__dataclass_fields__)
        unknown = set(doc) - allowed
        if unknown:
            raise io.SchemaError(f"{args.opts}: unknown solver options {sorted(unknown)}")
        try:
            opts = flows.SolverOptions(**doc)
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise io.SchemaError(f"{args.opts}: {exc}") from exc
    result = flows.solve_world_flow(init, priors, hp, opts)
    io.write_flo(args.out, result.flow)
    trace = [
        {"iteration": t.iteration, "tau": t.tau, "step": t.step, "surrogate": t.surrogate}
        for t in result.trace
    ]
    _emit(io.Report(
        command="solve",
        inputs=_inputs_record(keypoints=args.keypoints, mask=args.mask,
                              boundary=args.boundary,
                              init=None if args.init == "zero" else args.init),
        hyperparams=vars(hp) | {"scales": list(hp.scales)},
        metrics={
            "converged": result.converged,
            "stops": list(result.stops),
            "iterations": len(result.trace),
            "final_total": result.objective.total,
            "out": str(args.out),
        },
        trace=trace,
        wall_time_s=time.perf_counter() - start,
    ))
    return 0


def _cmd_decompose(args) -> int:
    start = time.perf_counter()
    world = io.read_flo(args.world)
    mask = io.read_mask(args.mask)
    pairs = None
    if args.method != "mask-mean":
        pairs = skel.subject_skeletons(*_read_frame_pair(args.keypoints), mask)
    motions = flows.estimate_subject_motion(world, mask, args.method, pairs)
    deco = flows.decompose_local(world, motions, mask)
    # Hashing reads the keypoints file, which mask-mean does not parse: fail before the write.
    inputs = _inputs_record(world=args.world, mask=args.mask, keypoints=args.keypoints)
    io.write_flo(args.out_local, deco.local)
    v_s = {
        str(label): {"kind": "vector", "value": [m.dx, m.dy]} if isinstance(m, Vec2)
        else {"kind": m.kind, "matrix": m.matrix.tolist()}
        for label, m in motions.items()
    }
    _emit(io.Report(
        command="decompose",
        inputs=inputs,
        hyperparams={},
        metrics={"method": args.method, "v_s": v_s, "out_local": str(args.out_local)},
        trace=[],
        wall_time_s=time.perf_counter() - start,
    ))
    return 0


def _cmd_render(args) -> int:
    flow = io.read_flo(args.flow)
    io.render_flow(flow, args.out, args.max_norm)
    return 0


def _cmd_metrics(args) -> int:
    start = time.perf_counter()
    pred = io.read_flo(args.pred)
    gt = io.read_flo(args.gt)
    mask = io.read_mask(args.mask) if args.mask else None
    mean_epe, max_epe = flows.endpoint_error(pred, gt, mask)
    _emit(io.Report(
        command="metrics",
        inputs=_inputs_record(pred=args.pred, gt=args.gt, mask=args.mask),
        hyperparams={},
        metrics={"mean_epe": mean_epe, "max_epe": max_epe,
                 "masked": mask is not None},
        trace=[],
        wall_time_s=time.perf_counter() - start,
    ))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wlflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic articulated scene")
    p.add_argument("--spec", help="scene spec JSON (defaults to the reference scene)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="evaluate the joint objective on a flow")
    p.add_argument("--flow", required=True)
    p.add_argument("--keypoints", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--boundary", required=True)
    p.add_argument("--local", action="store_true",
                   help="evaluate the subject-relative constraint instead")
    p.add_argument("--align", choices=sorted(skel.ALIGN_METHODS), default="homography")
    p.add_argument("--config", help="hyperparameter JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("edges", help="extract flow edges")
    p.add_argument("--flow", required=True)
    p.add_argument("--theta-i", type=float, dest="theta_i")
    p.add_argument("--theta-a", type=float, dest="theta_a")
    p.add_argument("--auto", action="store_true",
                   help="set theta-i to the 90th percentile of neighbor differences")
    p.add_argument("--overlay", help="optional PPM overlay output")
    p.set_defaults(func=_cmd_edges)

    p = sub.add_parser("chamfer", help="distance between two point-set curves")
    p.add_argument("--s", required=True)
    p.add_argument("--e", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=False,
                      help="exact nearest-neighbor distance (default)")
    mode.add_argument("--patch", action="store_true",
                      help="multiscale patch-centroid approximation")
    p.add_argument("--scales", default="8,16,32")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.set_defaults(func=_cmd_chamfer)

    p = sub.add_parser("solve", help="variational world-flow solve")
    p.add_argument("--init", default="zero", help='"zero" or a .flo path')
    p.add_argument("--keypoints", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--boundary", required=True)
    p.add_argument("--opts", help="solver options JSON")
    p.add_argument("--config", help="hyperparameter JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decompose", help="split world flow into subject + local")
    p.add_argument("--world", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--keypoints", required=True)
    p.add_argument("--method", choices=flows.MOTION_METHODS, default="mask-mean")
    p.add_argument("--out-local", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("render", help="color-wheel render of a flow field")
    p.add_argument("--flow", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-norm", type=float, dest="max_norm")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("metrics", help="endpoint error between two flows")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mask")
    p.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WlflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import json
import os
import subprocess
import sys
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wlflow
from wlflow import boundary as bnd
from wlflow import cli, flows, io, synth
from wlflow.cli import main
from wlflow.core import TAU_RANGE, FlowMap, Hyperparams, PointSet, SubjectMask, Vec2


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert main(["synth", "--out-dir", str(out)]) == 0
    return out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_all_artifacts(scene_dir):
    for name in ("frame_t.pgm", "frame_t1.pgm", "mask_t.pgm", "keypoints.json",
                 "gt_world.flo", "gt_local.flo", "boundary.json"):
        assert (scene_dir / name).exists(), name


def test_metrics_identical_flows(scene_dir, capsys):
    code, out, _ = _run(capsys, [
        "metrics", "--pred", str(scene_dir / "gt_world.flo"),
        "--gt", str(scene_dir / "gt_world.flo"),
        "--mask", str(scene_dir / "mask_t.pgm"),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["mean_epe"] == 0.0
    assert doc["metrics"]["max_epe"] == 0.0


def test_eval_reports_objective(scene_dir, capsys):
    code, out, _ = _run(capsys, [
        "eval", "--flow", str(scene_dir / "gt_world.flo"),
        "--keypoints", str(scene_dir / "keypoints.json"),
        "--mask", str(scene_dir / "mask_t.pgm"),
        "--boundary", str(scene_dir / "boundary.json"),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["f"] <= 0.02
    assert doc["metrics"]["g"] <= 1.5
    assert doc["metrics"]["total"] == pytest.approx(
        doc["metrics"]["f"] + 0.1 * doc["metrics"]["g"], rel=1e-6
    )


def test_eval_local_mode(scene_dir, capsys):
    code, out, _ = _run(capsys, [
        "eval", "--flow", str(scene_dir / "gt_local.flo"),
        "--keypoints", str(scene_dir / "keypoints.json"),
        "--mask", str(scene_dir / "mask_t.pgm"),
        "--boundary", str(scene_dir / "boundary.json"),
        "--local", "--align", "translation",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["constraint_kind"] == "local"


def test_decompose_recombines_bitwise(scene_dir, tmp_path, capsys):
    local_path = tmp_path / "local.flo"
    code, out, _ = _run(capsys, [
        "decompose", "--world", str(scene_dir / "gt_world.flo"),
        "--mask", str(scene_dir / "mask_t.pgm"),
        "--keypoints", str(scene_dir / "keypoints.json"),
        "--method", "mask-mean",
        "--out-local", str(local_path),
    ])
    assert code == 0
    doc = json.loads(out)
    world = io.read_flo(scene_dir / "gt_world.flo")
    local = io.read_flo(local_path)
    mask = io.read_mask(scene_dir / "mask_t.pgm")
    v = doc["metrics"]["v_s"]["1"]["value"]
    rebuilt = local.vectors.copy()
    rebuilt[mask.labels == 1] += np.float32(v[0]), np.float32(v[1])
    # spot-check reconstruction: world == local + v_s on subject pixels
    sel = mask.labels == 1
    assert np.allclose(rebuilt[sel], world.vectors[sel], atol=1e-6)


def test_edges_command(scene_dir, tmp_path, capsys):
    overlay = tmp_path / "edges.ppm"
    code, out, _ = _run(capsys, [
        "edges", "--flow", str(scene_dir / "gt_world.flo"),
        "--overlay", str(overlay),
    ])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["union"]) > 0
    assert overlay.exists()
    code, out, _ = _run(capsys, [
        "edges", "--flow", str(scene_dir / "gt_world.flo"), "--auto",
    ])
    assert code == 0
    assert json.loads(out)["theta_i"] > 0


@pytest.mark.parametrize("flags", [["--auto", "--theta-i", "3"], ["--theta-i", "3", "--auto"]])
def test_edges_auto_and_theta_i_are_exclusive(scene_dir, capsys, flags):
    """`--auto` sets theta-i, so a theta-i given with it is refused, not ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["edges", "--flow", str(scene_dir / "gt_world.flo"), *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_chamfer_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"points": [[0.0, 0.0]]}))
    b.write_text(json.dumps({"points": [[3.0, 4.0]]}))
    code, out, _ = _run(capsys, ["chamfer", "--s", str(a), "--e", str(b), "--exact"])
    assert code == 0
    assert json.loads(out)["exact"] == 5.0
    code, out, _ = _run(capsys, [
        "chamfer", "--s", str(a), "--e", str(b), "--patch", "--scales", "8,16",
        "--width", "32", "--height", "32",
    ])
    assert code == 0
    assert "patch_centroid" in json.loads(out)
    # A scale is judged as a config's "scales" entry is: an integral float is that integer.
    code, integral, _ = _run(capsys, [
        "chamfer", "--s", str(a), "--e", str(b), "--patch", "--scales", "8.0,16",
        "--width", "32", "--height", "32",
    ])
    assert code == 0 and integral == out


def test_render_command(scene_dir, tmp_path, capsys):
    out_path = tmp_path / "flow.ppm"
    code, _, _ = _run(capsys, [
        "render", "--flow", str(scene_dir / "gt_world.flo"), "--out", str(out_path),
    ])
    assert code == 0
    assert out_path.read_bytes().startswith(b"P6\n128 128\n255\n")


def test_solve_pipeline_reduces_epe(scene_dir, tmp_path, capsys):
    opts = tmp_path / "opts.json"
    opts.write_text(json.dumps({"max_iters": 150}))
    solved = tmp_path / "solved.flo"
    code, out, _ = _run(capsys, [
        "solve", "--init", "zero",
        "--keypoints", str(scene_dir / "keypoints.json"),
        "--mask", str(scene_dir / "mask_t.pgm"),
        "--boundary", str(scene_dir / "boundary.json"),
        "--opts", str(opts),
        "--out", str(solved),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["iterations"] >= 1
    assert len(doc["trace"]) == doc["metrics"]["iterations"]
    assert all(set(t) == {"iteration", "tau", "step", "surrogate"} for t in doc["trace"])

    code, out, _ = _run(capsys, [
        "metrics", "--pred", str(solved), "--gt", str(scene_dir / "gt_world.flo"),
        "--mask", str(scene_dir / "mask_t.pgm"),
    ])
    assert code == 0
    solved_epe = json.loads(out)["metrics"]["mean_epe"]

    zero = tmp_path / "zero.flo"
    io.write_flo(zero, FlowMap.zeros(128, 128))
    code, out, _ = _run(capsys, [
        "metrics", "--pred", str(zero), "--gt", str(scene_dir / "gt_world.flo"),
        "--mask", str(scene_dir / "mask_t.pgm"),
    ])
    baseline_epe = json.loads(out)["metrics"]["mean_epe"]
    assert solved_epe <= 0.5 * baseline_epe


def test_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["render", "--flow", "/nonexistent.flo", "--out", "/tmp/x.ppm"])
    assert code == 2
    assert "error:" in err


def test_malformed_flo_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.flo"
    bad.write_bytes(b"\x00" * 20)
    code, _, err = _run(capsys, ["render", "--flow", str(bad), "--out", str(tmp_path / "o.ppm")])
    assert code == 2
    assert "error:" in err


def test_dimension_mismatch_exits_1(scene_dir, tmp_path, capsys):
    small = tmp_path / "small.flo"
    io.write_flo(small, FlowMap.zeros(8, 8))
    code, _, err = _run(capsys, [
        "metrics", "--pred", str(small), "--gt", str(scene_dir / "gt_world.flo"),
    ])
    assert code == 1
    assert "error:" in err


def test_synth_with_custom_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "width": 96, "height": 96,
        "subjects": [{"root_t": [44.0, 52.0], "root_t1": [47.0, 52.0]}],
    }))
    out_dir = tmp_path / "scene"
    code, out, _ = _run(capsys, ["synth", "--spec", str(spec), "--out-dir", str(out_dir)])
    assert code == 0
    doc = json.loads(out)
    assert doc["subjects"]["1"] == [3.0, 0.0]
    flow = io.read_flo(out_dir / "gt_world.flo")
    assert flow.width == 96


def test_synth_spec_with_every_field_matches_in_process(tmp_path, capsys):
    """A spec naming every field, with integer and float numbers, gives the scene built in-process."""
    doc = {
        "width": 96, "height": 80, "seed": 3, "noise_sigma": 0.5, "camera_motion": [1, -0.5],
        "subjects": [{
            "root_t": [44, 44.5], "root_t1": [46.0, 45.0],
            "lengths": {"torso": 18, "thigh": 12.5},
            "angles_t": {"neck": -1.4}, "angles_t1": {"forearm_l": 1.9},
            "capsule_radii": list(synth.DEFAULT_RADII),
        }],
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, _, _ = _run(capsys, ["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "scene")])
    assert code == 0
    sub = doc["subjects"][0]
    truth = synth.generate_scene(synth.SceneSpec(
        width=96, height=80, seed=3, noise_sigma=0.5, camera_motion=Vec2(1.0, -0.5),
        subjects=(synth.SubjectSpec(
            root_t=(44.0, 44.5), root_t1=(46.0, 45.0), lengths=sub["lengths"],
            angles_t=sub["angles_t"], angles_t1=sub["angles_t1"],
        ),),
    ))
    assert np.array_equal(io.read_flo(tmp_path / "scene" / "gt_world.flo").vectors,
                          truth.gt_world.vectors.astype(np.float32))
    assert np.array_equal(io.read_mask(tmp_path / "scene" / "mask_t.pgm").labels, truth.mask_t.labels)
    persons = io.read_keypoints(tmp_path / "scene" / "keypoints.json")[1].persons[0]
    assert np.array_equal(persons, truth.keypoints[1].persons[0])


def test_report_metrics_reproducible(scene_dir, capsys):
    argv = [
        "eval", "--flow", str(scene_dir / "gt_world.flo"),
        "--keypoints", str(scene_dir / "keypoints.json"),
        "--mask", str(scene_dir / "mask_t.pgm"),
        "--boundary", str(scene_dir / "boundary.json"),
    ]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    m1 = json.loads(out1)
    m2 = json.loads(out2)
    assert m1["metrics"] == m2["metrics"]
    assert m1["inputs"] == m2["inputs"]


def test_decompose_without_persons(scene_dir, tmp_path, capsys):
    """Alignment methods reject a keypoints file with no persons; mask-mean parses it but needs none."""
    empty = tmp_path / "empty_keypoints.json"
    empty.write_text(json.dumps({"frames": [{"persons": []}, {"persons": []}]}))
    argv = [
        "decompose", "--world", str(scene_dir / "gt_world.flo"),
        "--mask", str(scene_dir / "mask_t.pgm"),
        "--keypoints", str(empty),
        "--out-local", str(tmp_path / "local.flo"),
    ]
    code, _, err = _run(capsys, argv + ["--method", "homography"])
    assert code == 1
    assert err == "error: no person assigned to subject 1\n"
    code, out, err = _run(capsys, argv + ["--method", "mask-mean"])
    assert code == 0
    assert err == ""
    assert json.loads(out)["metrics"]["method"] == "mask-mean"


def _solve_argv(scene_dir, tmp_path, opts_doc):
    opts = tmp_path / "opts.json"
    opts.write_text(json.dumps(opts_doc))
    return [
        "solve", "--keypoints", str(scene_dir / "keypoints.json"),
        "--mask", str(scene_dir / "mask_t.pgm"),
        "--boundary", str(scene_dir / "boundary.json"),
        "--opts", str(opts), "--out", str(tmp_path / "solved.flo"),
    ]


def _chamfer_argv(scene_dir, tmp_path, scales):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[1.0, 1.0], [4.0, 2.0]]}))
    return ["chamfer", "--s", str(pts), "--e", str(pts), "--patch", "--scales", scales]


def _points_argv(scene_dir, tmp_path, x):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[x, 1.0]]}))
    return ["chamfer", "--s", str(pts), "--e", str(scene_dir / "boundary.json")]


def _points_text_argv(scene_dir, tmp_path, points_text):
    """Exact chamfer of the scene's boundary against a points file reading `points_text`."""
    pts = tmp_path / "pts.json"
    pts.write_text(points_text)
    return ["chamfer", "--s", str(scene_dir / "boundary.json"), "--e", str(pts)]


def _keypoints_argv(scene_dir, tmp_path, x):
    doc = json.loads((scene_dir / "keypoints.json").read_text())
    doc["frames"][1]["persons"][0][3][0] = x
    keypoints = tmp_path / "keypoints.json"
    keypoints.write_text(json.dumps(doc))
    return [
        "decompose", "--world", str(scene_dir / "gt_world.flo"),
        "--mask", str(scene_dir / "mask_t.pgm"), "--keypoints", str(keypoints),
        "--method", "homography", "--out-local", str(tmp_path / "local.flo"),
    ]


def _mask_mean_keypoints_argv(scene_dir, tmp_path, keypoints_text):
    """decompose --method mask-mean on the scene, reading `keypoints_text` as its keypoints file."""
    keypoints = tmp_path / "keypoints.json"
    keypoints.write_text(keypoints_text)
    return [
        "decompose", "--world", str(scene_dir / "gt_world.flo"),
        "--mask", str(scene_dir / "mask_t.pgm"), "--keypoints", str(keypoints),
        "--method", "mask-mean", "--out-local", str(tmp_path / "local.flo"),
    ]


def _keypoints_command(scene_dir, out_dir, command, keypoints_doc):
    """`command` (decompose or eval, with its flags) on the scene, reading `keypoints_doc`."""
    keypoints = out_dir / "keypoints.json"
    keypoints.write_text(json.dumps(keypoints_doc))
    inputs = {
        "decompose": ["--world", str(scene_dir / "gt_world.flo"), "--out-local", str(out_dir / "local.flo")],
        "eval": ["--flow", str(scene_dir / "gt_world.flo"), "--boundary", str(scene_dir / "boundary.json")],
    }[command[0]]
    return [*command, "--mask", str(scene_dir / "mask_t.pgm"), "--keypoints", str(keypoints), *inputs]


def _far_keypoints_argv(scene_dir, tmp_path, command):
    """`command` on a keypoints file whose frame t+1 is scaled by 1e300: huge but finite."""
    doc = json.loads((scene_dir / "keypoints.json").read_text())
    for person in doc["frames"][1]["persons"]:
        for joint in person:
            joint[0] *= 1e300
            joint[1] *= 1e300
    return _keypoints_command(scene_dir, tmp_path, command, doc)


def _config_argv(scene_dir, tmp_path, config_doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_doc))
    return [
        "eval", "--flow", str(scene_dir / "gt_world.flo"),
        "--keypoints", str(scene_dir / "keypoints.json"),
        "--mask", str(scene_dir / "mask_t.pgm"),
        "--boundary", str(scene_dir / "boundary.json"), "--config", str(config),
    ]


def _synth_argv(scene_dir, tmp_path, spec_text):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    return ["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "scene")]


def _render_argv(scene_dir, tmp_path, max_norm):
    return ["render", "--flow", str(scene_dir / "gt_world.flo"), "--out", str(tmp_path / "flow.ppm"),
            f"--max-norm={max_norm}"]


def _edges_argv(scene_dir, tmp_path, flags):
    return ["edges", "--flow", str(scene_dir / "gt_world.flo"), *flags]


def _patch_raster_argv(scene_dir, tmp_path, size):
    return _chamfer_argv(scene_dir, tmp_path, "8") + ["--width", size, "--height", size]


def _patch_side_argv(scene_dir, tmp_path, flags):
    return _chamfer_argv(scene_dir, tmp_path, "8") + flags


def _empty_mask_argv(scene_dir, tmp_path, command):
    """`command` on the scene with an all-zero mask of the scene's size."""
    labels = io.read_mask(scene_dir / "mask_t.pgm").labels
    mask = tmp_path / "empty_mask.pgm"
    io.write_mask(mask, SubjectMask(np.zeros_like(labels)))
    if command[0] == "solve":
        argv = _solve_argv(scene_dir, tmp_path, {"max_iters": 6})
    else:
        doc = json.loads((scene_dir / "keypoints.json").read_text())
        argv = _keypoints_command(scene_dir, tmp_path, command, doc)
    return [str(mask) if arg == str(scene_dir / "mask_t.pgm") else arg for arg in argv]


_HUGE = 10 ** 400  # a valid JSON integer beyond the float range
_TAU_RANGE_MESSAGE = "$ invalid (each tau_schedule entry must lie in [1e-100, 1e+50])"


# A config file (--opts, --config, --spec) that its type refuses exits 2; the
# first cases keep the ids that pytest gave them before they had explicit ones.
@pytest.mark.parametrize("build, arg, code, message", [
    (_chamfer_argv, "8,,16", 1, "--scales must be comma-separated integers"),
    (_chamfer_argv, "8,x", 1, "--scales must be comma-separated integers"),
    pytest.param(_chamfer_argv, "8,16,8", 1, "patch scales must not repeat an entry, got [8, 16, 8]",
                 id="repeated-scale"),
    pytest.param(_solve_argv, {"tau_schedule": 5}, 2, "opts.json: $ invalid (tau_schedule must be a list of numbers)",
                 id="_solve_argv-arg2-2-opts.json"),
    pytest.param(_solve_argv, {"tau_schedule": ["fast"]}, 2,
                 "opts.json: $ invalid (each tau_schedule entry must be a finite number)",
                 id="_solve_argv-arg3-2-opts.json"),
    pytest.param(_solve_argv, {"max_iters": "many"}, 2, "opts.json: $ invalid (max_iters must be an integer)",
                 id="_solve_argv-arg4-2-opts.json"),
    pytest.param(_solve_argv, {"seed": 0}, 2, "opts.json: $ has unknown keys ['seed']",
                 id="_solve_argv-arg5-2-unknown solver options ['seed']"),
    pytest.param(_solve_argv, {"max_iters": 0}, 2, "$ invalid (max_iters must be >= 1)",
                 id="_solve_argv-arg6-1-max_iters must be >= 1"),
    pytest.param(_solve_argv, {"max_iters": 2.5}, 2, "$ invalid (max_iters must be an integer)",
                 id="_solve_argv-arg7-1-max_iters must be an integer"),
    pytest.param(_solve_argv, {"max_iters": True}, 2, "$ invalid (max_iters must be an integer)",
                 id="_solve_argv-arg8-1-max_iters must be an integer"),
    pytest.param(_points_argv, _HUGE, 2, "$.points[0] has entries that are not finite numbers",
                 id="huge-point"),
    pytest.param(_keypoints_argv, _HUGE, 2,
                 "$.frames[1].persons[0][3] has entries that are not finite numbers", id="huge-keypoint"),
    pytest.param(_config_argv, {"alpha": _HUGE}, 2, "config.json: $ invalid (alpha must be a finite number)",
                 id="huge-alpha"),
    pytest.param(_config_argv, {"scales": [8, _HUGE]}, 2,
                 "$ invalid (each scales entry must be a finite number)", id="huge-scale"),
    pytest.param(_config_argv, {"scales": [2.5]}, 2, "$ invalid (each scales entry must be an integer, got 2.5)",
                 id="fractional-scale"),
    pytest.param(_config_argv, {"scales": [8, 1e300]}, 2,
                 "config.json: $ invalid (each scales entry must lie in [2, 16777216])", id="scale-1e300"),
    pytest.param(_config_argv, {"scales": [2**63]}, 2,
                 "config.json: $ invalid (each scales entry must lie in [2, 16777216])", id="scale-2-63"),
    pytest.param(_config_argv, {"scales": [2**24 + 1]}, 2,
                 "config.json: $ invalid (each scales entry must lie in [2, 16777216])", id="scale-2-24-plus-1"),
    pytest.param(_config_argv, {"scales": 5}, 2,
                 "config.json: $ invalid (scales must be a nonempty list of integers)", id="int-scales"),
    pytest.param(_synth_argv, '{"width": 1e400}', 2, "spec.json: $ invalid (width must be an integer)",
                 id="synth-inf-width"),
    pytest.param(_synth_argv, '{"subjects": [{"root_t": "ab"}]}', 2,
                 "$.subjects[0] invalid (root_t must hold 2 finite numbers)", id="synth-root"),
    pytest.param(_synth_argv, '{"camera_motion": [1]}', 2,
                 "spec.json: $.camera_motion invalid (camera_motion must hold 2 finite numbers)", id="synth-camera"),
    pytest.param(_synth_argv, '{"camera_motion": 5}', 2,
                 "spec.json: $.camera_motion invalid (camera_motion must hold 2 finite numbers)",
                 id="synth-camera-int"),
    pytest.param(_synth_argv, '{"noise_sigma": "x"}', 2, "$ invalid (noise_sigma must be a finite number)",
                 id="synth-noise"),
    pytest.param(_synth_argv, '{"subjects": [{"angles_t": {"neck": "a"}}]}', 2,
                 "$.subjects[0] invalid (angles_t must map names to finite numbers)", id="synth-angle"),
    pytest.param(_synth_argv, '{"seed": -1, "noise_sigma": 0.5}', 2, "$ invalid (seed must be >= 0)",
                 id="synth-seed"),
    pytest.param(_synth_argv, '{"widht": 64, "subjects": [{"root_t": [60, 60]}]}', 2,
                 "$ has unknown keys ['widht']", id="synth-unknown-key"),
    pytest.param(_synth_argv, '{"width": 128, "subjects": [{"root_t": [60, 60], "rooot": 3}]}', 2,
                 "$.subjects[0] has unknown keys ['rooot']", id="synth-unknown-subject-key"),
    pytest.param(_synth_argv, f'{{"width": {_HUGE}}}', 2, "at most 16777216 pixels", id="synth-huge-width"),
    pytest.param(_synth_argv, '{"width": 100000000000}', 2, "at most 16777216 pixels", id="synth-wide"),
    pytest.param(_solve_argv, {"tolerance": True}, 2, "$ invalid (tolerance must be a finite number)",
                 id="bool-tolerance"),
    pytest.param(_solve_argv, {"tolerance": float("nan")}, 2, "$ invalid (tolerance must be a finite number)",
                 id="nan-tolerance"),
    pytest.param(_solve_argv, {"step_size": 1.0}, 2, "$ has unknown keys ['step_size']", id="step-size"),
    pytest.param(_far_keypoints_argv, ["decompose", "--method", "homography"], 1, "the fit overflows",
                 id="far-keypoints-homography"),
    pytest.param(_far_keypoints_argv, ["decompose", "--method", "head"], 1, "the fit overflows",
                 id="far-keypoints-head"),
    pytest.param(_far_keypoints_argv, ["decompose", "--method", "translation"], 2,
                 "flow contains values not representable in the file", id="far-keypoints-translation"),
    pytest.param(_mask_mean_keypoints_argv, "not json", 2, "not valid JSON", id="mask-mean-keypoints-not-json"),
    pytest.param(_mask_mean_keypoints_argv, '{"frames": [{"persons": []}]}', 1,
                 "keypoints file must contain two frames", id="mask-mean-keypoints-one-frame"),
    pytest.param(_far_keypoints_argv, ["eval", "--local"], 1, "the fit overflows", id="far-keypoints-eval-local"),
    pytest.param(_far_keypoints_argv, ["eval", "--local", "--align", "translation"], 1,
                 "skeleton offsets must be finite and below 1e+150 px", id="far-keypoints-eval-local-translation"),
    pytest.param(_far_keypoints_argv, ["eval"], 1, "skeleton offsets must be finite and below 1e+150 px",
                 id="far-keypoints-eval"),
    pytest.param(_solve_argv, {"smoothness_weight": -0.1}, 2,
                 "$ invalid (smoothness_weight must be >= 0)", id="negative-weight"),
    pytest.param(_solve_argv, {"background_weight": 0.05}, 2, "$ has unknown keys ['background_weight']",
                 id="background-weight"),
    pytest.param(_solve_argv, {"tau_schedule": [0.5, True]}, 2,
                 "$ invalid (each tau_schedule entry must be a finite number)", id="bool-tau"),
    pytest.param(_solve_argv, {"tau_schedule": [0.5, None]}, 2,
                 "$ invalid (each tau_schedule entry must be a finite number)", id="null-tau"),
    pytest.param(_solve_argv, {"tau_schedule": ["0.5"]}, 2,
                 "$ invalid (each tau_schedule entry must be a finite number)", id="string-tau"),
    pytest.param(_render_argv, "nan", 1, "max_norm must be a finite number", id="nan-max-norm"),
    pytest.param(_render_argv, "-inf", 1, "max_norm must be a finite number", id="inf-max-norm"),
    pytest.param(_render_argv, "5e-324", 1, "the normalised flow overflows", id="subnormal-max-norm"),
    pytest.param(_edges_argv, ["--theta-i", "inf"], 1, "edge_theta_i must be a finite number",
                 id="inf-theta-i"),
    pytest.param(_edges_argv, ["--theta-a", "inf"], 1, "edge_theta_a must be a finite number",
                 id="inf-theta-a"),
    pytest.param(_patch_raster_argv, "99999999999", 1, "at most 16777216 pixels", id="patch-huge-raster"),
    pytest.param(_patch_side_argv, ["--width", "0"], 1, "width must be >= 1",
                 id="patch-zero-width"),
    pytest.param(_patch_side_argv, ["--height", "0"], 1, "height must be >= 1",
                 id="patch-zero-height"),
    pytest.param(_patch_raster_argv, "0", 1, "width must be >= 1", id="patch-zero-raster"),
    pytest.param(_chamfer_argv, "8.5", 1, "each patch scales entry must be an integer, got 8.5",
                 id="patch-fractional-scale"),
    pytest.param(_chamfer_argv, str(_HUGE), 1, "each patch scales entry must be a finite number",
                 id="patch-huge-scale"),
    pytest.param(_chamfer_argv, str(2**24 + 1), 1, "each patch scales entry must lie in [2, 16777216]",
                 id="patch-scale-2-24-plus-1"),
    pytest.param(_points_argv, 1e200, 1, "a nearest distance leaves the float range", id="exact-chamfer-overflow"),
    pytest.param(_empty_mask_argv, ["solve"], 1, "mask contains no subjects", id="solve-empty-mask"),
    pytest.param(_empty_mask_argv, ["eval"], 1, "mask contains no subjects", id="eval-empty-mask"),
    pytest.param(_empty_mask_argv, ["eval", "--local"], 1, "mask contains no subjects",
                 id="eval-local-empty-mask"),
    pytest.param(_empty_mask_argv, ["decompose", "--method", "homography"], 1, "mask contains no subjects",
                 id="decompose-homography-empty-mask"),
    pytest.param(_synth_argv, '{"subjects": {"root_t": [60, 60]}}', 2,
                 "spec.json: $.subjects invalid (expected a JSON list)", id="synth-subjects-object"),
    pytest.param(_mask_mean_keypoints_argv, '{"frames": {}}', 2, "keypoints.json: $.frames must be a list",
                 id="keypoints-frames-object"),
    pytest.param(_mask_mean_keypoints_argv, '{"frames": [{"persons": [[[1, 2]]]}]}', 2,
                 "keypoints.json: $.frames[0].persons[0] must list exactly 17 keypoints", id="keypoints-one-joint"),
    pytest.param(_mask_mean_keypoints_argv, json.dumps({"frames": [{"persons": [[[1, 2]] * 17]}]}), 2,
                 "keypoints.json: $.frames[0].persons[0][0] must be [x, y, c]", id="keypoints-xy-rows"),
    pytest.param(_points_text_argv, '{"points": {}}', 2, "pts.json: $.points must be a list", id="points-object"),
    pytest.param(_points_text_argv, '{"points": [[1, 2], [1, 2, 3]]}', 2, "pts.json: $.points[1] must be [x, y]",
                 id="points-xyz-row"),
    pytest.param(_points_text_argv, '{"points": [[1, NaN]]}', 2,
                 "pts.json: $.points[0] has entries that are not finite numbers", id="points-nan"),
    pytest.param(_solve_argv, {"tau_schedule": [1e300]}, 2, _TAU_RANGE_MESSAGE, id="tau-1e300"),
    pytest.param(_solve_argv, {"tau_schedule": [0.5, 1e100]}, 2, _TAU_RANGE_MESSAGE, id="tau-1e100"),
    pytest.param(_solve_argv, {"tau_schedule": [5e-324]}, 2, _TAU_RANGE_MESSAGE, id="tau-subnormal"),
])
@pytest.mark.filterwarnings("error")
def test_bad_arguments_exit_with_one_line_error(scene_dir, tmp_path, capsys, build, arg, code, message):
    got, _, err = _run(capsys, build(scene_dir, tmp_path, arg))
    assert got == code
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag", [(["render"], "--out"), (["edges"], "--overlay")])
def test_unwritable_output_exits_2_naming_the_path(scene_dir, tmp_path, capsys, command, flag):
    """An output file that cannot be opened (its directory is missing) is an
    I/O error: exit 2 with one error line that names the path."""
    out = tmp_path / "missing" / "flow.ppm"
    got, _, err = _run(capsys, command + ["--flow", str(scene_dir / "gt_world.flo"), flag, str(out)])
    assert got == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
    assert "Traceback" not in err


def _without_wall_time(report: str) -> list:
    return [line for line in report.splitlines() if not line.lstrip().startswith('"wall_time_s"')]


def test_reports_are_the_library_results_byte_for_byte(scene_dir, tmp_path, capsys):
    """The eval, solve, metrics and decompose reports, but for wall_time_s, are
    byte for byte the io.Report of the library's results for the same files."""
    flo, keypoints, mask_path, boundary = (str(scene_dir / name) for name in
                                           ("gt_world.flo", "keypoints.json", "mask_t.pgm", "boundary.json"))
    flow, mask, frames = io.read_flo(flo), io.read_mask(mask_path), io.read_keypoints(keypoints)
    priors = flows.Priors.build(frames[0], frames[1], mask, io.read_points(boundary))
    hp = Hyperparams()
    hp_record = vars(hp) | {"scales": list(hp.scales)}
    scene = dict(keypoints=keypoints, mask=mask_path, boundary=boundary)

    b = flows.joint_objective(flow, priors, hp)
    eval_report = io.Report("eval", cli._inputs_record(flow=flo, **scene), hp_record, {
        "total": b.total, "f": b.f, "g": b.g, "alpha": b.alpha, "constraint_kind": "world",
        "angular_violation_fraction": b.f_report.angular_violation_fraction,
        "intensity_mean_penalty": b.f_report.intensity_mean_penalty,
        "matched_pixels": b.f_report.matched_pixels,
        "f_matched_normalized": b.f_report.f_matched_normalized,
        "boundary_edges_empty": b.g_result.edges_empty,
        "boundary_cooccupied_fraction": list(b.g_result.cooccupied_fraction),
    }, [], 0.0)

    solve_argv = _solve_argv(scene_dir, tmp_path, {"max_iters": 2, "tau_schedule": [0.5, 0.1]})
    solved = flows.solve_world_flow(FlowMap.zeros(mask.width, mask.height), priors, hp,
                                    flows.SolverOptions(max_iters=2, tau_schedule=(0.5, 0.1)))
    solve_report = io.Report("solve", cli._inputs_record(**scene), hp_record, {
        "converged": solved.converged, "stops": list(solved.stops), "iterations": len(solved.trace),
        "final_total": solved.objective.total, "out": solve_argv[-1],
    }, [{"iteration": t.iteration, "tau": t.tau, "step": t.step, "surrogate": t.surrogate}
        for t in solved.trace], 0.0)

    mean_epe, max_epe = flows.endpoint_error(flow, flow, mask)
    metrics_report = io.Report("metrics", cli._inputs_record(pred=flo, gt=flo, mask=mask_path), {},
                               {"mean_epe": mean_epe, "max_epe": max_epe, "masked": True}, [], 0.0)

    local = str(tmp_path / "local.flo")
    (v,) = flows.estimate_subject_motion(flow, mask, "mask-mean").values()
    decompose_report = io.Report(
        "decompose", cli._inputs_record(world=flo, mask=mask_path, keypoints=keypoints), {},
        {"method": "mask-mean", "v_s": {"1": {"kind": "vector", "value": [v.dx, v.dy]}}, "out_local": local},
        [], 0.0)

    for argv, report in [
        (["eval", "--flow", flo, "--keypoints", keypoints, "--mask", mask_path, "--boundary", boundary],
         eval_report),
        (solve_argv, solve_report),
        (["metrics", "--pred", flo, "--gt", flo, "--mask", mask_path], metrics_report),
        (["decompose", "--world", flo, "--mask", mask_path, "--keypoints", keypoints, "--out-local", local],
         decompose_report),
    ]:
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        assert _without_wall_time(out) == _without_wall_time(report.to_json()), argv[0]


def test_solve_without_accepted_steps_reports_the_written_flows_objective(scene_dir, tmp_path, capsys):
    """A solve whose every trial step is rejected still writes its flow, and
    `final_total` is that flow's hard objective, as `eval` gives it."""
    code, out, _ = _run(capsys, _solve_argv(scene_dir, tmp_path, {"smoothness_weight": 1e308, "max_iters": 3}))
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert metrics["iterations"] == 0
    # Phases 1 and 2 exhaust their line searches on finite values, and phase 3
    # starts where every term's gradient is 0.
    assert metrics["stops"] == ["line_search", "line_search", "zero_gradient"]
    code, out, _ = _run(capsys, [
        "eval", "--flow", str(tmp_path / "solved.flo"),
        "--keypoints", str(scene_dir / "keypoints.json"),
        "--mask", str(scene_dir / "mask_t.pgm"),
        "--boundary", str(scene_dir / "boundary.json"),
    ])
    assert code == 0
    assert isinstance(metrics["final_total"], float)
    assert metrics["final_total"] == json.loads(out)["metrics"]["total"]


@settings(max_examples=25, deadline=None)
@example(where=0.0, init=False).via("lower end of the tau range")
@example(where=1.0, init=True).via("upper end of the tau range")
@given(where=st.floats(0.0, 1.0), init=st.booleans())
def test_solve_accepts_every_tau_in_range_without_warning(scene_dir, fuzz_out, where, init):
    """Any tau in the documented range, drawn log-uniform, solves from zero or
    from the true flow with exit 0 and no floating-point warning."""
    lo, hi = TAU_RANGE
    exponent = np.log10(lo) + where * (np.log10(hi) - np.log10(lo))
    tau = min(max(10.0 ** float(exponent), lo), hi)
    argv = _solve_argv(scene_dir, fuzz_out, {"tau_schedule": [tau], "max_iters": 3})
    if init:
        argv += ["--init", str(scene_dir / "gt_world.flo")]
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code == 0, err.getvalue()


def _one_error_line(err: str, argparse_exit: bool) -> bool:
    """True when stderr holds exactly one error line: argparse prints its usage
    first, every other failure is a single `error: ...` line."""
    if argparse_exit:
        return sum("error: " in line for line in err.splitlines()) == 1
    return err.startswith("error: ") and err.count("\n") == 1


# NaN, infinities, negatives, zero, integers far beyond any raster, and ordinary values.
_NUMBER_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e400", "99999999999", str(_HUGE), "2.5"]),
    st.integers(-(10 ** 20), 10 ** 20).map(str),
    st.integers(1, 96).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small flow with edges and a curve file, so every accepted call is fast."""
    root = tmp_path_factory.mktemp("fuzz")
    arr = np.zeros((12, 16, 2))
    arr[3:9, 4:10] = (1.5, -0.5)
    io.write_flo(root / "flow.flo", FlowMap(arr))
    (root / "pts.json").write_text(json.dumps({"points": [[1.0, 1.0], [4.0, 2.0], [30.0, 20.0]]}))
    return root


@settings(max_examples=120)
@given(flag=st.sampled_from(["render --max-norm", "edges --theta-i", "edges --theta-a",
                             "chamfer --width", "chamfer --height", "chamfer --scales"]),
       value=_NUMBER_TEXT, other=st.sampled_from(["8", "31", "64", "99999999999"]))
def test_fuzz_numeric_flags_exit_cleanly(fuzz_inputs, flag, value, other):
    """Every value of a numeric flag ends in exit 0, 1 or 2 with one error line and no traceback.

    Rasters above the 2**24-pixel cap are refused before anything is allocated,
    so no drawn value can build a larger one.
    """
    command, option = flag.split()
    flow, pts = str(fuzz_inputs / "flow.flo"), str(fuzz_inputs / "pts.json")
    argv = {
        "render": ["render", "--flow", flow, "--out", str(fuzz_inputs / "out.ppm")],
        "edges": ["edges", "--flow", flow],
        "chamfer": ["chamfer", "--s", pts, "--e", pts, "--patch", "--scales", "8,16",
                    "--width", other, "--height", other],
    }[command] + [f"{option}={value}"]
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            argparse_exit = False
        except SystemExit as exc:
            code, argparse_exit = exc.code, True
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert _one_error_line(err, argparse_exit), err


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_keypoints")


# Coordinate scales from far below to near the top of the float range.
_COORD_SCALES = st.sampled_from([1.0, -1.0, 1e-300, 1e-8, 1e8, 1e150, 1e300, -1e300])


@st.composite
def _person(draw, joints):
    """A person at `joints` scaled, collapsed to one point, or laid on a line;
    confidences kept or zeroed."""
    out = np.array(joints, dtype=np.float64)
    scale = draw(_COORD_SCALES)
    shape = draw(st.sampled_from(["scaled", "coincident", "collinear"]))
    if shape == "scaled":
        out[:, :2] *= scale
    elif shape == "coincident":
        out[:, :2] = out[11, :2] * scale
    else:
        out[:, 0] = np.linspace(0.0, 100.0, 17) * scale
        out[:, 1] = 0.5 * out[:, 0]
    if draw(st.booleans()):
        out[:, 2] = 0.0
    return out.tolist()


@st.composite
def _keypoint_doc(draw, frames):
    """Two frames built from the scene's persons; frame t is left as it is half
    the time, so persons still reach the subject and the fits run."""
    (person_t,), (person_t1,) = frames
    first = [person_t.tolist()] if draw(st.booleans()) else [draw(_person(person_t))]
    count = draw(st.sampled_from([1, 1, 1, 0, 2]))  # mostly the same person count as frame t
    second = [draw(_person(person_t1)) for _ in range(count)]
    return {"frames": [{"persons": first}, {"persons": second}]}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from([
    ["decompose", "--method", "mask-mean"], ["decompose", "--method", "homography"],
    ["decompose", "--method", "head"], ["decompose", "--method", "translation"],
    ["eval", "--local", "--align", "homography"], ["eval", "--local", "--align", "head"],
    ["eval", "--local", "--align", "translation"],
]))
def test_fuzz_keypoint_files_exit_cleanly(scene_dir, fuzz_out, data, command):
    """Any keypoints file ends decompose and eval --local in exit 0, 1 or 2 with
    at most one error line, no traceback and no warning."""
    frames = [frame.persons for frame in io.read_keypoints(scene_dir / "keypoints.json")]
    argv = _keypoints_command(scene_dir, fuzz_out, command, data.draw(_keypoint_doc(frames)))
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err.count("error: ") <= 1 and (code == 0) == (err == ""), err


# Values no config field accepts: JSON null, booleans, letter strings (no
# number among them), and objects and lists of those letters.
_LETTERS = st.text("abxyz", min_size=1, max_size=3)
_WRONG_TYPED = st.one_of(st.none(), st.booleans(), _LETTERS, st.dictionaries(_LETTERS, st.integers(), max_size=2),
                         st.lists(_LETTERS, min_size=1, max_size=2))
_NON_OBJECTS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                         st.text(max_size=4), st.lists(st.integers(), max_size=2))
_CONFIG_FILES = {
    "solve --opts": (flows.SolverOptions, _solve_argv, "opts.json"),
    "eval --config": (Hyperparams, _config_argv, "config.json"),
    "synth --spec": (synth.SceneSpec, lambda scene, out, doc: _synth_argv(scene, out, json.dumps(doc)),
                     "spec.json"),
}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), flag=st.sampled_from(sorted(_CONFIG_FILES)),
       kind=st.sampled_from(["non-object", "unknown key", "wrong type"]))
def test_fuzz_config_files_exit_2(scene_dir, fuzz_out, data, flag, kind):
    """A config file that is not an object, has an unknown key or a wrong-typed
    value exits 2 with one error line naming the file and the JSON location."""
    cls, build, name = _CONFIG_FILES[flag]
    fields = sorted(cls.__dataclass_fields__)
    if kind == "non-object":
        doc = data.draw(_NON_OBJECTS)
    elif kind == "unknown key":
        doc = {data.draw(st.text(max_size=8).filter(lambda key: key not in fields)): data.draw(_WRONG_TYPED)}
    else:
        doc = {data.draw(st.sampled_from(fields)): data.draw(_WRONG_TYPED)}
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(build(scene_dir, fuzz_out, doc))
    err = err.getvalue()
    assert code == 2, err
    assert err.startswith(f"error: {fuzz_out / name}: $") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_cli_entry_point_imports_no_scipy(tmp_path):
    """`chamfer --exact`, the one command that used scipy, runs without loading any scipy module."""
    env = dict(os.environ, PYTHONPATH=str(Path(wlflow.__file__).resolve().parents[1]))
    probe = ("import sys; from wlflow.cli import main; code = main(sys.argv[1:]); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr); "
             "sys.exit(code)")
    rng = np.random.default_rng(7)
    s, e = PointSet(rng.uniform(0, 50, (40, 2))), PointSet(rng.uniform(0, 50, (30, 2)))
    io.write_points(tmp_path / "s.json", s)
    io.write_points(tmp_path / "e.json", e)
    done = subprocess.run(
        [sys.executable, "-c", probe, "chamfer", "--exact",
         "--s", str(tmp_path / "s.json"), "--e", str(tmp_path / "e.json")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "[]"
    assert json.loads(done.stdout)["exact"] == io._format_floats(bnd.exact_chamfer(s, e))


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_files")


def _rect_labels(h: int, w: int) -> np.ndarray:
    labels = np.zeros((h, w), dtype=np.int32)
    labels[h // 4:h - h // 4, w // 4:w - w // 4] = 1
    return labels


# Float32 values at the edges of the .flo payload's range: extremes, subnormals, signed zeros.
_FLO_VALUES = st.sampled_from([3e38, -3e38, 3.4028235e38, 1e-45, -1e-45, 1e-40, 0.0, -0.0, 1.5, -2.0])


@st.composite
def _file_inputs(draw):
    """Mask, flow, boundary and keypoints files for an 8-24 px raster, each
    valid or broken in one of the ways a user's files can be; None for a
    file that is absent."""
    h, w = draw(st.integers(8, 24)), draw(st.integers(8, 24))
    labels = {
        "ok": lambda: _rect_labels(h, w),
        "subjectless": lambda: np.zeros((h, w), dtype=np.int32),
        "1x1": lambda: np.full((1, 1), draw(st.sampled_from([0, 1])), dtype=np.int32),
        "mismatched": lambda: _rect_labels(h + draw(st.integers(1, 5)), w),
        "absent": lambda: None,
    }[draw(st.sampled_from(["ok", "ok", "ok", "subjectless", "1x1", "mismatched", "absent"]))]()
    fh, fw = (h, w) if draw(st.integers(0, 3)) else (draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    flow = {
        "small": lambda: np.random.default_rng(draw(st.integers(0, 9))).normal(0.0, 1.5, (fh, fw, 2)),
        "extreme": lambda: np.full((fh, fw, 2), draw(_FLO_VALUES)),
        "mixed": lambda: np.array(draw(st.lists(_FLO_VALUES, min_size=2 * fh * fw, max_size=2 * fh * fw)))
        .reshape(fh, fw, 2),
        "absent": lambda: None,
    }[draw(st.sampled_from(["small", "extreme", "mixed", "absent"]))]()
    boundary = {
        "outline": [[w / 4, h / 4], [3 * w / 4, h / 4], [3 * w / 4, 3 * h / 4], [w / 4, 3 * h / 4]],
        "empty": [],
        "off-raster": [[w / 2, h / 2], [w + 3.0, -1.0]],
        "single": [[w / 2, h / 2]],
        "absent": None,
    }[draw(st.sampled_from(["outline", "outline", "outline", "empty", "off-raster", "single", "absent"]))]
    # One person whose joints lie along the subject's diagonal; frame t+1 shifted by 1 px.
    joints = np.stack([np.linspace(w / 4, 3 * w / 4, 17), np.linspace(h / 4, 3 * h / 4, 17), np.ones(17)],
                      axis=1)
    moved = joints + (1.0, 0.5, 0.0)
    keypoints = draw(st.sampled_from([[joints.tolist(), moved.tolist()]] * 3 + [None]))
    return labels, flow, boundary, keypoints


@settings(max_examples=100, deadline=None)
@example(inputs=(_rect_labels(12, 16), np.zeros((12, 16, 2)), [], None), command="decompose",
         method="mask-mean").via("mask-mean decomposition with an absent keypoints file")
@given(inputs=_file_inputs(),
       command=st.sampled_from(["solve", "solve --init", "eval", "eval --local", "decompose"]),
       method=st.sampled_from(["mask-mean", "homography", "head", "translation"]))
def test_fuzz_file_inputs_exit_cleanly(fuzz_files, inputs, command, method):
    """Any mask, .flo, boundary and keypoints file, or its absence, ends
    solve, eval and decompose in exit 0, 1 or 2 with at most one error line,
    no traceback and no warning; a command that fails leaves no output file."""
    labels, flow, boundary, keypoints = inputs
    d = fuzz_files
    outputs = [d / "solved.flo", d / "local.flo"]
    for path in [d / "mask.pgm", d / "flow.flo", d / "boundary.json", d / "keypoints.json", *outputs]:
        path.unlink(missing_ok=True)  # the directory serves every example
    if labels is not None:
        io.write_mask(d / "mask.pgm", SubjectMask(labels))
    if flow is not None:
        io.write_flo(d / "flow.flo", FlowMap(flow))
    if boundary is not None:
        (d / "boundary.json").write_text(json.dumps({"points": boundary}))
    if keypoints is not None:
        (d / "keypoints.json").write_text(json.dumps({"frames": [{"persons": [p]} for p in keypoints]}))
    (d / "opts.json").write_text(json.dumps({"max_iters": 2}))
    common = ["--mask", str(d / "mask.pgm"), "--keypoints", str(d / "keypoints.json")]
    if command.startswith("solve"):
        argv = ["solve", *common, "--boundary", str(d / "boundary.json"), "--opts", str(d / "opts.json"),
                "--out", str(d / "solved.flo")]
        if command.endswith("--init"):
            argv += ["--init", str(d / "flow.flo")]
    elif command.startswith("eval"):
        argv = [*command.split(), *common, "--flow", str(d / "flow.flo"),
                "--boundary", str(d / "boundary.json")]
    else:
        argv = ["decompose", "--method", method, *common, "--world", str(d / "flow.flo"),
                "--out-local", str(d / "local.flo")]
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err.count("error: ") <= 1 and (code == 0) == (err == ""), err
    if code:
        assert not any(path.exists() for path in outputs)

"""The benchmark's four workloads.

Each workload is a closed loop with a single client: the next operation
starts only after the previous one has finished. Inputs are built from the
seed alone and the library sees only those inputs. Every output is checked;
each operation (solve, morph fit, CLI command) and each check counts once in
`attempted`, and once more in `failed` if it went wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import wlflow
from wlflow import boundary as bnd
from wlflow import flows, io, synth
from wlflow.core import FlowMap, Hyperparams, PointSet

from metrics import CLI_COMMANDS, DECOMPOSE_METHODS, PER_LAYER
from speed import Speed, Timing
from tracer import Tracer

HP = Hyperparams()
SRC = Path(wlflow.__file__).resolve().parent.parent
REF_ROOT = (128 * 0.45, 128 * 0.55)  # single_figure_scene's default root at 128x128
CLI_TIMEOUT_S = 120
# Share of a run's budget spent repeating the set-up. Set-up is timed in its
# own closed loop, at least SETUP_MIN_REPEATS times, and reported as the median.
SETUP_SHARE = 0.1
SETUP_MIN_REPEATS = 3


@dataclass
class Ledger:
    """Operations and checks attempted, and those that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class Outcome:
    metrics: dict  # metric name -> value
    extras: dict = field(default_factory=dict)  # printed, not part of the result line
    tracer: Tracer | None = None


def closed_loop(seconds: float, op: Callable, speed: Speed, at_least: int = 1) -> list:
    """Run `op` back to back, at least `at_least` times; start another only if it
    should end within `seconds`. Between operations `speed` may take a sample."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(op())
        now = time.perf_counter()
        speed.tick()
        if len(results) >= at_least and now - start + (now - t0) > seconds:
            return results


def timed(op: Callable, speed: Speed) -> Callable:
    """`op` returning only its timing, so that a loop keeps none of its results."""
    def run():
        with speed.measure() as timing:
            op()
        return timing
    return run


def time_metrics(timings: dict[str, list], speed: Speed) -> tuple[dict, dict]:
    """Median scaled time per metric, and the record of the raw wall times."""
    metrics = {name: statistics.median(t.s for t in ts) for name, ts in timings.items()}
    extras = {f"wall_{name}": statistics.median(t.wall for t in ts) for name, ts in timings.items()}
    return metrics, {"speed_factor": speed.factor(), "calibrations": len(speed.took), **extras}


def digest(flow: FlowMap) -> str:
    return hashlib.sha256(np.ascontiguousarray(flow.vectors).tobytes()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def quality(flow: FlowMap, gt: FlowMap, priors: flows.Priors, ledger: Ledger) -> dict:
    """EPE against ground truth, hard objective, and edge-to-boundary Chamfer."""
    edges = bnd.extract_flow_edges(flow, HP).union
    ledger.record("final flow has edges", len(edges) > 0)
    return {
        "epe_mean": flows.endpoint_error(flow, gt, priors.mask)[0],
        "hard_final": flows.joint_objective(flow, priors, HP).total,
        "edge_chamfer": bnd.exact_chamfer(edges, priors.boundary) if len(edges) else 0.0,
    }


def soft_boundary_peak_mb(flow: FlowMap, boundary: PointSet, tau: float) -> float:
    """Peak memory allocated by one soft-boundary evaluation, by tracemalloc."""
    tracemalloc.start()
    try:
        bnd.soft_boundary_constraint(flow, boundary, HP, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def layer_metrics(tracer: Tracer, result: flows.SolveResult, opts: flows.SolverOptions,
                  untraced_solve_s: float, peak_mb: float) -> dict:
    """Per-layer metrics of one traced set-up and solve; zero where a layer did not run."""
    every = tracer.stats()
    inner = tracer.stats(within="flows.solve_world_flow")
    m = dict.fromkeys(PER_LAYER, 0)
    for name in ("synth.generate_scene", "flows.Priors.build", "skeleton.match_all"):
        if name in every:
            m[f"{name}.s"] = every[name].s
    for name in ("boundary.soft_boundary_constraint", "boundary.build_patch_grid",
                 "flows.joint_objective", "kinematics.smooth_skeleton_constraint"):
        if name in inner:
            m[f"{name}.calls"] = inner[name].calls
            m[f"{name}.s"] = inner[name].s
    for name in ("boundary.extract_flow_edges", "boundary.multiscale_patch_distance",
                 "kinematics.skeleton_constraint"):
        if name in inner:
            m[f"{name}.s"] = inner[name].s
    soft = inner.get("boundary.soft_boundary_constraint")
    if soft:
        m["boundary.soft_boundary_constraint.ms_per_call"] = 1000.0 * soft.s / soft.calls
    m["boundary.soft_boundary_constraint.peak_mb"] = peak_mb
    solve = every["flows.solve_world_flow"]
    m["flows.solve_world_flow.s"] = solve.s
    m["flows.solve_world_flow.self_s"] = solve.self_s
    m["flows.solve_world_flow.cpu_s"] = solve.cpu_s
    iterations = len(result.trace)
    m["flows.solve.iterations"] = iterations
    for i, tau in enumerate(opts.tau_schedule[:3]):
        m[f"flows.solve.iterations_phase{i}"] = sum(1 for t in result.trace if t.tau == tau)
    evals = inner["kinematics.smooth_skeleton_constraint"].calls
    m["flows.solve.evals"] = evals
    m["flows.solve.accept_ratio"] = iterations / evals
    m["trace.overhead"] = solve.s / untraced_solve_s
    return m


# ---------------------------------------------------------------------------
# Solve workloads: ref128, sparse512, refine2.
# ---------------------------------------------------------------------------


def ref128_spec(seed: int, smoke: bool) -> synth.SceneSpec:
    """The acceptance scene. It has no keypoint noise, so the seed changes nothing."""
    if smoke:
        return synth.single_figure_scene(64, 64, length_scale=0.5, seed=seed)
    return synth.single_figure_scene(seed=seed)


def sparse512_spec(seed: int, smoke: bool) -> synth.SceneSpec:
    """The default-size figure at its 128x128 reference position on a large raster.

    The position is not seeded. Even a shift by whole coarsest cells, which
    leaves the inputs equal up to 1e-13 rounding, moves EPE after 12
    iterations between 3.6 and 4.3 px, so seeded positions would make the
    quality metrics measure the seed instead of the code.
    """
    n = 128 if smoke else 512
    return synth.single_figure_scene(n, n, root=REF_ROOT, seed=seed)


def refine2_spec(seed: int, smoke: bool) -> synth.SceneSpec:
    """Two smaller figures side by side, moving apart."""
    w, h, scale = (64, 48, 0.35) if smoke else (128, 96, 0.7)
    left = synth.single_figure_scene(
        w, h, translation=(3.0, 1.0), root=(0.3 * w, 0.55 * h), length_scale=scale,
    ).subjects[0]
    right = synth.single_figure_scene(
        w, h, translation=(-2.5, 0.5), arm_swing=-0.2, leg_swing=0.15,
        root=(0.7 * w, 0.55 * h), length_scale=scale,
    ).subjects[0]
    return synth.SceneSpec(width=w, height=h, subjects=(left, right), seed=seed)


def refine2_init(truth: synth.SceneTruth, seed: int) -> FlowMap:
    """Ground truth plus seeded N(0, 0.5^2) noise: refining an existing estimate."""
    gt = truth.gt_world.vectors
    return FlowMap(gt + np.random.default_rng(seed).normal(0.0, 0.5, gt.shape))


def zero_init(truth: synth.SceneTruth, seed: int) -> FlowMap:
    return FlowMap.zeros(truth.mask_t.width, truth.mask_t.height)


@dataclass(frozen=True)
class SolveCase:
    spec: Callable[[int, bool], synth.SceneSpec]
    opts: flows.SolverOptions
    smoke_iters: int
    init: Callable[[synth.SceneTruth, int], FlowMap] = zero_init
    min_epe_drop: float | None = None  # required fractional EPE fall from zero init

    def solver_options(self, smoke: bool) -> flows.SolverOptions:
        return replace(self.opts, max_iters=self.smoke_iters) if smoke else self.opts


SOLVE_CASES = {
    "ref128": SolveCase(ref128_spec, flows.SolverOptions(), 9, min_epe_drop=0.5),
    "sparse512": SolveCase(sparse512_spec, flows.SolverOptions(max_iters=12), 3),
    "refine2": SolveCase(refine2_spec, flows.SolverOptions(max_iters=150), 6, init=refine2_init),
}


def setup_scene(spec: synth.SceneSpec):
    truth = synth.generate_scene(spec)
    priors = flows.Priors.build(truth.keypoints[0], truth.keypoints[1], truth.mask_t, truth.boundary_t)
    return truth, priors


def run_solve(case: SolveCase, seed: int, seconds: float, smoke: bool, ledger: Ledger) -> Outcome:
    spec = case.spec(seed, smoke)
    opts = case.solver_options(smoke)
    speed = Speed()
    start = time.perf_counter()
    setup_times = closed_loop(SETUP_SHARE * seconds, timed(lambda: setup_scene(spec), speed), speed,
                              SETUP_MIN_REPEATS)
    truth, priors = setup_scene(spec)
    init = case.init(truth, seed)

    def one_pass():
        with speed.measure() as whole:
            with speed.measure() as solve:
                result = flows.solve_world_flow(init, priors, HP, opts)
            ledger.record("solve", bool(np.isfinite(result.flow.vectors).all()), "non-finite flow")
            q = quality(result.flow, truth.gt_world, priors, ledger)
        return solve, whole, digest(result.flow), q

    # Two passes at least: a slow first solve must not crowd out the second and
    # leave the run's solve_s a single sample.
    passes = closed_loop(seconds - (time.perf_counter() - start), one_pass, speed, at_least=2)
    speed.finish()
    ledger.record("solves are bitwise identical", len({p[2] for p in passes}) == 1)
    q = passes[0][3]
    if case.min_epe_drop is not None and not smoke:
        epe0 = flows.endpoint_error(init, truth.gt_world, truth.mask_t)[0]
        ledger.record(f"EPE falls by {case.min_epe_drop:.0%} from zero init",
                      q["epe_mean"] <= (1.0 - case.min_epe_drop) * epe0,
                      f"{epe0:.4f} -> {q['epe_mean']:.4f}")
    times, extras = time_metrics({
        "setup_s": setup_times, "solve_s": [p[0] for p in passes], "pass_s": [p[1] for p in passes],
    }, speed)
    return Outcome({**times, **q, "peak_rss_mb": peak_rss_mb()},
                   {"passes": len(passes), "setups": len(setup_times), **extras})


def trace_solve(case: SolveCase, seed: int, smoke: bool, ledger: Ledger) -> Outcome:
    spec = case.spec(seed, smoke)
    opts = case.solver_options(smoke)
    truth, priors = setup_scene(spec)
    t0 = time.perf_counter()
    plain = flows.solve_world_flow(case.init(truth, seed), priors, HP, opts)
    plain_s = time.perf_counter() - t0
    q_plain = quality(plain.flow, truth.gt_world, priors, ledger)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        truth_t, priors_t = setup_scene(spec)
        traced = flows.solve_world_flow(case.init(truth_t, seed), priors_t, HP, opts)
        tracer.enabled = False
        q_traced = quality(traced.flow, truth_t.gt_world, priors_t, ledger)
        peak_mb = soft_boundary_peak_mb(traced.flow, priors_t.boundary, opts.tau_schedule[-1])
    finally:
        tracer.enabled = False
        tracer.uninstall()
    ledger.record("traced flow sha256 equals untraced", digest(plain.flow) == digest(traced.flow))
    ledger.record("traced quality equals untraced", q_plain == q_traced, f"{q_plain} vs {q_traced}")
    return Outcome(layer_metrics(tracer, traced, opts, plain_s, peak_mb), q_traced, tracer)


# ---------------------------------------------------------------------------
# The CLI pipeline, morphing and decomposition.
# ---------------------------------------------------------------------------

PIPELINE_ITERS = 30
PIPELINE_SOLVE_REPEATS = 8
# The morph fits run this many times in a timed pass, so that they take about
# 40 % of `pass_s` and morph fits slowed down 1.6x move it past its bound.
MORPH_REPEATS = 6
MORPH_MAX_RATIO = 0.2


def pipeline_spec(seed: int, smoke: bool) -> synth.SceneSpec:
    """The reference figure on a 96x96 raster.

    The seed goes into the spec and the morph inputs. Scene geometry is not
    seeded: with a short solve budget, EPE depends strongly on where the
    figure sits on the patch grid, so seeded scenes would make the quality
    metrics of this workload measure the scene instead of the code.
    """
    if smoke:
        return synth.single_figure_scene(48, 48, length_scale=0.4, seed=seed)
    return synth.single_figure_scene(96, 96, length_scale=0.75, seed=seed)


def spec_to_json(spec: synth.SceneSpec) -> dict:
    return {
        "width": spec.width,
        "height": spec.height,
        "seed": spec.seed,
        "noise_sigma": spec.noise_sigma,
        "camera_motion": [spec.camera_motion.dx, spec.camera_motion.dy],
        "subjects": [
            {
                "root_t": list(s.root_t),
                "root_t1": list(s.root_t1),
                "lengths": s.lengths,
                "angles_t": s.angles_t,
                "angles_t1": s.angles_t1,
                "capsule_radii": list(s.capsule_radii),
            }
            for s in spec.subjects
        ],
    }


class Cli:
    """Runs `wlflow` commands as subprocesses, one at a time, timing each.

    With a `speed`, every command is measured by it, and its timing (like
    that of every other operation passed to `measure`) is kept in `timings`.
    """

    def __init__(self, workdir: Path, ledger: Ledger, tracer: Tracer, speed: Speed | None = None):
        self.workdir = workdir
        self.ledger = ledger
        self.tracer = tracer
        self.speed = speed
        paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.times: dict[str, list] = {}  # wall seconds per command label
        self.timings: list[Timing] = []

    @contextlib.contextmanager
    def measure(self, inside: bool = True):
        if self.speed is None:
            yield
            return
        with self.speed.measure(inside) as timing:
            yield
        self.timings.append(timing)
        self.speed.tick()

    def python(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                              env=self.env, cwd=self.workdir, timeout=CLI_TIMEOUT_S)

    def __call__(self, *args, label: str | None = None) -> str | None:
        """Run one command; return its stdout, or None if it failed."""
        label = label or args[0]
        t0 = time.perf_counter()
        with self.measure(inside=False), self.tracer.span(f"cli.{label}"):
            try:
                proc = self.python("-m", "wlflow.cli", *args)
            except subprocess.TimeoutExpired:
                proc = None
        self.times.setdefault(label, []).append(time.perf_counter() - t0)
        if proc is None:
            self.ledger.record(f"cli {label}", False, f"timed out after {CLI_TIMEOUT_S} s")
            return None
        ok = proc.returncode == 0 and "Traceback" not in proc.stderr
        self.ledger.record(f"cli {label}", ok, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return proc.stdout if ok else None


def load_scene(scene: Path):
    """Read the synth output the way `wlflow solve` does."""
    frames = io.read_keypoints(scene / "keypoints.json")
    mask = io.read_mask(scene / "mask_t.pgm")
    boundary = io.read_points(scene / "boundary.json")
    priors = flows.Priors.build(frames[0], frames[1], mask, boundary)
    return io.read_flo(scene / "gt_world.flo"), priors


MORPH_CENTER = np.array([48.0, 48.0])
MORPH_RADIUS = 20.0


def _circle(n: int) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return MORPH_CENTER + MORPH_RADIUS * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _square(n: int) -> np.ndarray:
    """Points evenly spaced along a square whose side is a quarter of the circle's perimeter."""
    half = np.pi * MORPH_RADIUS / 4
    corners = np.array([(-half, -half), (half, -half), (half, half), (-half, half)])
    t = np.linspace(0.0, 4.0, n, endpoint=False)
    k, f = np.floor(t).astype(int), t - np.floor(t)
    return MORPH_CENTER + corners[k] + f[:, None] * (corners[(k + 1) % 4] - corners[k])


def morph_fits(seed: int, ledger: Ledger, tracer: Tracer) -> dict:
    """Circle to square at two densities, and circle to a seeded translate."""
    shift = np.random.default_rng(seed).uniform(-6.0, 6.0, size=2)
    cases = [(_circle(400), _square(400)), (_circle(1600), _square(1600)), (_circle(400), _circle(400) + shift)]
    total_s, iterations, worst = 0.0, 0, 0.0
    for moving, target in cases:
        moving, target = PointSet(moving), PointSet(target)
        t0 = time.perf_counter()
        res = bnd.morph_curve_fit(moving, target, bnd.MorphOptions(width=96, height=96))
        total_s += time.perf_counter() - t0
        ledger.record("morph fit", bool(np.isfinite(res.moved.points).all()), "non-finite points")
        iterations += len(res.objective_trace) - 1
        with tracer.paused():
            worst = max(worst, bnd.exact_chamfer(res.moved, target) / bnd.exact_chamfer(moving, target))
    ledger.record(f"morph Chamfer ratio <= {MORPH_MAX_RATIO}", worst <= MORPH_MAX_RATIO, f"{worst:.4f}")
    return {"morph_s": total_s, "morph_iterations": iterations, "morph_chamfer_ratio": worst}


def cli_chain(cli: Cli, scene: Path, work: Path, opts_path: Path) -> tuple[float, str | None]:
    """Every subcommand once, one after another, on the synth output.

    Returns the chain's wall time and the output of `wlflow metrics`.
    """
    kp, mask_p, bnd_p, gt_p = (scene / n for n in ("keypoints.json", "mask_t.pgm", "boundary.json", "gt_world.flo"))
    priors_args = ("--keypoints", kp, "--mask", mask_p, "--boundary", bnd_p)
    solved = work / "solved.flo"
    t0 = time.perf_counter()
    cli("solve", "--init", "zero", *priors_args, "--opts", opts_path, "--out", solved)
    metrics_out = cli("metrics", "--pred", solved, "--gt", gt_p, "--mask", mask_p)
    cli("eval", "--flow", solved, *priors_args)
    cli("eval", "--local", "--flow", solved, *priors_args, label="eval-local")
    for method in DECOMPOSE_METHODS:
        cli("decompose", "--world", solved, "--mask", mask_p, "--keypoints", kp, "--method", method,
            "--out-local", work / f"local-{method}.flo", label=f"decompose-{method}")
    edges = cli("edges", "--flow", solved, "--auto")
    union = work / "edges_union.json"
    union.write_text(json.dumps({"points": json.loads(edges)["union"] if edges else []}))
    cli("chamfer", "--s", union, "--e", bnd_p, "--exact", label="chamfer-exact")
    height, width = io.read_mask(mask_p).labels.shape
    cli("chamfer", "--s", union, "--e", bnd_p, "--patch", "--width", width, "--height", height,
        label="chamfer-patch")
    cli("render", "--flow", solved, "--out", work / "solved.ppm")
    return time.perf_counter() - t0, metrics_out


def check_chain(scene: Path, work: Path, metrics_out: str | None, inproc: FlowMap, ledger: Ledger) -> None:
    """Compare the chain's files with in-process results; a missing file fails its check."""

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a missing or unreadable output fails the check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        ledger.record(name, ok, detail)

    solved = work / "solved.flo"
    mask = io.read_mask(scene / "mask_t.pgm")

    def cli_solve_matches():
        want = inproc.vectors.astype(np.float32).astype(np.float64)
        return np.array_equal(io.read_flo(solved).vectors, want), "CLI flow differs from in-process solve"

    def metrics_agree():
        reported = json.loads(metrics_out)["metrics"]["mean_epe"]
        local = flows.endpoint_error(io.read_flo(solved), io.read_flo(scene / "gt_world.flo"), mask)[0]
        return abs(reported - local) <= 1e-8 * max(1.0, abs(local)), f"{reported!r} vs {local!r}"

    check("CLI solve equals in-process solve", cli_solve_matches)
    check("wlflow metrics equals endpoint_error", metrics_agree)
    background = mask.labels == 0
    for method in DECOMPOSE_METHODS:
        def background_kept(method=method):
            world = io.read_flo(solved).vectors[background]
            local = io.read_flo(work / f"local-{method}.flo").vectors[background]
            return np.array_equal(world, local), "local != world on background"
        check(f"decompose {method} keeps background", background_kept)


BENCH_FILES = ("spec.json", "opts.json", "edges_union.json")  # written by the benchmark, not the CLI


def bytes_written(*dirs: Path) -> int:
    """Size of the files the CLI wrote."""
    return sum(p.stat().st_size for d in dirs for p in d.iterdir() if p.is_file() and p.name not in BENCH_FILES)


@contextlib.contextmanager
def workspace(prefix: str):
    root = SRC.parent / ".bench_work"
    root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=root))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()


def prepare_pipeline(work: Path, seed: int, smoke: bool) -> tuple[Path, Path, Path]:
    spec_path, opts_path = work / "spec.json", work / "opts.json"
    spec_path.write_text(json.dumps(spec_to_json(pipeline_spec(seed, smoke))))
    opts_path.write_text(json.dumps({"max_iters": 4 if smoke else PIPELINE_ITERS}))
    return work / "scene", spec_path, opts_path


def solve_inprocess(inputs, opts: flows.SolverOptions, repeats: int, ledger: Ledger,
                    tracer: Tracer, speed: Speed | None = None) -> tuple[list, flows.SolveResult, dict]:
    """Solve the synth output in-process `repeats` times, as `wlflow solve` does."""
    gt, priors = inputs
    init = FlowMap.zeros(priors.mask.width, priors.mask.height)
    times, digests = [], set()
    for _ in range(repeats):
        with speed.measure() if speed else contextlib.nullcontext() as timing:
            t0 = time.perf_counter()
            result = flows.solve_world_flow(init, priors, HP, opts)
            wall = time.perf_counter() - t0
        digests.add(digest(result.flow))
        if speed is None:
            times.append(wall)
        else:
            times.append(timing)
            speed.tick()
    with tracer.paused():
        ledger.record("in-process solve", bool(np.isfinite(result.flow.vectors).all()), "non-finite flow")
        ledger.record("in-process solves are bitwise identical", len(digests) == 1)
        q = quality(result.flow, gt, priors, ledger)
    return times, result, q


def pipeline_pass(cli: Cli, scene: Path, work: Path, opts_path: Path, seed: int, inproc: FlowMap,
                  morph_repeats: int, ledger: Ledger, tracer: Tracer) -> dict:
    """The CLI chain, then the morph fits (the two timed together as the pass), then the checks.

    The pass's `pieces` are the timings of its commands and morph fit sets.
    """
    first = len(cli.timings)
    chain_s, metrics_out = cli_chain(cli, scene, work, opts_path)
    morphs = []
    for _ in range(morph_repeats):
        with cli.measure():
            morphs.append(morph_fits(seed, ledger, tracer))
    with tracer.paused():
        check_chain(scene, work, metrics_out, inproc, ledger)
    return {"chain_s": chain_s, "pieces": cli.timings[first:],
            "bytes_written": bytes_written(scene, work),
            "morph_s": statistics.median(m["morph_s"] for m in morphs),
            "morph_iterations": morphs[0]["morph_iterations"],
            "morph_chamfer_ratio": max(m["morph_chamfer_ratio"] for m in morphs)}


def run_pipeline(seed: int, seconds: float, smoke: bool, ledger: Ledger) -> Outcome:
    tracer = Tracer()  # never enabled: spans are a no-op
    speed = Speed()
    start = time.perf_counter()
    with workspace(f"pipeline-{seed}-") as work:
        scene, spec_path, opts_path = prepare_pipeline(work, seed, smoke)
        cli = Cli(work, ledger, tracer, speed)
        closed_loop(SETUP_SHARE * seconds, lambda: cli("synth", "--spec", spec_path, "--out-dir", scene),
                    speed, SETUP_MIN_REPEATS)
        setups = list(cli.timings)
        opts = flows.SolverOptions(**json.loads(opts_path.read_text()))
        solve_times, result, q = solve_inprocess(load_scene(scene), opts, PIPELINE_SOLVE_REPEATS, ledger,
                                                 tracer, speed)
        passes = closed_loop(seconds - (time.perf_counter() - start), lambda: pipeline_pass(
            cli, scene, work, opts_path, seed, result.flow, MORPH_REPEATS, ledger, tracer), speed)
        speed.finish()
    pass_timings = []
    for p in passes:
        wall = sum(t.wall for t in p["pieces"])
        pass_timings.append(Timing(0.0, wall=wall, scale=sum(t.s for t in p["pieces"]) / wall))
    times, extras = time_metrics({"setup_s": setups, "solve_s": solve_times, "pass_s": pass_timings}, speed)
    return Outcome({**times, **q, "peak_rss_mb": peak_rss_mb()}, {
        "passes": len(passes),
        "setups": len(setups),
        **extras,
        "pipeline_s": statistics.median(p["chain_s"] for p in passes),
        "morph_s": statistics.median(p["morph_s"] for p in passes),
        "morph_share": statistics.median(MORPH_REPEATS * p["morph_s"] / t.wall
                                         for p, t in zip(passes, pass_timings)),
        "morph_chamfer_ratio": max(p["morph_chamfer_ratio"] for p in passes),
    })


def trace_pipeline(seed: int, smoke: bool, ledger: Ledger) -> Outcome:
    tracer = Tracer()
    with workspace(f"pipeline-{seed}-") as work:
        scene, spec_path, opts_path = prepare_pipeline(work, seed, smoke)
        cli = Cli(work, ledger, tracer)
        import_times = []
        for _ in range(3):
            t0 = time.perf_counter()
            proc = cli.python("-c", "import wlflow.cli")
            import_times.append(time.perf_counter() - t0)
            ledger.record("import wlflow.cli", proc.returncode == 0, proc.stderr.strip()[-400:])
        cli("synth", "--spec", spec_path, "--out-dir", scene)
        opts = flows.SolverOptions(**json.loads(opts_path.read_text()))
        gt, priors = load_scene(scene)
        (plain_s,), plain, q_plain = solve_inprocess((gt, priors), opts, 1, ledger, tracer)

        tracer.install()
        try:
            tracer.enabled = True
            _, traced, q_traced = solve_inprocess(load_scene(scene), opts, 1, ledger, tracer)
            p = pipeline_pass(cli, scene, work, opts_path, seed, traced.flow, 1, ledger, tracer)
            tracer.enabled = False
            peak_mb = soft_boundary_peak_mb(traced.flow, priors.boundary, opts.tau_schedule[-1])
        finally:
            tracer.enabled = False
            tracer.uninstall()
    ledger.record("traced flow sha256 equals untraced", digest(plain.flow) == digest(traced.flow))
    ledger.record("traced quality equals untraced", q_plain == q_traced, f"{q_plain} vs {q_traced}")
    m = layer_metrics(tracer, traced, opts, plain_s, peak_mb)
    m["cli.import_s"] = statistics.median(import_times)
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = statistics.median(cli.times[command])
    m["cli.chain.s"] = p["chain_s"]
    m["io.bytes_written"] = p["bytes_written"]
    m["boundary.morph_curve_fit.s"] = tracer.stats()["boundary.morph_curve_fit"].s
    m["boundary.morph_curve_fit.iterations"] = p["morph_iterations"]
    m["boundary.morph_curve_fit.chamfer_ratio"] = p["morph_chamfer_ratio"]
    return Outcome(m, {"pipeline_s": p["chain_s"], "morph_s": p["morph_s"],
                       "morph_chamfer_ratio": p["morph_chamfer_ratio"], **q_traced}, tracer)


WORKLOADS = ("ref128", "sparse512", "refine2", "pipeline")


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[Outcome, Ledger]:
    ledger = Ledger()
    if name == "pipeline":
        out = trace_pipeline(seed, smoke, ledger) if trace else run_pipeline(seed, seconds, smoke, ledger)
    elif trace:
        out = trace_solve(SOLVE_CASES[name], seed, smoke, ledger)
    else:
        out = run_solve(SOLVE_CASES[name], seed, seconds, smoke, ledger)
    return out, ledger

"""Names, units and directions of every metric the benchmark emits.

`run.py` emits exactly END_TO_END with ``--trace 0`` and exactly PER_LAYER
with ``--trace 1``; the smoke mode checks both against BENCHMARK.json.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "epe_mean": ("px", "lower"),
    "hard_final": ("1", "lower"),
    "edge_chamfer": ("px", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed beside the metrics but not gated: loop counts, the speed factor and
# the raw wall times behind the scaled setup_s, solve_s and pass_s, workload-specific
# figures (the pipeline_s and morph_* entries apply to `pipeline` only) and the
# traced run's quality numbers. On `pipeline`, pass_s gates the CLI chain and
# the morph fits together (morph_share is the fits' part of it); the morph
# ratio is a correctness check.
EXTRAS = {
    "passes": "count",
    "setups": "count",
    "speed_factor": "ratio",
    "calibrations": "count",
    "wall_setup_s": "s",
    "wall_solve_s": "s",
    "wall_pass_s": "s",
    "pipeline_s": "s",
    "morph_s": "s",
    "morph_share": "ratio",
    "morph_chamfer_ratio": "ratio",
    "epe_mean": "px",
    "hard_final": "1",
    "edge_chamfer": "px",
}

# The CLI commands of the pipeline chain, in the order they run.
DECOMPOSE_METHODS = ("mask-mean", "homography", "head", "translation")
CLI_COMMANDS = (
    "synth", "solve", "metrics", "eval", "eval-local",
    *(f"decompose-{m}" for m in DECOMPOSE_METHODS),
    "edges", "chamfer-exact", "chamfer-patch", "render",
)

# Per-layer metrics the benchmark counts itself; every other metric named
# after a traced module reads the span of the function its name gives.
COUNTERS = ("flows.solve.", "io.bytes_written")

PER_LAYER = {
    "synth.generate_scene.s": ("s", "lower"),
    "flows.Priors.build.s": ("s", "lower"),
    "skeleton.match_all.s": ("s", "lower"),
    "boundary.soft_boundary_constraint.calls": ("count", "lower"),
    "boundary.soft_boundary_constraint.s": ("s", "lower"),
    "boundary.soft_boundary_constraint.ms_per_call": ("ms", "lower"),
    "boundary.soft_boundary_constraint.peak_mb": ("MB", "lower"),
    "boundary.build_patch_grid.calls": ("count", "lower"),
    "boundary.build_patch_grid.s": ("s", "lower"),
    "flows.joint_objective.calls": ("count", "lower"),
    "flows.joint_objective.s": ("s", "lower"),
    "boundary.extract_flow_edges.s": ("s", "lower"),
    "boundary.multiscale_patch_distance.s": ("s", "lower"),
    "kinematics.skeleton_constraint.s": ("s", "lower"),
    "kinematics.smooth_skeleton_constraint.calls": ("count", "lower"),
    "kinematics.smooth_skeleton_constraint.s": ("s", "lower"),
    "flows.solve_world_flow.s": ("s", "lower"),
    "flows.solve_world_flow.self_s": ("s", "lower"),
    "flows.solve_world_flow.cpu_s": ("s", "lower"),
    "flows.solve.iterations": ("count", "lower"),
    "flows.solve.iterations_phase0": ("count", "lower"),
    "flows.solve.iterations_phase1": ("count", "lower"),
    "flows.solve.iterations_phase2": ("count", "lower"),
    "flows.solve.evals": ("count", "lower"),
    "flows.solve.accept_ratio": ("ratio", "higher"),
    "boundary.morph_curve_fit.s": ("s", "lower"),
    "boundary.morph_curve_fit.iterations": ("count", "lower"),
    "boundary.morph_curve_fit.chamfer_ratio": ("ratio", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"cli.{c}.s": ("s", "lower") for c in CLI_COMMANDS},
    "cli.chain.s": ("s", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

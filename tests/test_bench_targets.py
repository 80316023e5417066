"""Every library name the traced benchmark wraps still exists, and the solver
still calls the ones it counts.

perfbench/tracer.py lists the public functions it wraps in TARGETS and raises
MissingTarget at bench time when one is gone. This test reads that list from
the file's source, without running it, and resolves each name the same way,
so a deletion or rename fails here first. The traced bench wraps names by
swapping module attributes and reads the solver's evaluation count from the
calls to `kinematics.smooth_skeleton_constraint`, so the solver must reach
both surrogate terms through those attributes, once per evaluation. The
pipeline workload runs `wlflow decompose` once per name in
perfbench/metrics.py's DECOMPOSE_METHODS, which must stay the library's and
the CLI's list of subject motion methods.
"""

import argparse
import ast
import importlib
from collections import Counter
from pathlib import Path

from wlflow import boundary, cli, flows, kinematics, skeleton
from wlflow.core import FlowMap, Hyperparams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _constant(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} defines no {name}")


def _choices(command: str, dest: str):
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return next(a.choices for a in commands[command]._actions if a.dest == dest)


def test_benchmark_library_and_cli_share_the_motion_methods():
    methods = _constant(PERFBENCH / "metrics.py", "DECOMPOSE_METHODS")
    assert methods == flows.MOTION_METHODS == tuple(_choices("decompose", "method"))
    assert sorted(_choices("eval", "align")) == sorted(skeleton.ALIGN_METHODS) == sorted(methods[1:])


def test_every_traced_target_resolves():
    missing = []
    for mod_name, names in _constant(TRACER, "TARGETS").items():
        module = importlib.import_module(f"wlflow.{mod_name}")
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner) or not callable(getattr(owner, attr)):
                missing.append(f"{mod_name}.{dotted}")
    assert missing == []


def test_solver_calls_each_surrogate_term_through_its_module_once_per_evaluation(
        small_truth, small_priors, monkeypatch):
    """A 30-iteration zero-init solve of the 64x64 scene makes 64 evaluations,
    as before the descent moved onto the solve box, and each calls both
    public surrogate terms once, through their module attributes."""
    calls = Counter()
    for module, name in ((kinematics, "smooth_skeleton_constraint"), (boundary, "soft_boundary_constraint"),
                         (flows, "_surrogate")):
        def counting(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    zero = FlowMap.zeros(small_truth.mask_t.width, small_truth.mask_t.height)
    res = flows.solve_world_flow(zero, small_priors, Hyperparams(), flows.SolverOptions(max_iters=30))
    assert len(res.trace) == 30
    assert calls == {"_surrogate": 64, "smooth_skeleton_constraint": 64, "soft_boundary_constraint": 64}

"""In-memory span recorder that wraps wlflow's public functions from outside.

Wrapping works by replacing the attribute on the library module. wlflow looks
these names up at call time (``flows`` calls ``bnd.soft_boundary_constraint``,
``boundary`` calls its own module globals), so every call goes through the
wrapper while the library source stays untouched. A target that no longer
exists raises ``MissingTarget`` at install time, so a rename cannot silently
zero a layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass

# Public functions of the modules that do work, by module. `core` and
# `errors` hold only types; `cli` runs in subprocesses and is timed around
# each command instead.
TARGETS = {
    "synth": (
        "generate_scene", "trace_boundary", "scaled_lengths", "single_figure_scene",
        "random_scene",
    ),
    "skeleton": (
        "interpolate_skeleton", "skeleton_offsets", "match_body_point", "match_all",
        "concat_points", "concat_offsets", "assign_subjects", "fit_alignment",
        "aligned_offsets",
    ),
    "kinematics": (
        "angular_term", "intensity_term", "skeleton_constraint", "smooth_skeleton_constraint",
    ),
    "boundary": (
        "extract_flow_edges", "auto_intensity_threshold", "exact_chamfer", "build_patch_grid",
        "patch_centroid_distance", "multiscale_patch_distance", "boundary_constraint",
        "soft_boundary_constraint", "morph_curve_fit",
    ),
    "flows": (
        "Priors.build", "joint_objective", "solve_world_flow",
        "estimate_subject_motion", "subject_motion_field", "decompose_local", "endpoint_error",
    ),
    "io": (
        "write_flo", "read_flo", "write_keypoints", "read_keypoints", "write_mask", "read_mask",
        "write_grayscale", "write_points", "read_points", "flow_to_rgb", "render_flow",
        "sha256_of", "hyperparams_from_json",
    ),
}


class MissingTarget(RuntimeError):
    """A wrapped public name no longer exists in the library."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    cpu_s: float
    parent: int  # index of the enclosing span, -1 at top level


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0


class Tracer:
    """Records one span per wrapped call while enabled."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, time.process_time(), parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.cpu_s = time.process_time() - span.cpu_s
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Swap every attribute in TARGETS for a recording wrapper."""
        missing = []
        plan = []
        for mod_name, names in TARGETS.items():
            module = importlib.import_module(f"wlflow.{mod_name}")
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or attr not in vars(owner):
                    missing.append(f"{mod_name}.{dotted}")
                    continue
                plan.append((owner, attr, vars(owner)[attr], f"{mod_name}.{dotted}"))
        if missing:
            raise MissingTarget("traced names no longer exist: " + ", ".join(missing))
        for owner, attr, original, name in plan:
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            elif callable(original):
                replacement = self._wrap(name, original)
            else:
                raise MissingTarget(f"traced name {name} is not callable")
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def stats(self, within: str | None = None) -> dict[str, LayerStats]:
        """Calls, inclusive, self and CPU time per span name.

        With `within`, only spans nested under a span of that name count.
        Self time is a span's duration minus the time its direct children
        cover.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        keep = None
        if within is not None:
            keep = [False] * len(self.spans)
            for i, span in enumerate(self.spans):
                p = span.parent
                keep[i] = p >= 0 and (keep[p] or self.spans[p].name == within)
        out: dict[str, LayerStats] = {}
        for i, span in enumerate(self.spans):
            if keep is not None and not keep[i]:
                continue
            st = out.setdefault(span.name, LayerStats())
            st.calls += 1
            st.s += span.end - span.start
            st.self_s += span.end - span.start - child_time[i]
            st.cpu_s += span.cpu_s
        return out

    def write(self, path) -> None:
        """Write the spans as JSON, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        doc = []
        for span in self.spans:
            rec = asdict(span)
            rec["start"] -= t0
            rec["end"] -= t0
            doc.append(rec)
        with open(path, "w") as f:
            json.dump(doc, f)

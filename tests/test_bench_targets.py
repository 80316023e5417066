"""Every library name the traced benchmark wraps still exists.

perfbench/tracer.py lists the public functions it wraps in TARGETS and raises
MissingTarget at bench time when one is gone. This test reads that list from
the file's source, without running it, and resolves each name the same way,
so a deletion or rename fails here first.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


def test_every_traced_target_resolves():
    missing = []
    for mod_name, names in _targets().items():
        module = importlib.import_module(f"wlflow.{mod_name}")
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner) or not callable(getattr(owner, attr)):
                missing.append(f"{mod_name}.{dotted}")
    assert missing == []

"""Every module-level import of the package and of its tests is used."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = sorted([*(_ROOT / "src" / "wlflow").glob("*.py"), *(_ROOT / "tests").glob("*.py")])


def _unused_imports(source: str) -> list:
    """(line, name) of each name a module-level import binds that the module
    never reads; a name listed in `__all__` counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:  # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport os.path as osp\nimport sys\nsys.exit()\n"
    assert _unused_imports(source) == [(2, "os"), (3, "osp")]
    assert _unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: str(p.relative_to(_ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []

"""Every module-level import in the package is used or re-exported."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parent.parent / "src" / "oplab").glob("*.py")
    if path.name != "__init__.py"
)


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module's top-level imports, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _dead_imports(tree: ast.Module) -> dict[str, int]:
    """Imported names that are neither referenced nor in __all__."""
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return {name: line for name, line in _imported(tree).items() if name not in kept}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_imports(path):
    dead = _dead_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not dead, f"{path.name}: unused imports {dead}"


def test_the_check_sees_a_dead_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n__all__ = ['gcd']\n")
    assert set(_dead_imports(tree)) == {"os", "lcm"}

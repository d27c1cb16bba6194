"""Every name a package module imports is used there, and package-internal
imports sit at the module top.

Names listed in a module's `__all__` count as used, and so does everything
the package `__init__` imports, since that is the package's public surface.
"""

import ast
from pathlib import Path

import pytest

import majorminor

PACKAGE = Path(majorminor.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def imports_inside_functions(path: Path) -> list[str]:
    """`from .x import ...` statements in a function body; the module graph
    has no cycle that would need one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} from {'.' * node.level}{node.module or ''}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_imports_at_module_top(path):
    assert imports_inside_functions(path) == []

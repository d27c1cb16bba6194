"""Every name a package or test module imports is used there,
package-internal imports sit at the module top, and every top-level name of
the package, and every method and property of its classes, is used by the
package.

For the imports, names listed in a module's `__all__` count as used, and so
does everything the package `__init__` imports, since that is the package's
public surface.  For the top-level names and the methods, neither counts: a
function or a method that only tests call is dead code.  Methods are matched
by name: any attribute of that name, or a string of it passed to `getattr`,
reads them; dunder methods are called by Python and are left out.
"""

import ast
from pathlib import Path

import pytest

import majorminor

PACKAGE = Path(majorminor.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


# Unreached names that stay, each until the change named beside it.
UNREACHED_ALLOWED = {
    # bench/spans.py wraps its bindings; it goes with the benchmark change
    # (ROADMAP item 1)
    "recover_phi_bar",
    # the one-step helper the loop no longer calls; bench/spans.py binds its
    # span to it until that span is re-pointed (ROADMAP item 1)
    "extragradient_step",
    # to be wired into `verify` in a change that records the benchmark
    # reference again (ROADMAP item 7)
    "check_monotonicity_propagation",
}


def defined_name(stmt: ast.stmt) -> str | None:
    """The function, class or constant a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    target = stmt.targets[0] if isinstance(stmt, ast.Assign) else getattr(stmt, "target", None)
    return target.id if isinstance(target, ast.Name) else None


def methods(stmt: ast.stmt) -> list[str]:
    """The methods and properties a top-level class statement defines, as
    `Class.name`, dunder methods left out."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [
        f"{stmt.name}.{node.name}"
        for node in stmt.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def references(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, imports, looks up as attributes or passes
    to `getattr` as a string."""
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
        ):
            found.add(node.args[1].value)
    return found


def unreached_names() -> list[str]:
    """Top-level names that no statement of the package reads, apart from
    their own definitions, `__all__` and the package `__init__`, and the
    methods and properties of package classes whose name no statement of
    the package reads."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    found_methods: list[str] = []
    for path in MODULES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            name = defined_name(stmt)
            if name == "__all__":
                continue
            if name is not None:
                defined[name] = path.name
            found_methods += [f"{path.name}:{method}" for method in methods(stmt)]
            if path.name != "__init__.py":
                used |= references(stmt) - {name}
    unreached = [f"{module}:{name}" for name, module in defined.items() if name not in used | UNREACHED_ALLOWED]
    unreached += [m for m in found_methods if m.rsplit(".", 1)[1] not in used]
    return sorted(unreached)


# The stacked evaluation, the stacked solve and the budget that sizes the
# stacks: `run_lockstep` is the one stacked path, so only its module reads them.
STACKING = {"evaluate_many", "solve_stacked", "LOCKSTEP_BYTES"}


def test_only_extragradient_reads_the_stacking_names():
    found = [
        f"{path.name}: {name}"
        for path in MODULES
        if path.name != "extragradient.py"
        for name in sorted(references(ast.parse(path.read_text(), filename=str(path))) & STACKING)
    ]
    assert found == []


def test_every_top_level_name_is_reached_by_the_package():
    assert unreached_names() == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=[p.name for p in MODULES + TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_imports_at_module_top(path):
    assert imports_inside_functions(path) == []

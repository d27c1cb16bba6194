"""Every name a package or test module imports is used there, every name
in a package module's `__all__` is bound in it, package-internal imports sit
at the module top, and every top-level name of the package, and every method
and property of its classes, is used by the package.

For the imports, names listed in a module's `__all__` count as used, and so
does everything the package `__init__` imports, since that is the package's
public surface.  For the top-level names and the methods, neither counts,
nor does an import that only feeds `__all__`: a function or a method that
only tests call, or that a module only re-exports, is dead code.  Methods are matched
by name: an attribute load of that name, or a string of it passed to
`getattr`, reads them, and a bare name of it does not; dunder methods are
called by Python and are left out.
"""

import ast
import importlib
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
    # the one-step helper the loop no longer calls; bench/spans.py binds its
    # span to it until that span is re-pointed (ROADMAP item 1)
    "extragradient_step",
    # read by bench/spans.py's `_solve_info` and by the solver tests; it goes
    # with the benchmark change that stops `_solve_info` reading it (ROADMAP
    # item 1)
    "SolveOutput.theta_F",
    # to be wired into `verify` in a change that records the benchmark
    # reference again (ROADMAP item 7)
    "check_monotonicity_propagation",
    # the beta*(T - s) schedule of `check_monotonicity_propagation`, wired in
    # with it (ROADMAP item 7)
    "ThresholdReport.beta_star",
    # the reference least-squares fit that the solver's batched fits are
    # tested against; no package path calls it, and `extragradient`
    # re-exports it only because bench/spans.py wraps that binding (ROADMAP
    # item 1)
    "regress_conditional",
    # Picard run alone: the sweep runs `picard_plan` in its lockstep, and
    # `cli` re-exports this only because bench/spans.py wraps that binding;
    # it goes when the benchmark counts Picard sweeps from the plan (ROADMAP
    # item 1)
    "picard_solve",
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


def attribute_reads(stmt: ast.stmt) -> set[str]:
    """Names a statement loads as attributes or passes to `getattr` as a
    string: the reads of a method."""
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
        ):
            found.add(node.args[1].value)
    return found


def references(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, imports, loads as attributes or passes to
    `getattr` as a string."""
    found = attribute_reads(stmt)
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unreached_names(allowed=UNREACHED_ALLOWED) -> list[str]:
    """Top-level names that no statement of the package reads, apart from
    their own definitions, `__all__`, the package `__init__` and the imports
    that only re-export them, and the methods and properties of package
    classes whose name no statement of the package reads as an attribute;
    the `allowed` ones left out."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    attributes: set[str] = set()
    found_methods: list[str] = []
    for path in MODULES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            name = defined_name(stmt)
            if name == "__all__":
                continue
            if name is not None:
                defined[name] = path.name
            found_methods += [f"{path.name}:{method}" for method in methods(stmt)]
            # an import is read where its module loads the name, so one that
            # only feeds `__all__` reads nothing
            if path.name != "__init__.py" and not isinstance(stmt, ast.ImportFrom):
                used |= references(stmt) - {name}
                attributes |= attribute_reads(stmt)
    unreached = [f"{module}:{name}" for name, module in defined.items() if name not in used | allowed]
    unreached += [
        m for m in found_methods if m.rsplit(".", 1)[1] not in attributes and m.split(":", 1)[1] not in allowed
    ]
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


def test_every_allowed_name_is_defined_and_still_unreached():
    # an entry whose name was deleted, or is read again, outlives its reason
    unreached = {entry.split(":", 1)[1] for entry in unreached_names(allowed=frozenset())}
    assert sorted(UNREACHED_ALLOWED - unreached) == []


def test_a_bare_name_does_not_read_a_method():
    # a local variable named like a method leaves the method unread
    stmt = ast.parse("def f(report):\n    beta_star = 1.0\n    return report.sigma0_at(beta_star)").body[0]
    assert attribute_reads(stmt) == {"sigma0_at"}


@pytest.mark.parametrize("path", MODULES + TESTS, ids=[p.name for p in MODULES + TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_all_name_is_bound(path):
    # `test_no_unused_imports` counts `__all__` names as used, so a stale or
    # misspelled entry would pass it and break `from ... import *`
    name = "majorminor" if path.name == "__init__.py" else f"majorminor.{path.stem}"
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_imports_at_module_top(path):
    assert imports_inside_functions(path) == []

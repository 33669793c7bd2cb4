"""Every name the package exports, every method and field of its classes
and every UPPER_CASE module constant is reached from the package or the
benchmark, not only from tests: a helper that only tests call is an oracle
and belongs in ``tests/``, and a field or constant that only tests read is
dead weight."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twometric"
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
# The README's quick-start example: it is there for readers, and no module
# of the package calls it.
EXEMPT = {"demo_five_point_space"}


def exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def methods() -> set[str]:
    """The names of the non-dunder methods defined in the package's classes."""
    return {f.name for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (f.name.startswith("__") and f.name.endswith("__"))}


def fields() -> set[str]:
    """The names of the annotated fields declared in the package's classes."""
    return {f.target.id for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)}


def constants() -> set[str]:
    """The UPPER_CASE names assigned at the top level of the package's
    modules."""
    return {t.id for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name) and t.id.isupper()}


def reads(path: Path) -> list[tuple[str, frozenset, bool]]:
    """Each name a module reads, as a name or an attribute, with the names
    of the defs and classes around the read and whether it is an attribute
    that is loaded (an assignment to a name does not read it, nor does one
    to an attribute)."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, inside, False))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, inside, isinstance(node.ctx, ast.Load)))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def unreached(names: set[str], found) -> list[str]:
    """The names no read reaches.  A read counts when it is outside the
    definition of the name read and outside the definition of every name
    no other read reaches, so a name that only unreached definitions read
    is unreached too."""
    missing: set[str] = set()
    while True:
        reached = {name for name, inside in found if name not in inside and not inside & missing}
        if names - reached == missing:
            return sorted(missing)
        missing = names - reached


def test_every_export_is_read_outside_its_own_definition():
    found = [(name, inside) for path in MODULES for name, inside, _ in reads(path)]
    assert unreached(exported() - EXEMPT, found) == []


def test_every_method_is_read_as_an_attribute_outside_its_own_definition():
    """Methods by the rule of the export check, with attribute reads only.

    Reads match by name, not by class: a method counts as read wherever an
    attribute of its name is read.  So the check cannot see a method that
    shares its name with a reached attribute, such as a ``contains`` or an
    ``as_space`` that only tests call next to ``TwoMetricSpace.contains``
    and ``FiniteTwoMetricSpace.as_space``.
    """
    found = [(name, inside) for path in MODULES
             for name, inside, attribute in reads(path) if attribute]
    assert unreached(methods(), found) == []


def test_every_field_is_read_as_an_attribute():
    """Annotated class fields by the rule of the method check: each must be
    loaded as an attribute somewhere in the package or the benchmark.

    Reads match by name, not by class, as in the method check: a field
    counts as read wherever an attribute of its name is loaded, so a field
    that shares its name with an attribute read elsewhere, such as a
    ``points`` or a ``name``, passes whatever reads it.  Passing a field to
    a constructor by keyword is not a read.
    """
    found = [(name, inside) for path in MODULES
             for name, inside, attribute in reads(path) if attribute]
    assert unreached(fields(), found) == []


def test_every_module_constant_is_read_outside_its_own_definition():
    """UPPER_CASE module constants by the rule of the export check: each
    must be read, as a name or an attribute, in the package or the
    benchmark.  A constant that only tests read belongs in the tests."""
    found = [(name, inside) for path in MODULES for name, inside, _ in reads(path)]
    assert unreached(constants(), found) == []

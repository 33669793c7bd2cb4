"""Every name the package exports is reached from the package or the
benchmark, not only from tests: a helper that only tests call is an
oracle and belongs in ``tests/``."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The README's quick-start example: it is there for readers, and no module
# of the package calls it.
EXEMPT = {"demo_five_point_space"}


def exported() -> set[str]:
    tree = ast.parse((ROOT / "src" / "twometric" / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def reads(path: Path) -> list[tuple[str, frozenset]]:
    """Each name a module reads, as a name or an attribute, with the names
    of the defs and classes around the read."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            found.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_export_is_read_outside_its_own_definition():
    """A read counts when it is outside the definition of the name read
    and outside the definition of every export no other read reaches, so
    a class that only an unreached function builds is unreached too."""
    modules = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    found = [read for path in modules for read in reads(path)]
    unreached: set[str] = set()
    while True:
        reached = {name for name, inside in found
                   if name not in inside and not inside & unreached}
        missing = exported() - reached - EXEMPT
        if missing == unreached:
            break
        unreached = missing
    assert sorted(unreached) == []

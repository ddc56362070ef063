"""Every public function and class is used by the package itself, and every
field of a public dataclass is read by it.

A name in ``matprod.__all__`` counts as used when some module under
``src/matprod`` other than ``__init__.py`` refers to it (as a name or an
attribute) outside the ``def`` or ``class`` statement that defines it.
Imports and docstrings do not count.

A field of a public dataclass counts as read when such a module loads an
attribute of that name.  Attribute names are not tied to their types, so a
field that shares its name with another read attribute (``trials``, say)
passes unread: the field test is a lower bound on what the package reads.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import matprod

# Public names that the package does not use yet, each with its reason: a
# function nothing calls, or a dataclass whose fields nothing reads.
ALLOWED_UNUSED = {
    # the reference value of acceptance criterion 10; a CLI column is planned
    "zero_event_probability",
    "ZeroEventEstimate",
    # the predicted column of the planned per-layer table (`simulate --per-layer`)
    "predict_layer_variance",
}

PACKAGE = Path(matprod.__file__).parent


def references_outside_own_definition(tree: ast.Module) -> set[str]:
    """Names and attributes referred to anywhere in the module, where a
    reference inside a def/class counts unless it names that def/class."""
    found: set[str] = set()

    def visit(node: ast.AST, defining: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(name, str) and name not in defining:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return found


def package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield ast.parse(path.read_text())


def public(predicate) -> set[str]:
    return {name for name in matprod.__all__ if predicate(getattr(matprod, name))}


def test_every_public_name_is_used_by_the_package():
    used: set[str] = set()
    for tree in package_trees():
        used |= references_outside_own_definition(tree)
    functions = public(lambda v: inspect.isfunction(v) or inspect.isclass(v))
    allowed_functions = ALLOWED_UNUSED - public(dataclasses.is_dataclass)
    assert ALLOWED_UNUSED <= functions
    assert sorted(functions - used - allowed_functions) == []
    assert sorted(allowed_functions & used) == []


def test_every_public_dataclass_field_is_read_by_the_package():
    read = {
        node.attr
        for tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {}
    for name in public(dataclasses.is_dataclass):
        fields = [f.name for f in dataclasses.fields(getattr(matprod, name)) if f.name not in read]
        if fields:
            unread[name] = fields
    allowed = ALLOWED_UNUSED & public(dataclasses.is_dataclass)
    assert {name: fields for name, fields in unread.items() if name not in allowed} == {}
    assert sorted(allowed - set(unread)) == []

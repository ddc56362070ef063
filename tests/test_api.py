"""Every public function and class is used by the package itself, every
field of a public dataclass is read by it, and every defaulted parameter of
a public function is passed by one of its calls.

A name in ``matprod.__all__`` counts as used when some module under
``src/matprod`` other than ``__init__.py`` refers to it (as a name or an
attribute) outside the ``def`` or ``class`` statement that defines it.
Imports and docstrings do not count.

A field of a public dataclass counts as read when such a module loads an
attribute of that name.  Attribute names are not tied to their types, so a
field that shares its name with another read attribute (``trials``, say)
passes unread: the field test is a lower bound on what the package reads.

A defaulted parameter counts as passed when some call under ``src/matprod``
of a name or attribute spelled like its function gives it by keyword, or
reaches its position with positional arguments; a ``*args`` or ``**kwargs``
argument counts as passing every parameter it could reach.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import matprod

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


def passed_parameters(function) -> set[str]:
    """Defaulted parameters of ``function`` that some package call passes."""
    params = list(inspect.signature(function).parameters.values())
    positional = [
        p.name for p in params
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    passed: set[str] = set()
    for tree in package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name != function.__name__:
                continue
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                passed.update(positional)
            else:
                passed.update(positional[: len(node.args)])
            for keyword in node.keywords:
                if keyword.arg is None:
                    passed.update(p.name for p in params)
                else:
                    passed.add(keyword.arg)
    return passed


def test_every_public_name_is_used_by_the_package():
    used: set[str] = set()
    for tree in package_trees():
        used |= references_outside_own_definition(tree)
    functions = public(lambda v: inspect.isfunction(v) or inspect.isclass(v))
    assert sorted(functions - used) == []


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
    assert unread == {}


def test_every_defaulted_parameter_is_passed_by_the_package():
    unpassed = []
    defaulted = 0
    for name in sorted(public(inspect.isfunction)):
        function = getattr(matprod, name)
        passed = passed_parameters(function)
        for param in inspect.signature(function).parameters.values():
            if param.default is not param.empty:
                defaulted += 1
                if param.name not in passed:
                    unpassed.append(f"{name}.{param.name}")
    assert defaulted > 0
    assert unpassed == []

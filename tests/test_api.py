"""Every public function and class is used by the package itself.

A name in ``matprod.__all__`` counts as used when some module under
``src/matprod`` other than ``__init__.py`` refers to it (as a name or an
attribute) outside the ``def`` or ``class`` statement that defines it.
Imports and docstrings do not count.
"""

import ast
import inspect
from pathlib import Path

import matprod

# Public names that nothing in the package calls yet, each with its reason.
ALLOWED_UNUSED = {
    # the reference value of acceptance criterion 10; a CLI column is planned
    "zero_event_probability",
    # the predicted column of the planned per-layer table (`simulate --per-layer`)
    "predict_layer_variance",
}


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


def test_every_public_name_is_used_by_the_package():
    package = Path(matprod.__file__).parent
    used: set[str] = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            used |= references_outside_own_definition(ast.parse(path.read_text()))
    public = {
        name
        for name in matprod.__all__
        if inspect.isfunction(getattr(matprod, name)) or inspect.isclass(getattr(matprod, name))
    }
    assert ALLOWED_UNUSED <= public
    assert sorted(public - used - ALLOWED_UNUSED) == []
    assert sorted(ALLOWED_UNUSED & used) == []

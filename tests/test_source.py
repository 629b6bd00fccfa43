"""The package carries no dead code.

For every module of ``geocalc`` but ``__init__``, the source is parsed with
``ast``; the suite fails on an import whose bound name is never used again
in its module, on a private (``_x``, not dunder) function or class, defined
at module or class level, whose name is used nowhere in the package, on a
private constant, a name bound by a module-level assignment, that no
module of the package reads, and on a public method of the model contracts
(``EnergyModel``, ``ConstraintModel``) that no module of the package reads.
A use is a name read or an attribute in the parsed code, so a mention in a
docstring or a comment does not count.
"""

import ast
from pathlib import Path

import pytest

import geocalc
from geocalc import ConstraintModel, EnergyModel

PACKAGE = Path(geocalc.__file__).parent
TREES = {path.name: ast.parse(path.read_text(), path.name) for path in sorted(PACKAGE.glob("*.py"))}
MODULES = sorted(set(TREES) - {"__init__.py"})


def _uses(tree):
    """The names a parsed module reads, and its attribute names."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """Private functions and classes at module level or in a module-level class."""
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _private(node.name):
                    yield node.name


def _private_constants(tree):
    """Private names bound by a module-level assignment."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name) and _private(name.id))


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = TREES[module]
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert not sorted(set(bound) - _uses(tree)), f"unused imports in {module}"


@pytest.mark.parametrize("module", MODULES)
def test_every_private_helper_is_used(module):
    used = set().union(*(_uses(tree) for tree in TREES.values()))
    assert not sorted(set(_private_definitions(TREES[module])) - used), f"unused private helpers in {module}"


@pytest.mark.parametrize("module", MODULES)
def test_every_private_constant_is_read(module):
    read = set().union(*(_uses(tree) for tree in TREES.values()))
    assert not sorted(set(_private_constants(TREES[module])) - read), f"unread private constants in {module}"


@pytest.mark.parametrize("contract", [EnergyModel, ConstraintModel], ids=lambda cls: cls.__name__)
def test_every_public_model_method_is_read(contract):
    read = set().union(*(_uses(tree) for tree in TREES.values()))
    methods = {name for name, value in vars(contract).items() if callable(value) and not name.startswith("_")}
    assert methods and not sorted(methods - read), f"unread methods of {contract.__name__}"

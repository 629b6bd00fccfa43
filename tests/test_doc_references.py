"""Every name the docs cite still exists.

A ``module.name`` reference in the docstrings and comments of geocalc or
of these tests, or a `module.name` one in the README, where module is one
of geocalc's modules, must name an attribute of that module; a ``_name`` in
a module's own docstrings and comments must name an attribute of that
module or of one of its classes.  So a kernel that is merged or deleted
cannot stay named in the docs.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import geocalc

SRC = Path(geocalc.__file__).resolve().parent
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FILES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
MODULES = {path.stem for path in FILES} - {"__init__"}


def _module(path):
    return importlib.import_module("geocalc" if path.stem == "__init__" else f"geocalc.{path.stem}")


def _doc_text(path):
    """The docstrings and comments of one source file."""
    source = path.read_text(encoding="utf-8")
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, kinds)]
    docs = [ast.get_docstring(node, clean=False) or "" for node in nodes]
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return "\n".join(docs + [tok.string for tok in tokens if tok.type == tokenize.COMMENT])


def test_module_references_name_existing_attributes():
    refs = [
        (path.name, module, name)
        for path in FILES + TESTS
        for module, name in re.findall(r"``(\w+)\.(\w+)``", _doc_text(path))
        if module in MODULES
    ]
    refs += [("README.md", m, n) for m, n in re.findall(r"(?<![\w.`])`(\w+)\.(\w+)`(?!`)", README) if m in MODULES]
    missing = [f"{where}: {m}.{n}" for where, m, n in refs if not hasattr(importlib.import_module(f"geocalc.{m}"), n)]
    assert refs
    assert not missing


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_private_names_in_a_module_name_its_attributes(path):
    module = _module(path)
    classes = [value for value in vars(module).values() if isinstance(value, type)]
    names = set(re.findall(r"(?<![\w.])``(_\w+)``", _doc_text(path)))
    missing = [name for name in sorted(names) if not any(hasattr(owner, name) for owner in [module, *classes])]
    assert not missing

"""Every name the package exports has a caller outside its own definition."""

import ast
import re
from pathlib import Path

import pytest

import torusflow

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(
    [p for p in (ROOT / "src" / "torusflow").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "bench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"])
README = (ROOT / "README.md").read_text()


def _loads(node, inside=(), found=None):
    """Map each loaded name or attribute under node to the names of the
    defs and classes around each of its uses."""
    found = {} if found is None else found
    if isinstance(node, ast.Name):
        found.setdefault(node.id, []).append(inside)
    elif isinstance(node, ast.Attribute):
        found.setdefault(node.attr, []).append(inside)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        inside = inside + (node.name,)
    for child in ast.iter_child_nodes(node):
        _loads(child, inside, found)
    return found


LOADS = {p.name: _loads(ast.parse(p.read_text())) for p in CALLERS}


@pytest.mark.parametrize("name", torusflow.__all__)
def test_export_has_a_caller(name):
    callers = [f for f, found in LOADS.items()
               if any(name not in inside for inside in found.get(name, ()))]
    if re.search(rf"\b{re.escape(name)}\b", README):
        callers.append("README.md")
    assert callers, f"{name} is exported, but nothing outside its own " \
                    "definition uses it"

"""Nothing under src/ or tests/ imports scipy: it is not a dependency."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _scipy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name == "scipy" or name.startswith("scipy."):
                yield node.lineno, name


def test_the_scan_sees_both_import_forms():
    tree = ast.parse("import os, scipy.stats\nfrom scipy import linalg\n"
                     "from .scipy import x\nimport scipyx\n")
    assert list(_scipy_imports(tree)) == [(1, "scipy.stats"), (2, "scipy")]


def test_no_module_imports_scipy():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files
             for line, name in _scipy_imports(ast.parse(path.read_text()))]
    assert not found, found

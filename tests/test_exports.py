"""Every name the package exports has a caller outside its own definition,
every option some call passes, and no frozen object is set after creation."""

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


CALL_SITES = [p for top in ("src", "bench", "tests")
              for p in sorted((ROOT / top).rglob("*.py"))]


def _name(node):
    """Name of a called or decorating expression, plain or attribute."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(
        node, "attr", None)


def _options():
    """(callee, position after self or None, option) of every defaulted
    parameter of a public function or method, and every defaulted field of
    a public dataclass, under src/torusflow/."""
    found = []

    def params(fn, method):
        args = fn.args
        pos = (args.posonlyargs + args.args)[int(method):]
        first = len(pos) - len(args.defaults)
        found.extend((fn.name, i, a.arg)
                     for i, a in enumerate(pos) if i >= first)
        found.extend((fn.name, None, a.arg)
                     for a, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None)

    for path in sorted((ROOT / "src" / "torusflow").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                params(node, method=False)
            elif isinstance(node, ast.ClassDef):
                if any(_name(d) == "dataclass" for d in node.decorator_list):
                    fields = [s for s in node.body
                              if isinstance(s, ast.AnnAssign)]
                    found.extend((node.name, i, s.target.id)
                                 for i, s in enumerate(fields)
                                 if s.value is not None)
                for fn in node.body:
                    if (isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_")):
                        params(fn, method=True)
    return found


def _passed():
    """Callee name -> (most positional arguments of a call, keywords); a
    call with *args or **kwargs passes every option."""
    most, keywords = {}, {}
    for path in CALL_SITES:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = _name(call)
            n = len(call.args)
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                n = float("inf")
            most[name] = max(most.get(name, 0), n)
            keywords.setdefault(name, set()).update(
                k.arg for k in call.keywords)
    return most, keywords


def test_every_option_has_a_caller():
    """An option no call passes is a constant in disguise: every defaulted
    parameter and dataclass field is passed, by keyword or by position, at
    some call in src/, bench/ or tests/, matching calls by callee name."""
    most, keywords = _passed()
    unused = [f"{name}({option})" for name, i, option in _options()
              if option not in keywords.get(name, ())
              and (i is None or i >= most.get(name, 0))]
    assert not unused, f"options that no call passes: {unused}"


def test_frozen_objects_are_set_only_while_created():
    # a frozen dataclass changes by dataclasses.replace; only a Chart
    # completes its own fields, in __post_init__
    for path in sorted((ROOT / "src").rglob("*.py")):
        uses = _loads(ast.parse(path.read_text())).get("__setattr__", [])
        assert all(inside == ("Chart", "__post_init__") for inside in uses), \
            f"{path.name} calls __setattr__ outside Chart.__post_init__"


def _dataclass_fields():
    """(class, field) of every field of a public dataclass under
    src/torusflow/."""
    for path in sorted((ROOT / "src" / "torusflow").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")
                    and any(_name(d) == "dataclass"
                            for d in node.decorator_list)):
                yield from ((node.name, s.target.id) for s in node.body
                            if isinstance(s, ast.AnnAssign))


def _dumped():
    """Names of the classes whose every field src/ writes out by
    ``dataclasses.asdict``: a class passed to it by name, or one that the
    function called in its argument returns."""
    returns, dumped = {}, set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                returns.setdefault(node.name, set()).update(
                    _name(r.value) for r in ast.walk(node)
                    if isinstance(r, ast.Return)
                    and isinstance(r.value, ast.Call))
            elif (isinstance(node, ast.Call) and _name(node) == "asdict"
                  and node.args):
                dumped.add(_name(node.args[0]))
    return dumped | {c for f in dumped for c in returns.get(f, ())}


def test_every_report_field_is_read():
    """A field that nothing reads is work done on every call for no one:
    every field of a public dataclass is loaded as an attribute somewhere
    in src/, bench/ or tests/ (matched by name), unless src/ writes the
    whole object out with ``dataclasses.asdict``."""
    loaded = {node.attr for path in CALL_SITES
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    dumped = _dumped()
    unread = [f"{cls}.{field}" for cls, field in _dataclass_fields()
              if cls not in dumped and field not in loaded]
    assert not unread, f"dataclass fields that nothing reads: {unread}"

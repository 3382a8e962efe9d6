"""Every name the package exports has a user outside the tests: the library
itself, a demo or the benchmark.  Helpers only tests call live in tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lplab"


def _exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _user_lines() -> list:
    files = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "demos").rglob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    return [line for path in sorted(files) for line in path.read_text().splitlines()]


def _unused(names, lines) -> list:
    """The names no line references, a name's own def or class line aside."""
    out = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            out.append(name)
    return out


def test_the_package_exports_names():
    names = _exported_names()
    assert {"Grid", "ScaleGrid", "run_experiment"} <= set(names)


def test_every_export_has_a_user_outside_the_tests():
    assert _unused(_exported_names(), _user_lines()) == []


def test_a_name_only_its_definition_mentions_is_unused():
    lines = ["def helper(x):", "    return x", "class Thing:", "    pass",
             "y = helper_two(1)", "z = Thing()"]
    assert _unused(["helper", "Thing", "helper_two"], lines) == ["helper"]

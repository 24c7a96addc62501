"""salemtori needs nothing beyond the standard library at run time, no
certification guard is an assert that python -O would drop, and no private
helper is left without a use."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "salemtori"

LOADED = """
import sys
import salemtori.cli
print(sorted(m for m in ("mpmath", "concurrent.futures.process") if m in sys.modules))
"""

# with the entry None, every import of mpmath raises ImportError
WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None
from salemtori import cli
sys.exit(cli.main(["construct", "quad-order", "--d", "2", "--b1", "0", "--b2", "1"]))
"""


def python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def test_cli_import_loads_neither_mpmath_nor_the_process_pool():
    out = python(LOADED)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_entropy_without_mpmath():
    out = python(WITHOUT_MPMATH)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    # log(2 + sqrt(3)), from the Salem factor t^2 - 4t + 1
    assert doc["entropy"]["decimal"] == "1.316957896925"


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_no_assert_in_the_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_private_helper():
    # a module-level _function, _Class or _CONSTANT that no module of the
    # package loads, as a name or an attribute, is dead code; importing it
    # or mentioning it in a string does not count as a use
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in PACKAGE.rglob("*.py")}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = []
    for path, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [name for name in names if re.fullmatch(r"_[^_].*", name)]
            unused += [f"{path.name}:{name}" for name in private if name not in loaded]
    assert unused == []

"""salemtori needs nothing beyond the standard library at run time, computes
with no floating point, generates no code at import, no certification guard
is an assert that python -O would drop, no import, private helper or public
name is left without a use, and every name the benchmark's tracer wraps
exists."""

import ast
import inspect
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "salemtori"

# public names that no module of the package loads, and why each stays
KEPT = {
    "verify_jd": "the lattice-invariance check the README documents",
    "isolate_real_roots": "the public real-root entry point; it adds the monic guard over _real_roots",
    "lambda_interval": "the public lambda entry point, unseeded; the package's callers seed _lambda_bracket",
}

# modules a CLI process should not pay for: the oracles, the process pool,
# and the code generation and introspection behind dataclasses
LOADED = """
import sys
import salemtori.cli
names = ("mpmath", "concurrent.futures.process", "dataclasses", "inspect", "typing")
print(sorted(m for m in names if m in sys.modules))
"""

# the tables and memos built on first use, every lru_cache of the loaded
# package modules: one built at import would cost every CLI process,
# whatever command it runs
TABLES = """
import json
import sys
import salemtori.cli
sizes = {}
for name, module in list(sys.modules.items()):
    if name.partition(".")[0] == "salemtori":
        for f in vars(module).values():
            if hasattr(f, "cache_info"):
                sizes[f.__module__ + "." + f.__qualname__] = f.cache_info().currsize
print(json.dumps(sizes))
"""

# with the entry None, every import of mpmath raises ImportError
WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None
from salemtori import cli
sys.exit(cli.main(["construct", "quad-order", "--d", "2", "--b1", "0", "--b2", "1"]))
"""


def python(code, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env)


def test_cli_import_loads_neither_mpmath_nor_the_process_pool():
    # -S: site's .pth files may load typing before salemtori is imported
    out = python(LOADED, "-S")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_builds_no_table():
    out = python(TABLES)
    assert out.returncode == 0, out.stderr
    sizes = json.loads(out.stdout)
    assert {"salemtori.poly._cyclotomic_sieve", "salemtori.poly.divisors", "salemtori.salem._trace_basis"} <= set(sizes)
    assert sizes == dict.fromkeys(sizes, 0)


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


def _is_floating_point(node) -> bool:
    """An import of cmath, a call of float, or a float or complex literal."""
    if isinstance(node, ast.Import):
        return any(alias.name == "cmath" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "cmath"
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    return isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))


def test_no_floating_point_in_the_package():
    # every number the package computes is an integer or a fraction; root
    # boxes come from integer iterations, not from float seeds
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _is_floating_point(node)]
    assert found == []


def _generates_code(node) -> bool:
    """An import of dataclasses, or a call of exec or eval."""
    if isinstance(node, ast.Import):
        return any(alias.name == "dataclasses" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "dataclasses"
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval")


def test_no_code_generation_in_the_package():
    # every process imports every module, so the record classes are plain
    # classes: dataclasses would exec generated methods for each of them
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _generates_code(node)]
    assert found == []


def test_no_unused_private_helper():
    # a module-level _function, _Class or _CONSTANT that no module of the
    # package loads, as a name or an attribute, is dead code; importing it
    # or mentioning it in a string does not count as a use.  So is a public
    # one that __all__ does not list either
    import salemtori

    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in PACKAGE.rglob("*.py")}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    kept = loaded.union(salemtori.__all__)
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
            unused += [f"{path.name}:{name}" for name in names if not name.startswith("__") and name not in kept]
    assert unused == []


def test_every_import_is_loaded():
    # a name a module imports and never loads is a dead import; mentioning
    # it in a docstring does not count.  What the two __init__ files import
    # they re-export
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                unused += [f"{path.name}:{node.lineno}:{name}" for name in names if name not in loaded]
    assert unused == []


def test_every_public_name_has_a_caller_or_a_reason():
    import salemtori

    namespace = {}
    exec("from salemtori import *", namespace)
    assert [name for name in salemtori.__all__ if name not in namespace] == []
    public = {
        name
        for name in salemtori.__all__
        if not name.startswith("__") and not inspect.ismodule(getattr(salemtori, name))
    }
    # the bare names each top-level definition loads, with None for the
    # statements outside any definition
    loads = {}
    for path in PACKAGE.rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            loads.setdefault(owner, set()).update(
                sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            )
    callers = {name: {owner for owner, names in loads.items() if name in names and owner != name} for name in public}
    # a name that only dead names load is dead too
    dead = set()
    while True:
        grown = {name for name in public - KEPT.keys() if callers[name] <= dead}
        if grown == dead:
            break
        dead = grown
    assert sorted(dead) == []
    assert sorted(name for name in KEPT if name not in public or callers[name]) == []


def test_benchmark_tracer_bindings_resolve():
    # the tracer skips a missing function silently, so a renamed or deleted
    # name would drop its per-layer metric without an error
    import salemtori  # the tracer reads every module from sys.modules

    tracer = runpy.run_path(str(ROOT / "bench" / "tracer.py"))
    missing = [f"{mod}.{attr}" for mod, attr, *_ in tracer["FUNCTIONS"] if not hasattr(sys.modules[mod], attr)]
    missing += [
        f"{mod}.{cls}.{meth}"
        for mod, cls, meth, _ in tracer["METHODS"]
        if meth not in vars(getattr(sys.modules[mod], cls))
    ]
    assert missing == []
    kern = sys.modules["salemtori._kernels"]
    assert any(
        callable(value) and getattr(value, "__module__", "").startswith("salemtori._kernels.")
        for value in vars(kern).values()
    )

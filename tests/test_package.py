"""Package surface: every exported name exists and is declared once, and
the README's library example runs."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import burnback

MODULES = ["burnback"] + [f"burnback.{m.name}" for m in pkgutil.iter_modules(burnback.__path__)]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_join_the_module_exports():
    # every module but the command line declares its public names in its
    # own __all__; the package joins them in module order and spells none
    modules = [importlib.import_module(m) for m in MODULES[1:] if m != "burnback.cli"]
    joined = [n for module in modules for n in module.__all__]
    assert len(modules) == 6
    assert burnback.__all__ == joined
    assert len(set(joined)) == len(joined)
    tree = ast.parse(Path(burnback.__file__).read_text(encoding="utf-8"))
    spelled = {getattr(n, "id", None) or getattr(n, "name", None) for n in ast.walk(tree)}
    spelled |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert spelled.isdisjoint(joined)


def test_every_exported_function_has_a_caller_outside_tests():
    # a public function that only its own unit test calls is dead weight;
    # classes are exempt, as a type is used without being called
    texts = {
        path.resolve(): path.read_text(encoding="utf-8")
        for top in ("src", "demos", "tools", "perfbench")
        for path in (ROOT / top).rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
    }
    texts[ROOT / "README.md"] = (ROOT / "README.md").read_text(encoding="utf-8")
    uncalled = []
    for name in burnback.__all__:
        obj = getattr(burnback, name)
        if not inspect.isfunction(obj):
            continue
        own = Path(inspect.getfile(obj)).resolve()
        call = re.compile(rf"\b{name}\(")
        if not any(call.search(text) for path, text in texts.items() if path != own):
            uncalled.append(name)
    assert uncalled == []


def test_import_leaves_scipy_optimize_and_spatial_unloaded():
    # both cost ~16 MB of resident memory at import and nothing needs them
    code = "import sys, burnback; print([m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules])"
    src = str(Path(burnback.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_library_block_runs():
    # the README's `## Library` example, run as written
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    mesh, field = names["mesh"], names["field"]
    assert field.converged
    assert names["gx"].shape == names["gy"].shape == (mesh.n_triangles,)
    assert names["curves"].P_b.shape == (19,) and names["svg"].startswith("<?xml")
    assert names["err"].max_abs < 0.01

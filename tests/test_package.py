"""Package surface: every exported name exists."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import burnback

MODULES = ["burnback"] + [f"burnback.{m.name}" for m in pkgutil.iter_modules(burnback.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_import_leaves_scipy_optimize_and_spatial_unloaded():
    # both cost ~16 MB of resident memory at import and nothing needs them
    code = "import sys, burnback; print([m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules])"
    src = str(Path(burnback.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

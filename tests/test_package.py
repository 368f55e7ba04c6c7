"""Package surface: every exported name exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import burnback

MODULES = ["burnback"] + [f"burnback.{m.name}" for m in pkgutil.iter_modules(burnback.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

"""Public names: every export resolves and is listed once."""

import importlib
import pkgutil

import pytest

import cdplot

MODULES = ["cdplot", *(f"cdplot.{m.name}" for m in pkgutil.iter_modules(cdplot.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_appear_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []

"""Every name that a ``dunkl`` module lists in ``__all__`` resolves, so a
deletion cannot leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import dunkl

MODULES = sorted(info.name for info in pkgutil.iter_modules(dunkl.__path__, "dunkl."))


@pytest.mark.parametrize("name", ["dunkl", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

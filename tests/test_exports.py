"""Every name a ``cavitydark`` module lists in ``__all__`` must exist."""

import importlib
import pkgutil

import pytest

import cavitydark

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(cavitydark.__path__, "cavitydark.")
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

"""Every name a rownoise module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import rownoise

MODULES = sorted(m.name for m in pkgutil.iter_modules(rownoise.__path__, "rownoise."))


def test_every_module_is_listed():
    assert "rownoise.physics" in MODULES and "rownoise.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"

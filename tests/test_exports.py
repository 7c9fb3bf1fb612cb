"""Every name a rownoise module lists in __all__ exists, and the README's
library example runs."""

import importlib
import pkgutil
from pathlib import Path

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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0

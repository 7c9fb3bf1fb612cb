"""Every name a rownoise module lists in __all__ exists, the README's
library example runs, and the CLI starts without SciPy."""

import importlib
import pkgutil
import subprocess
import sys
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


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency; SciPy is a test dependency only.
    code = (
        "import sys, rownoise.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

"""Every name a rownoise module lists in __all__ exists, the README's
library example and commands run, and the CLI starts without SciPy."""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rownoise
from rownoise.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = sorted(m.name for m in pkgutil.iter_modules(rownoise.__path__, "rownoise."))


def test_every_module_is_listed():
    assert "rownoise.physics" in MODULES and "rownoise.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_readme_library_example_runs(capsys):
    readme = README.read_text()
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


def readme_commands() -> list[list[str]]:
    """The argv of each rownoise command in the README's sh blocks, in
    order: continued lines joined, comments and the usage line left out."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["rownoise"] and not argv[1].startswith("<"):
                commands.append(argv[1:])
    return commands


# A stand-in for the README's bench rig: two 4x6 PGMs in --out whose odd
# rows stand higher by a step that depends on --hz.
RIG = """#!{python}
import pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
out = pathlib.Path(args["--out"])
out.mkdir(exist_ok=True)
step = int(args["--hz"]) // 1000 % 5
data = b"P5 4 6 255\\n" + bytes(100 + step * (i // 4 % 2) for i in range(24))
for name in ("im1.pgm", "im2.pgm"):
    (out / name).write_bytes(data)
"""


def test_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    # Each exits 0, as the README shows them. Simulated frames are made
    # 32x16 and the rig sweep ends at 10 kHz, with the 10 points its
    # report's --window needs, to stay within the test time budget.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    rig = bin_dir / "rig-capture"
    rig.write_text(RIG.format(python=sys.executable))
    rig.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}:{os.environ['PATH']}")
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 15
    for argv in commands:
        if argv[0] == "sweep" and "--capture-cmd" in argv:
            argv = [*argv, "--end", "10000"]
        elif argv[0] in ("simulate", "sweep"):
            argv = [*argv, "--width", "32", "--active-rows", "16"]
        assert main(argv) == 0, (argv, capsys.readouterr().err)

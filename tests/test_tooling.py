"""The benchmark tracer, the scripts and the package's public names.

``perfbench/tracing.py`` rebinds package functions by name, and the scripts
under ``scripts/`` import them, so a renamed or deleted function breaks a
traced benchmark run or a script without failing any other test.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import matgrowth
from tracing import Tracer

missing = [name for name in matgrowth.__all__ if not hasattr(matgrowth, name)]
assert not missing, f"matgrowth.__all__ names nothing for {missing}"
Tracer().install()
print("installed")
"""


def test_tracer_installs_and_every_export_resolves():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    run = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "installed"


SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_every_name_a_script_imports_from_the_package_resolves(script):
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(script.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "matgrowth"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_energy_sweep_help_runs_in_a_fresh_interpreter():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "energy_sweep.py"), "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "--sizes" in run.stdout

"""The benchmark tracer and the package's public names, in a fresh interpreter.

``perfbench/tracing.py`` rebinds package functions by name, so a renamed or
deleted function breaks a traced benchmark run without failing any other
test.
"""

import os
import subprocess
import sys
from pathlib import Path

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

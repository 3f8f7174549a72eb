"""Each featalign module imports on its own in a fresh interpreter.

Every import sits at module level, so a new import cycle fails here for
the module that closes it, whichever module a caller happens to import
first.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# ``featalign.__main__`` runs the command line when imported; it is an entry
# point, not a library module.
MODULES = ["featalign"] + sorted(
    info.name
    for info in pkgutil.walk_packages([str(SRC / "featalign")], "featalign.")
    if info.name != "featalign.__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]

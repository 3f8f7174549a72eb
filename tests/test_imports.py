"""Each featalign module imports on its own in a fresh interpreter, and
reads every name it imports.

Every import sits at module level, so a new import cycle fails here for
the module that closes it, whichever module a caller happens to import
first.
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ["featalign"] + sorted(
    info.name for info in pkgutil.walk_packages([str(SRC / "featalign")], "featalign.")
)
# Every source file by module name, the entry point included.
SOURCES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): path
    for path in sorted((SRC / "featalign").rglob("*.py"))
}


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_unused_imports(module):
    tree = ast.parse(SOURCES[module].read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert not imported - read, f"{module} imports but never reads {sorted(imported - read)}"

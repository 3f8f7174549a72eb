"""Each featalign module imports on its own in a fresh interpreter, reads
every name it imports and, the entry point aside, reads no environment
variable.

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


# The one module that may read the environment: the entry point pins the
# BLAS thread counts there before numpy loads. Anything else a run depends
# on is a command-line flag, so ``run_config.json`` echoes it.
ENVIRONMENT_READERS = {"featalign.__main__"}
ENVIRONMENT_NAMES = ("environ", "getenv")


def reads_environment(node) -> bool:
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in ENVIRONMENT_NAMES
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in ENVIRONMENT_NAMES for alias in node.names)
    return False


@pytest.mark.parametrize("module", sorted(set(SOURCES) - ENVIRONMENT_READERS))
def test_reads_no_environment(module):
    tree = ast.parse(SOURCES[module].read_text())
    lines = [node.lineno for node in ast.walk(tree) if reads_environment(node)]
    assert not lines, f"{module} reads the environment on lines {lines}"

"""Every layer the benchmark tracer wraps still exists in the package.

The tracer replaces functions at the attribute where their caller looks them
up, so a rename or removal of such a hook fails here, in the test suite, and
not only in the benchmark's own smoke test.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize(
    "module, attribute",
    [(module, attribute) for _, module, attribute, _ in TRACER.LOOP_LAYERS + TRACER.SETUP_LAYERS],
    ids=lambda value: value,
)
def test_traced_hook_resolves_to_callable(module, attribute):
    owner, leaf = TRACER._resolve(module, attribute)
    assert callable(getattr(owner, leaf))

"""Every layer the benchmark tracer wraps still exists in the package, and
every workload still calls each layer its benchmark run requires.

The tracer replaces functions at the attribute where their caller looks them
up, so a rename or removal of such a hook, or a solver change that stops
calling one, fails here, in the test suite, and not only in the benchmark's
own smoke test.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import featalign.cli as cli_mod

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: the dataclasses of workloads.py look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACER = load_benchmark_module("tracer")
WORKLOADS = load_benchmark_module("workloads")

# The benchmark's workloads at the sizes of its smoke test.
TINY = WORKLOADS.Sizes(image=32, frames=3, val_split_candidates=2, pairs=2, matches=16,
                       reference_candidates=6, pool_candidates=4, run_candidates=3,
                       val_candidates=2, points=64)


@pytest.mark.parametrize(
    "module, attribute",
    [(module, attribute) for _, module, attribute, _ in TRACER.LOOP_LAYERS + TRACER.SETUP_LAYERS],
    ids=lambda value: value,
)
def test_traced_hook_resolves_to_callable(module, attribute):
    owner, leaf = TRACER._resolve(module, attribute)
    assert callable(getattr(owner, leaf))


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_calls_every_required_layer(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name]
    dataset = tmp_path / "dataset"
    assert cli_mod.main(workload.setup_argv(TINY, dataset)) == 0
    plan = workload.prepare(dataset, 7, TINY)
    argv = workload.call_argv(dataset, tmp_path / "out", plan, TINY, BENCHMARKS / "weights_gn.gnnw")
    tracer = TRACER.Tracer()
    tracer.install(TRACER.LOOP_LAYERS)
    try:
        # Looked up after the install, so the traced entry point runs.
        assert cli_mod.main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = TRACER.layer_metrics(tracer, TRACER.LOOP_LAYERS, 1)
    assert TRACER.missing_layers(metrics, workload.required_layers) == []

"""Per-layer tracing from outside the program.

The tracer replaces public functions with timing wrappers at the attribute
where their caller looks them up (``training.forward_pyramid`` is the name
the training loop calls; ``bench.evaluate.align_pose`` the one the
relocalization loop calls). Spans stay in memory; a layer's self time is its
span minus the spans of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np


def _tape_nodes(args, kwargs, result):
    return {"nodes": len(args[0])}


def _conv_flops(args, kwargs, result):
    weights = args[1] if len(args) > 1 else kwargs["w"]
    height, width = result.data.shape[:2]
    return {"flops": 2 * height * width * np.size(getattr(weights, "data", weights))}


def _sampled_points(args, kwargs, result):
    coords = args[1] if len(args) > 1 else kwargs["coords"]
    return {"points": np.shape(getattr(coords, "data", coords))[0]}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


# (layer name, module, attribute where the caller looks it up, counter)
LOOP_LAYERS = (
    ("cli.main", "featalign.cli", "main", None),
    ("bench.dataset_io.read_split", "featalign.cli", "read_split", None),
    ("bench.evaluate.run_relocalization", "featalign.cli", "run_relocalization", None),
    ("training.validation", "featalign.training", "_validation_auc", None),
    ("network.forward_pyramid", "featalign.training", "forward_pyramid", None),
    ("losses.total_loss", "featalign.training", "total_loss", None),
    ("optim.adam_step", "featalign.training", "adam_step", None),
    ("tensor.Tape.backward", "featalign.tensor", "Tape.backward", _tape_nodes),
    ("network.extract_pyramid", "featalign.network", "extract_pyramid", None),
    ("tensor.conv2d", "featalign.tensor", "conv2d", _conv_flops),
    ("alignment.align_pose", "featalign.bench.evaluate", "align_pose", _iterations),
    ("alignment.select_keyframe_points", "featalign.bench.evaluate", "select_keyframe_points", None),
    ("geometry.project_points", "featalign.alignment", "project_points", None),
    ("alignment.map_gradient", "featalign.alignment", "map_gradient", None),
    ("alignment.interp", "featalign.alignment", "interp", None),
    ("tensor.bilinear_sample", "featalign.tensor", "bilinear_sample", _sampled_points),
)

SETUP_LAYERS = (
    ("bench.scene.render", "featalign.bench.scene", "SyntheticScene.render", None),
    ("bench.scene.ray_depth", "featalign.bench.scene", "SyntheticScene.ray_depth", None),
    ("bench.scene.make_correspondences", "featalign.cli", "make_correspondences", None),
    ("bench.dataset_io.write_split", "featalign.cli", "write_split", None),
)

# (metric, unit, better) beyond the calls/self_ms pair every layer reports.
DERIVED_METRICS = (
    ("tensor.tape_nodes_per_step", "count", "lower"),
    ("tensor.conv2d.gflop_per_s", "GFLOP/s", "higher"),
    ("tensor.bilinear_sample.points", "count", "lower"),
    ("alignment.align_pose.ms_p50", "ms", "lower"),
    ("alignment.align_pose.ms_p95", "ms", "lower"),
    ("alignment.align_pose.iterations", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def metric_specs() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name, *_ in LOOP_LAYERS + SETUP_LAYERS:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_ms", "ms", "lower"))
    return specs + list(DERIVED_METRICS)


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """In-memory spans around wrapped layer functions."""

    def __init__(self):
        self.spans: list = []  # [layer, start, end, parent span index or -1]
        self.counts: Counter = Counter()
        self._open: list = []
        self._installed: list = []

    def install(self, layers) -> None:
        for name, module, attribute, counter in layers:
            owner, leaf = _resolve(module, attribute)
            original = getattr(owner, leaf)
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    def _wrap(self, name, fn, counter):
        spans, open_spans, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def layers(self) -> dict:
        """Layer name -> (calls, self seconds, list of span seconds)."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out: dict = {}
        for (name, start, end, _), children in zip(self.spans, inner):
            calls, self_s, durations = out.get(name, (0, 0.0, []))
            durations.append(end - start)
            out[name] = (calls + 1, self_s + (end - start) - children, durations)
        return out


def layer_metrics(tracer: Tracer, layers, units: int) -> dict:
    """Calls and self time of each layer per unit of work.

    ``units`` is the number of traced workload calls (or set-ups) the totals
    are divided by, so values do not depend on how many fit into a run.
    """
    stats = tracer.layers()
    metrics = {}
    for name, *_ in layers:
        calls, self_s, _ = stats.get(name, (0, 0.0, []))
        metrics[f"{name}.calls"] = calls / units
        metrics[f"{name}.self_ms"] = 1e3 * self_s / units
    return metrics


def derived_metrics(tracer: Tracer, units: int) -> dict:
    """Counter-based rows of the loop layers (all but the tracing overhead)."""
    stats = tracer.layers()
    counts = tracer.counts
    backward_calls = stats.get("tensor.Tape.backward", (0,))[0]
    conv_s = stats.get("tensor.conv2d", (0, 0.0))[1]
    align = stats.get("alignment.align_pose", (0, 0.0, []))[2]
    p50, p95 = np.percentile(align, [50, 95]) if align else (0.0, 0.0)
    return {
        "tensor.tape_nodes_per_step": counts["tensor.Tape.backward.nodes"] / max(1, backward_calls),
        "tensor.conv2d.gflop_per_s": counts["tensor.conv2d.flops"] / conv_s / 1e9 if conv_s else 0.0,
        "tensor.bilinear_sample.points": counts["tensor.bilinear_sample.points"] / units,
        "alignment.align_pose.ms_p50": 1e3 * float(p50),
        "alignment.align_pose.ms_p95": 1e3 * float(p95),
        "alignment.align_pose.iterations": counts["alignment.align_pose.iterations"] / units,
    }


def missing_layers(metrics: dict, required) -> list:
    """Required layers that recorded no call: a refactor renamed or bypassed them."""
    return [name for name in required if not metrics[f"{name}.calls"]]

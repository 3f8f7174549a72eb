"""Measuring process of the benchmark: a timed closed loop of CLI calls.

``run.py`` starts it with the path of a JSON job and reads the result JSON it
writes. The process runs only the workload, so its peak resident memory is
the workload's. With tracing on, the first third of the time (three calls at
least) runs untraced, which gives the tracing overhead, and the rest traced
(two calls at least).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import LOOP_LAYERS, Tracer, derived_metrics, layer_metrics
from workloads import WORKLOADS, Sizes


CALIBRATION_LOOPS = 600_000
# Seconds calibrate() takes on the machine the bounds were set on: a 2-vCPU
# Intel Xeon VM running CPython 3.11.
CALIBRATION_REFERENCE_S = 0.06


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now.

    Shared hosts change speed by up to 1.7x within minutes, so each timing is
    also reported at the reference speed: scaled by CALIBRATION_REFERENCE_S
    over the calibration measured next to it. The loop does no featalign
    work, so the scaling removes the machine's drift but no program change.
    Of the kernels tried, a pure-Python loop followed the workloads best.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def at_reference(seconds: float, calibration_s: float) -> float:
    """A wall time scaled to the reference machine speed."""
    return seconds * CALIBRATION_REFERENCE_S / calibration_s


def timed_calls(cli, argv, workload, out: Path, tracks: list, deadline: float, at_least: int = 1) -> list:
    """Calls the CLI until the deadline has passed, at least ``at_least`` times.

    Each call's ``calibration_s`` is the mean of the calibrations just
    before and just after it.
    """
    calls = []
    calibrations = [calibrate()]
    while len(calls) < at_least or time.perf_counter() < deadline:
        tracks.clear()
        error = outcome = None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        if code == 0:
            try:
                outcome = workload.outcome(out, tracks[0] if tracks else [])
            except (OSError, KeyError, ValueError):
                error = traceback.format_exc()
        elif code is not None:
            error = f"featalign exited with code {code}"
        if error:
            print(error, file=sys.stderr)
        calibrations.append(calibrate())
        calls.append({"seconds": seconds, "error": error, "outcome": outcome,
                      "calibration_s": (calibrations[-2] + calibrations[-1]) / 2})
    return calls


def observe_tracks(cli) -> list:
    """Keeps each track-result list the CLI's relocalization returns.

    The converged flags are in no output file, so they are read here.
    """
    tracks: list = []
    run_relocalization = cli.run_relocalization

    def observed(*args, **kwargs):
        results = run_relocalization(*args, **kwargs)
        tracks.append(results)
        return results

    cli.run_relocalization = observed
    return tracks


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import featalign.cli as cli

    workload = WORKLOADS[job["workload"]]
    out = Path(job["out"])
    argv = workload.call_argv(
        Path(job["dataset"]), out, job["plan"], Sizes(**job["sizes"]), Path(job["weights"])
    )

    tracks = observe_tracks(cli)
    seconds = job["seconds"]
    start = time.perf_counter()
    result: dict = {}
    if job["trace"]:
        # The first call of a process also pays for lazy imports and first
        # allocations, so the overhead compares against the calls after it.
        untraced = timed_calls(cli, argv, workload, out, tracks, start + seconds / 3, at_least=3)
        tracer = Tracer()
        tracer.install(LOOP_LAYERS)
        try:
            traced = timed_calls(cli, argv, workload, out, tracks, start + seconds, at_least=2)
        finally:
            tracer.uninstall()
        overhead = statistics.median(
            at_reference(c["seconds"], c["calibration_s"]) for c in traced
        ) / statistics.median(at_reference(c["seconds"], c["calibration_s"]) for c in untraced[1:])
        result["layers"] = {
            **layer_metrics(tracer, LOOP_LAYERS, len(traced)),
            **derived_metrics(tracer, len(traced)),
            "trace.overhead_pct": 100.0 * (overhead - 1.0),
        }
        result["calls"] = untraced + traced
    else:
        result["calls"] = timed_calls(cli, argv, workload, out, tracks, start + seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])

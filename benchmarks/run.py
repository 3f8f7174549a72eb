"""featalign benchmark: training and relocalization through the public CLI.

    python3 benchmarks/run.py --workload train|reloc-features|reloc-intensity \
        [--seed 7] [--seconds 15] [--trace 0|1]

Run from the repository root. Each run generates its inputs with
``featalign generate`` three times (``setup_s`` is the median), then starts a
measuring process that calls ``featalign.cli.main`` in a closed loop for
``--seconds`` seconds and checks every call against ``reference.json``.
Timings are scaled to a reference machine speed (see ``loop.calibrate``).
The last line of standard output is the result as one JSON object; the line
before it records the environment, the wall-clock numbers and the workload's
own metrics. See README.md in this directory.
"""

import os

# BLAS and OpenMP read these once, when numpy is first imported. Two OpenBLAS
# threads make a training step slower, not faster, at these shapes.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from loop import CALIBRATION_REFERENCE_S, at_reference, calibrate  # noqa: E402
from tracer import SETUP_LAYERS, Tracer, layer_metrics, metric_specs, missing_layers  # noqa: E402
from workloads import FROZEN, WORKLOADS, Sizes  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WEIGHTS = BENCH_DIR / "weights_gn.gnnw"
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = ROOT / ".bench_work"
SETUPS = 3
# The measuring process may overrun --seconds by its last call and the
# calibrations around it.
CHILD_SLACK_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("auc_shortfall", "fraction"),
)


def import_cli():
    """Imports featalign from this checkout's src/, never from elsewhere."""
    if not (SRC / "featalign" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no featalign sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import featalign.cli

    if Path(featalign.cli.__file__).resolve().parents[1] != SRC.resolve():
        raise SystemExit(f"benchmark: imported featalign from {featalign.cli.__file__}")
    return featalign.cli


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
        cpu = next(line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def set_up(cli, workload, sizes: Sizes, work: Path, trace: bool):
    """Generates the inputs SETUPS times.

    Returns (list of (wall seconds, calibration seconds), layers, dataset).
    """
    tracer = Tracer()
    if trace:
        tracer.install(SETUP_LAYERS)
    timings = []
    calibrations = [calibrate()]
    try:
        for index in range(SETUPS):
            dataset = work / f"dataset{index}"
            argv = workload.setup_argv(sizes, dataset)
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"benchmark: set-up {argv} exited with code {code}")
            calibrations.append(calibrate())
            timings.append((seconds, (calibrations[-2] + calibrations[-1]) / 2))
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer, SETUP_LAYERS, SETUPS) if trace else {}
    return timings, layers, dataset


def measure(workload, sizes: Sizes, plan: dict, dataset: Path, work: Path, seconds: float, trace: bool) -> dict:
    """Runs the closed loop in a process of its own and returns its result."""
    job = {
        "src": str(SRC), "workload": workload.name, "sizes": sizes.as_dict(), "plan": plan,
        "dataset": str(dataset), "out": str(work / "out"), "weights": str(WEIGHTS),
        "seconds": seconds, "trace": trace, "result": str(work / "result.json"),
    }
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "loop.py"), str(job_path)],
            stdout=2, timeout=seconds + CHILD_SLACK_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark: measuring process ran over {seconds + CHILD_SLACK_S:.0f} s") from None
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: measuring process exited with code {proc.returncode}")
    return json.loads((work / "result.json").read_text())


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FROZEN, reference_path: Path = REFERENCE):
    """One benchmark run; returns (summary, result) as printed by main()."""
    cli = import_cli()
    workload = WORKLOADS[name]
    reference = json.loads(reference_path.read_text())
    if reference["sizes"] != sizes.as_dict():
        raise SystemExit("benchmark: reference.json was recorded at other sizes; run record.py")
    if reference["weights_sha256"] != sha256(WEIGHTS):
        raise SystemExit(f"benchmark: {WEIGHTS.name} does not match its recorded sha256")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        setups, setup_layers, dataset = set_up(cli, workload, sizes, work, trace)
        plan = workload.prepare(dataset, seed, sizes)
        measured = measure(workload, sizes, plan, dataset, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = measured["calls"]
    good = [call for call in calls if not call["error"]]
    problems = [p for call in good for p in workload.check(call["outcome"], reference, plan)]
    ops = workload.ops_per_call(sizes)
    rate = statistics.median(ops / at_reference(c["seconds"], c["calibration_s"]) for c in calls)
    setup_s = statistics.median(at_reference(*timing) for timing in setups)
    calibrations = [c["calibration_s"] for c in calls] + [cal for _, cal in setups]
    own = {
        workload.rate_name: (statistics.median(ops / call["seconds"] for call in calls), "1/s"),
        "setup_wall_s": (statistics.median(seconds for seconds, _ in setups), "s"),
        "machine_speed": (CALIBRATION_REFERENCE_S / statistics.median(calibrations), "ratio"),
    }
    own.update(workload.summary(good[-1]["outcome"]) if good else {})
    if trace:
        values = {**setup_layers, **measured["layers"]}
        required = workload.required_layers + tuple(name for name, *_ in SETUP_LAYERS)
        missing = missing_layers(values, required)
        if missing:
            raise SystemExit(f"benchmark: layers recorded no call on {name}: {missing}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_specs()}
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": measured["peak_rss_mb"],
            "ops_per_s": rate,
            "auc_shortfall": 1.0 - workload.auc(good[-1]["outcome"]) if good else 1.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    summary = {
        "workload": name, "seed": seed, "plan": plan, "trace": trace,
        "workload_metrics": {key: {"value": v, "unit": u} for key, (v, u) in own.items()},
        "call_seconds": [call["seconds"] for call in calls],
        "calibration_seconds": [call["calibration_s"] for call in calls],
        "problems": problems[:10], "environment": environment(),
    }
    result = {
        "correct": bool(good) and len(good) == len(calls) and not problems,
        "attempted": ops * len(calls),
        "failed": ops * (len(calls) - len(good)),
        "metrics": metrics,
    }
    return summary, result


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (7; confirm claims on 8)")
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run instead")
    args = parser.parse_args(argv)
    summary, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"summary": summary}, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

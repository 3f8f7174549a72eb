"""Shared fixtures: the trained-model benchmark used by the acceptance gate."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from featalign.cli import main as cli_main

# One line per acceptance criterion, echoed after the run summary so the
# pass/fail record survives pytest's output capture.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    failed_acceptance = [
        rep.nodeid
        for rep in terminalreporter.stats.get("failed", [])
        if "test_acceptance" in rep.nodeid
    ]
    if not ACCEPTANCE_LINES and not failed_acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
    for nodeid in failed_acceptance:
        terminalreporter.write_line(f"ACCEPTANCE FAIL - {nodeid}")


class BenchmarkModels:
    """Dataset root plus trained weights paths and build timing."""

    def __init__(self, root: Path, build_seconds: float):
        self.root = root
        self.dataset = root / "dataset"
        self.gn_weights = root / "weights_gn.gnnw"
        self.contrastive_weights = root / "weights_contrastive.gnnw"
        self.build_seconds = build_seconds


@pytest.fixture(scope="session")
def benchmark_models(tmp_path_factory) -> BenchmarkModels:
    """Generates the benchmark and trains both learned models once.

    Frozen run parameters; every acceptance criterion that needs trained
    descriptors shares this build.
    """
    root = tmp_path_factory.mktemp("benchmark")
    start = time.monotonic()
    rc = cli_main(
        [
            "generate", "--out", str(root / "dataset"), "--seed", "7",
            "--frames", "12", "--candidates", "220", "--val-candidates", "12",
            "--pairs", "32", "--n-pos", "128", "--n-neg", "128",
        ]
    )
    assert rc == 0, "benchmark generation failed"
    train_in_parallel(
        {
            "combined-loss": [
                "train", "--dataset", str(root / "dataset"),
                "--out", str(root / "weights_gn.gnnw"),
                "--epochs", "64", "--seed", "1", "--val-candidates", "8",
            ],
            "contrastive-only": [
                "train", "--dataset", str(root / "dataset"),
                "--out", str(root / "weights_contrastive.gnnw"),
                "--epochs", "64", "--seed", "1", "--gn-weight", "0",
                "--val-candidates", "8",
            ],
        }
    )
    return BenchmarkModels(root, time.monotonic() - start)


def train_in_parallel(runs: dict) -> None:
    """Runs each named argument list as its own ``python -m featalign``
    process, all at once, and waits for every one.

    The trainings share only their dataset, and each process pins itself
    to one BLAS thread, so they run side by side on separate cores.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-m", "featalign", *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
        )
        for name, argv in runs.items()
    }
    failures = []
    try:
        for name, proc in procs.items():
            # Criterion 5's whole budget: a training that outlasts it has hung.
            _, stderr = proc.communicate(timeout=1800)
            if proc.returncode != 0:
                failures.append(f"{name} training failed (exit {proc.returncode}):\n{stderr[-2000:]}")
    finally:
        for proc in procs.values():
            proc.kill()  # does nothing to a process already waited for
    assert not failures, "\n".join(failures)

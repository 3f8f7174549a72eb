"""Workload definitions shared by the benchmark entry point, its measuring
process and the reference recorder.

Every workload is a closed loop with one client: the measuring process calls
the public CLI entry point ``featalign.cli.main`` in-process, waits for it,
and calls it again until the run's time is up. All workloads use the scene of
the acceptance fixture (generator seed 7). Across scenes the solver's cost
per iteration differs by up to a third, which would swamp any regression
bound, so the workload seed draws the work from that one scene instead: for
``reloc-*`` it picks which 32 of the scene's first 48 test candidates are
tracked, and in which order. ``train`` runs the acceptance recipe as it is
(training seed 1), whatever the workload seed: a step costs the same for
every seed because the shapes are fixed, while the validation AUC and the
loss after one epoch move by 10-17% between training seeds.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

SCENE_SEED = 7
TRAIN_SEED = 1
TRAIN_EPOCHS = 1
LOSS_RTOL = 1e-6
AUC_ATOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark; tests shrink them."""

    image: int = 64
    frames: int = 12
    val_split_candidates: int = 12
    pairs: int = 32
    matches: int = 128
    reference_candidates: int = 220
    pool_candidates: int = 48
    run_candidates: int = 32
    val_candidates: int = 8
    points: int = 512

    def as_dict(self) -> dict:
        return asdict(self)


FROZEN = Sizes()


def generate_argv(sizes: Sizes, out: Path, candidates: int, val_candidates: int, pairs: int) -> list:
    """``featalign generate`` with the acceptance fixture's settings."""
    return [
        "generate", "--out", str(out), "--seed", str(SCENE_SEED),
        "--size", str(sizes.image), "--frames", str(sizes.frames),
        "--candidates", str(candidates), "--val-candidates", str(val_candidates),
        "--pairs", str(pairs), "--n-pos", str(sizes.matches), "--n-neg", str(sizes.matches),
    ]


def reference_auc(errors) -> float:
    """AUC of the cumulative error curve on the [0, 1] grid, step 0.01.

    An independent copy of the evaluator's definition, so that the expected
    value of any candidate subset follows from per-candidate reference errors.
    """
    errors = np.asarray(errors, dtype=np.float64)
    thresholds = np.round(np.arange(101) * 0.01, 10)
    fraction = np.array([(errors <= t).mean() for t in thresholds])
    return float(np.trapezoid(fraction, thresholds))


class Train:
    """``featalign train``: one epoch of pair updates plus validation."""

    name = "train"
    rate_name = "train_steps_per_s"
    required_layers = (
        "cli.main", "bench.dataset_io.read_split", "training.validation",
        "network.forward_pyramid", "losses.total_loss", "optim.adam_step",
        "tensor.Tape.backward", "network.extract_pyramid", "tensor.conv2d",
        "alignment.align_pose", "alignment.select_keyframe_points",
        "geometry.project_points", "alignment.map_gradient", "alignment.interp",
        "tensor.bilinear_sample",
    )

    def setup_argv(self, sizes: Sizes, out: Path) -> list:
        return generate_argv(sizes, out, 0, sizes.val_split_candidates, sizes.pairs)

    def prepare(self, dataset: Path, seed: int, sizes: Sizes) -> dict:
        return {}

    def call_argv(self, dataset: Path, out: Path, plan: dict, sizes: Sizes, weights: Path) -> list:
        return [
            "train", "--dataset", str(dataset), "--out", str(out / "weights.gnnw"),
            "--epochs", str(TRAIN_EPOCHS), "--seed", str(TRAIN_SEED),
            "--gn-weight", "0.1", "--val-candidates", str(sizes.val_candidates),
        ]

    def ops_per_call(self, sizes: Sizes) -> int:
        return sizes.pairs * TRAIN_EPOCHS

    def outcome(self, out: Path, tracks) -> dict:
        with open(out / "weights.log.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        keys = ("total", "contrastive", "gauss_newton", "val_auc")
        return {"epochs": [[float(row[k]) for k in keys] for row in rows]}

    def check(self, outcome: dict, reference: dict, plan: dict) -> list:
        expected = reference["train"]
        got = outcome["epochs"]
        if len(got) != len(expected):
            return [f"{len(got)} epochs logged, reference has {len(expected)}"]
        return [
            f"epoch {epoch}: {g!r} vs reference {e!r}"
            for epoch, (row, ref) in enumerate(zip(got, expected))
            for g, e in zip(row, ref)
            if not math.isclose(g, e, rel_tol=LOSS_RTOL, abs_tol=1e-12)
        ]

    def summary(self, outcome: dict) -> dict:
        total, _, _, val_auc = outcome["epochs"][-1]
        return {"train_loss": (total, "loss"), "val_auc": (val_auc, "fraction")}

    def auc(self, outcome: dict) -> float:
        return outcome["epochs"][-1][3]


class Reloc:
    """``featalign evaluate --methods <method>`` on a subset of test candidates."""

    rate_name = "candidates_per_s"

    def __init__(self, method: str):
        self.method = method
        self.name = f"reloc-{method}"
        self.required_layers = (
            "cli.main", "bench.dataset_io.read_split", "bench.evaluate.run_relocalization",
            "alignment.align_pose", "alignment.select_keyframe_points",
            "geometry.project_points", "alignment.map_gradient", "alignment.interp",
            "tensor.bilinear_sample",
        ) + (("network.extract_pyramid", "tensor.conv2d") if method == "features" else ())

    def setup_argv(self, sizes: Sizes, out: Path) -> list:
        return generate_argv(sizes, out, sizes.pool_candidates, 0, 1)

    def prepare(self, dataset: Path, seed: int, sizes: Sizes) -> dict:
        """Keeps the seed's candidates in the test split's manifest."""
        manifest_path = dataset / "test" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        order = np.random.default_rng([seed, 0xC4]).permutation(len(manifest["candidates"]))
        order = [int(i) for i in order[: sizes.run_candidates]]
        manifest["candidates"] = [manifest["candidates"][i] for i in order]
        manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        return {"order": order}

    def call_argv(self, dataset: Path, out: Path, plan: dict, sizes: Sizes, weights: Path) -> list:
        argv = ["evaluate", "--dataset", str(dataset), "--out", str(out),
                "--methods", self.method, "--points", str(sizes.points)]
        return argv + (["--weights", str(weights)] if self.method == "features" else [])

    def ops_per_call(self, sizes: Sizes) -> int:
        return sizes.run_candidates

    def outcome(self, out: Path, tracks) -> dict:
        summary = json.loads((out / "summary.json").read_text())[self.method]
        return {"auc": summary["auc"], "n": summary["n"],
                "converged": [bool(track.converged) for _, track in tracks],
                "iterations": [int(track.iterations) for _, track in tracks]}

    def check(self, outcome: dict, reference: dict, plan: dict) -> list:
        candidates = reference[self.name]["candidates"]
        expected = [candidates[i] for i in plan["order"]]
        want_converged = [c["converged"] for c in expected]
        want_auc = reference_auc(
            [c["error"] if c["converged"] else np.inf for c in expected]
        )
        problems = []
        if outcome["n"] != len(expected) or len(outcome["converged"]) != len(expected):
            problems.append(f"{outcome['n']} candidates tracked, expected {len(expected)}")
        if outcome["converged"] != want_converged:
            problems.append(
                f"converged {sum(outcome['converged'])}/{len(outcome['converged'])}, "
                f"reference {sum(want_converged)}/{len(want_converged)} (or other candidates)"
            )
        if abs(outcome["auc"] - want_auc) > AUC_ATOL:
            problems.append(f"AUC {outcome['auc']!r} vs reference {want_auc!r}")
        return problems

    def summary(self, outcome: dict) -> dict:
        """Also the solver's mean iterations per candidate, not checked: a
        solver that gives up early shows here next to its speed."""
        converged, iterations = outcome["converged"], outcome["iterations"]
        n = max(1, len(converged))
        return {"reloc_auc": (outcome["auc"], "fraction"),
                "converged_fraction": (sum(converged) / n, "fraction"),
                "align_iterations_per_candidate": (sum(iterations) / n, "count")}

    def auc(self, outcome: dict) -> float:
        return outcome["auc"]


WORKLOADS = {w.name: w for w in (Train(), Reloc("features"), Reloc("intensity"))}

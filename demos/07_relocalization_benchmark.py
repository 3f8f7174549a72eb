#!/usr/bin/env python3
"""End-to-end benchmark in miniature: generate, train, track, evaluate.

Runs the whole pipeline through the CLI entry points on a small dataset:
synthetic scenes with photometric conditions, a short training run, and
cumulative relocalization-error curves for raw intensities versus trained
descriptors. Expect a few minutes of runtime.
"""

import json
import tempfile
from pathlib import Path

from featalign.cli import main

with tempfile.TemporaryDirectory(prefix="featalign_demo_") as tmp:
    root = Path(tmp)
    dataset = root / "dataset"
    print(f"working under {root} (removed at exit)")

    print("\n[1/4] generating train/val/test splits")
    assert main([
        "generate", "--out", str(dataset), "--seed", "3", "--frames", "6",
        "--candidates", "20", "--val-candidates", "6", "--pairs", "10",
        "--n-pos", "96", "--n-neg", "96",
    ]) == 0

    print("\n[2/4] training descriptors (combined loss, short run)")
    assert main([
        "train", "--dataset", str(dataset), "--out", str(root / "weights.gnnw"),
        "--epochs", "16", "--base-width", "8", "--val-candidates", "4",
    ]) == 0

    print("\n[3/4] tracking one candidate with each method")
    for method, extra in (("intensity", []), ("features", ["--weights", str(root / "weights.gnnw")])):
        print(f"--- {method}")
        assert main([
            "align", "--dataset", str(dataset), "--candidate", "0",
            "--method", method, *extra,
        ]) == 0

    print("\n[4/4] cumulative relocalization-error curves")
    assert main([
        "evaluate", "--dataset", str(dataset), "--out", str(root / "eval"),
        "--methods", "intensity,features", "--weights", str(root / "weights.gnnw"),
        "--points", "256",
    ]) == 0
    summary = json.loads((root / "eval" / "summary.json").read_text())
    for method, stats in summary.items():
        print(f"{method:10s} auc={stats['auc']:.3f} success@0.5={stats['success_at_0.5']:.2f}")

"""Records reference.json, the outputs every benchmark run is checked against.

    python3 benchmarks/record.py

Run from the repository root, only after a change that is meant to alter
results; never to make a failing run pass. It tracks all 220 test candidates
of the acceptance dataset with both methods (per-candidate converged flag and
error, and the AUC over all of them) and records the per-epoch losses of the
training workload. It takes about a minute.

``weights_gn.gnnw`` holds the acceptance recipe's combined-loss weights. Its
sha256 is recorded here and checked by every run. To regenerate it (about
four minutes), then run this script:

    export OPENBLAS_NUM_THREADS=1 PYTHONPATH=src
    python3 -m featalign generate --out dataset --seed 7 --frames 12 \
        --candidates 220 --val-candidates 12 --pairs 32 --n-pos 128 --n-neg 128
    python3 -m featalign train --dataset dataset \
        --out benchmarks/weights_gn.gnnw --epochs 64 --seed 1 --val-candidates 8
"""

import json
import shutil
import tempfile
from pathlib import Path

import run as bench
from loop import observe_tracks
from workloads import FROZEN, WORKLOADS, Sizes, generate_argv


def _call(cli, argv) -> None:
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"record: {argv[0]} exited with code {code}")


def record(sizes: Sizes, path: Path) -> dict:
    cli = bench.import_cli()
    from featalign.bench.evaluate import relocalization_errors

    tracks = observe_tracks(cli)
    reference = {"sizes": sizes.as_dict(), "weights_sha256": bench.sha256(bench.WEIGHTS)}
    bench.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=bench.WORK_ROOT))
    try:
        dataset = work / "acceptance"
        _call(cli, generate_argv(sizes, dataset, sizes.reference_candidates,
                                 sizes.val_split_candidates, sizes.pairs))
        for name in ("reloc-features", "reloc-intensity"):
            workload = WORKLOADS[name]
            tracks.clear()
            _call(cli, workload.call_argv(dataset, work / name, {}, sizes, bench.WEIGHTS))
            outcome = workload.outcome(work / name, tracks[0])
            errors = relocalization_errors(tracks[0])
            reference[name] = {
                "auc_all": outcome["auc"],
                "candidates": [
                    {"converged": converged, "error": float(error) if converged else None}
                    for converged, error in zip(outcome["converged"], errors)
                ],
            }
            print(f"{name}: AUC over {len(errors)} candidates {outcome['auc']:.3f}, "
                  f"{sum(outcome['converged'])} converged", flush=True)

        train = WORKLOADS["train"]
        dataset = work / "train"
        _call(cli, train.setup_argv(sizes, dataset))
        _call(cli, train.call_argv(dataset, work / "train-out", {}, sizes, bench.WEIGHTS))
        reference["train"] = train.outcome(work / "train-out", [])["epochs"]
        print(f"train: per-epoch losses {reference['train']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1) + "\n")
    return reference


if __name__ == "__main__":
    record(FROZEN, bench.REFERENCE)

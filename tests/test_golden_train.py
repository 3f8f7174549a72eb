"""Golden training: the bytes a short ``train`` writes on the golden-tracks split.

``golden_train.sha256`` holds the digest of the weights file and of the log
of a 2-epoch ``featalign train`` on the split ``test_golden_tracks.GEN_ARGS``
generates, once for the default network and once at ``--base-width 4``,
whose narrow layers take other GEMM shapes (its dec0 runs the im2col
forward). Nothing else pins training bytes across commits: a change to the
rounding of any forward or backward rule moves these lines, where otherwise
it would show only as a swing in the acceptance gate's trained-model
criteria. A change that claims bit-identical training must leave every
line as recorded.

Recorded under numpy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas64) on x86-64
with Python 3.11; another numpy or BLAS build may round differently and
change them. Training writes the same bytes on any BLAS thread count.

To re-record both runs after a change that is meant to move training::

    PYTHONPATH=src python tests/test_golden_train.py > tests/golden_train.sha256
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from featalign.cli import main as cli_main
from test_golden_tracks import GEN_ARGS

GOLDEN = Path(__file__).with_name("golden_train.sha256")

# Weights file name -> extra train arguments; each log is named after its weights.
RUNS = {"weights.gnnw": [], "weights_width4.gnnw": ["--base-width", "4"]}


def train_digests(root: Path) -> dict:
    """File name -> sha256 of the weights and log of each 2-epoch train under ``root``."""
    assert cli_main(["generate", "--out", str(root / "ds")] + GEN_ARGS) == 0
    digests = {}
    for name, extra in RUNS.items():
        weights = root / name
        assert cli_main(["train", "--dataset", str(root / "ds"), "--out", str(weights),
                         "--epochs", "2", "--val-candidates", "0"] + extra) == 0
        digests.update({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (weights, weights.with_suffix(".log.csv"))})
    return digests


def test_training_matches_golden_digests(tmp_path):
    recorded = GOLDEN.read_text().splitlines()
    expected = {name: digest for digest, name in (line.split() for line in recorded)}
    assert len(expected) == 2 * len(RUNS)
    assert train_digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for name, digest in train_digests(Path(scratch)).items():
            sys.stdout.write(f"{digest}  {name}\n")

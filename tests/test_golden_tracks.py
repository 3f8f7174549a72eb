"""Golden tracks: the bytes of every relocalization result on a small split.

``golden_tracks.sha256`` holds one digest per (method, candidate). Each
digest covers the track's pose bytes, ``converged``, ``iterations``,
``final_residual`` and ``inlier_fraction``. A solver change that claims
bit-identical results must leave every line as recorded.

Recorded under numpy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas64) on x86-64
with Python 3.11; another numpy or BLAS build may round the 6x6 solve
differently and change them.

To re-record after a change that is meant to move the tracks::

    PYTHONPATH=src python tests/test_golden_tracks.py > tests/golden_tracks.sha256
"""

import hashlib
import struct
import sys
import tempfile
from pathlib import Path

from featalign.alignment import intensity_extractor, method_config, network_extractor
from featalign.bench.dataset_io import read_split
from featalign.bench.evaluate import run_relocalization
from featalign.cli import main as cli_main
from featalign.network import NetworkConfig, build_network

GOLDEN = Path(__file__).with_name("golden_tracks.sha256")

GEN_ARGS = [
    "--seed", "4", "--frames", "4", "--candidates", "8", "--val-candidates", "0",
    "--pairs", "1", "--n-pos", "8", "--n-neg", "8", "--size", "64",
]


def track_digest(track) -> str:
    h = hashlib.sha256()
    h.update(track.pose.rotation.tobytes())
    h.update(track.pose.translation.tobytes())
    h.update(struct.pack("<?qdd", track.converged, track.iterations,
                         track.final_residual, track.inlier_fraction))
    return h.hexdigest()


def track_digests(root: Path) -> dict:
    """``"<method>/candidate_<i>"`` -> digest, for a fresh ``generate`` under ``root``."""
    assert cli_main(["generate", "--out", str(root)] + GEN_ARGS) == 0
    split = read_split(root / "test")
    levels = NetworkConfig().pyramid_levels
    methods = {
        "intensity": (intensity_extractor(levels), method_config("intensity", levels)),
        "features": (network_extractor(build_network(NetworkConfig())), method_config("features", levels)),
    }
    out = {}
    for method, (extractor, config) in methods.items():
        for i, (_, track) in enumerate(run_relocalization(split, extractor, config)):
            out[f"{method}/candidate_{i:03d}"] = track_digest(track)
    return out


def test_tracks_match_golden_digests(tmp_path):
    recorded = GOLDEN.read_text().splitlines()
    expected = {name: digest for digest, name in (line.split() for line in recorded)}
    assert len(expected) == 16
    assert track_digests(tmp_path / "golden") == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for name, digest in track_digests(Path(scratch) / "golden").items():
            sys.stdout.write(f"{digest}  {name}\n")

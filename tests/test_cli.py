"""CLI contract tests: subcommands, exit codes, determinism, echoes."""

import ctypes
import hashlib
import json
import os
import platform
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import featalign.cli as cli_mod
import featalign.tensor as tensor_mod
from featalign.bench.dataset_io import write_split
from featalign.bench.scene import SceneConfig, generate_scene
from featalign.cli import main as cli_main
from featalign.gradcheck import run_gradcheck
from featalign.network import NetworkConfig, build_network, save_network
from featalign.weights_io import load_weights, save_weights

from helpers import append_to_first_frame, corrupt_depth, rewrite_first_frame, save_older_layout


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def reject_non_json_constant(name):
    raise ValueError(f"{name} is not valid JSON")


GEN_ARGS = [
    "--seed", "9", "--frames", "4", "--candidates", "3", "--val-candidates", "2",
    "--pairs", "3", "--n-pos", "24", "--n-neg", "24", "--size", "32",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    assert cli_main(["generate", "--out", str(root)] + GEN_ARGS) == 0
    return root


@pytest.fixture(scope="module")
def weights(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_w") / "w.gnnw"
    rc = cli_main(
        [
            "train", "--dataset", str(dataset), "--out", str(out), "--epochs", "1",
            "--base-width", "4", "--descriptor-dim", "4", "--levels", "2",
            "--val-candidates", "0",
        ]
    )
    assert rc == 0
    return out


class TestGenerate:
    def test_three_splits_with_disjoint_seeds(self, dataset):
        seeds = set()
        for name in ("train", "val", "test"):
            manifest = json.loads((dataset / name / "manifest.json").read_text())
            seeds.add(manifest["seed"])
            assert manifest["config_echo"]["frames"] == 4
        assert len(seeds) == 3

    def test_zero_frames_is_usage_error(self, tmp_path):
        rc = cli_main(["generate", "--out", str(tmp_path / "x"), "--frames", "0"])
        assert rc == 1

    @pytest.mark.parametrize(
        "flag", ["--candidates", "--val-candidates", "--n-neg", "--max-frame-gap"]
    )
    def test_negative_count_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "x"
        rc = cli_main(["generate", "--out", str(out)] + GEN_ARGS + [flag, "-1"])
        assert rc == 1
        assert f"{flag} must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--frames", "--pairs", "--n-pos"])
    def test_count_below_one_names_its_flag(self, tmp_path, capsys, flag):
        out = tmp_path / "x"
        rc = cli_main(["generate", "--out", str(out)] + GEN_ARGS + [flag, "0"])
        assert rc == 1
        assert capsys.readouterr().err == f"usage error: {flag} must be >= 1\n"
        assert not out.exists()

    def test_regenerate_byte_identical(self, tmp_path):
        out = tmp_path / "regen"
        args = ["generate", "--out", str(out)] + GEN_ARGS
        assert cli_main(args) == 0
        first = tree_digest(out)
        assert cli_main(args) == 0
        assert tree_digest(out) == first

    def test_small_run_matches_golden_digests(self, tmp_path, monkeypatch):
        """The sha256 of every file a small ``generate`` writes.

        The digests were recorded with a renderer that hashed the height
        lattice at every march step, evaluated the noise one octave at a
        time and marched the overlap grid at every candidate attempt, under
        numpy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas64) on x86-64 with
        Python 3.11. The renderer's shortcuts (one noise evaluator that
        hashes each octave's lattice once per box and sums every octave in
        one pass, and the overlap grid read from the render) must keep every
        byte; another numpy or BLAS build may round the render's ray
        rotation differently and change them.
        """
        monkeypatch.chdir(tmp_path)
        assert cli_main(["generate", "--out", "golden", "--frames", "3", "--candidates", "4",
                         "--val-candidates", "2", "--pairs", "2"]) == 0
        recorded = Path(__file__).with_name("golden_generate.sha256").read_text().splitlines()
        expected = {name: digest for digest, name in (line.split() for line in recorded)}
        assert tree_digest(tmp_path / "golden") == expected

    @pytest.mark.parametrize("size", ["16", "20"])
    def test_no_far_non_match_is_data_fault(self, tmp_path, size):
        # No point of a 16- or 20-px image's inset square lies 8 px from a
        # match. Run in a subprocess, so a sampler that never gives up fails
        # on the timeout instead of stalling the suite.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                                          env.get("PYTHONPATH")]))
        argv = ["generate", "--out", str(tmp_path / "x"), "--size", size, "--n-neg", "4", "--pairs", "2",
                "--frames", "3"]
        proc = subprocess.run([sys.executable, "-m", "featalign"] + argv,
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        # The message carries the cause: the last attempt's fault.
        assert proc.stderr.startswith("data fault: could not build a valid training pair plan: "
                                      "no non-match farther than 8 px from ")
        assert proc.stderr.endswith(f"in 1000 draws on a {size}x{size} image\n")

    def test_config_echoed_everywhere(self, dataset):
        echo = json.loads((dataset / "run_config.json").read_text())
        assert echo["command"] == "generate"
        assert "version" in echo

    def test_evaluate_into_the_dataset_keeps_its_echo(self, tmp_path):
        ds = tmp_path / "ds"
        assert cli_main(["generate", "--out", str(ds)] + GEN_ARGS) == 0
        assert cli_main(["evaluate", "--dataset", str(ds), "--out", str(ds), "--methods", "intensity",
                         "--points", "96", "--candidates", "1"]) == 0
        assert json.loads((ds / "run_config.json").read_text())["command"] == "generate"
        assert json.loads((ds / "evaluate.run_config.json").read_text())["command"] == "evaluate"


class TestEvaluate:
    def test_intensity_needs_no_weights(self, dataset, tmp_path):
        out = tmp_path / "ev"
        rc = cli_main(
            [
                "evaluate", "--dataset", str(dataset), "--out", str(out),
                "--methods", "intensity", "--points", "96",
            ]
        )
        assert rc == 0
        assert (out / "curve_intensity.csv").exists()
        assert (out / "curves.svg").exists()

    def test_threshold_grids_identical_across_methods(self, dataset, weights, tmp_path):
        out = tmp_path / "ev2"
        rc = cli_main(
            [
                "evaluate", "--dataset", str(dataset), "--out", str(out),
                "--methods", "intensity,features", "--weights", str(weights),
                "--points", "96",
            ]
        )
        assert rc == 0
        col = lambda p: [row.split(",")[0] for row in p.read_text().splitlines()[1:]]
        assert col(out / "curve_intensity.csv") == col(out / "curve_features.csv")
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"intensity", "features"}

    def test_missing_weights_is_data_fault(self, dataset, tmp_path):
        rc = cli_main(
            [
                "evaluate", "--dataset", str(dataset), "--out", str(tmp_path / "ev3"),
                "--methods", "features", "--weights", str(tmp_path / "nope.gnnw"),
            ]
        )
        assert rc == 2

    def test_unknown_method_is_usage_error(self, dataset, tmp_path):
        rc = cli_main(
            [
                "evaluate", "--dataset", str(dataset), "--out", str(tmp_path / "ev4"),
                "--methods", "telepathy",
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("methods", [",", " , ,", ""])
    def test_empty_method_list_is_usage_error(self, dataset, tmp_path, capsys, methods):
        out = tmp_path / "ev5"
        rc = cli_main(
            ["evaluate", "--dataset", str(dataset), "--out", str(out), "--methods", methods]
        )
        assert rc == 1
        assert "--methods names no method" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("methods", ["intensity,intensity", "features, intensity,features"])
    def test_repeated_method_is_usage_error(self, tmp_path, capsys, methods):
        # No dataset exists there: the methods are checked before the split is read.
        out = tmp_path / "ev6"
        rc = cli_main(
            [
                "evaluate", "--dataset", str(tmp_path / "void"), "--out", str(out),
                "--methods", methods,
            ]
        )
        assert rc == 1
        assert "--methods names a method twice" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_is_data_fault(self, tmp_path):
        rc = cli_main(
            ["evaluate", "--dataset", str(tmp_path / "void"), "--out", str(tmp_path / "e"),
             "--methods", "intensity"]
        )
        assert rc == 2

    def test_frame_size_disagreeing_with_intrinsics_is_data_fault(self, dataset, tmp_path, capsys):
        corrupt = tmp_path / "ds"
        shutil.copytree(dataset, corrupt)
        rewrite_first_frame(corrupt / "test", "depth", lambda depth: depth[:16, :16])
        rc = cli_main(["evaluate", "--dataset", str(corrupt), "--out", str(tmp_path / "ev"),
                       "--methods", "intensity", "--candidates", "3"])
        assert rc == 2
        assert "frame_00000.depth: 16x16 does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "align"])
    def test_weights_whose_pyramid_does_not_tile_are_data_fault(self, tmp_path, capsys, command):
        # Four levels halve three times: 36 px sides are not divisible by 8.
        dataset = tmp_path / "ds36"
        assert cli_main(["generate", "--out", str(dataset), "--size", "36", "--frames", "2",
                         "--candidates", "1", "--val-candidates", "0", "--pairs", "1",
                         "--n-pos", "8", "--n-neg", "0"]) == 0
        weights = tmp_path / "w4.gnnw"
        save_network(weights, build_network(NetworkConfig(pyramid_levels=4, base_width=4, descriptor_dim=2)))
        out = tmp_path / "ev"
        argv = {
            "evaluate": ["--out", str(out), "--methods", "intensity,features"],
            "align": ["--method", "features"],
        }[command]
        rc = cli_main([command, "--dataset", str(dataset), "--weights", str(weights)] + argv)
        assert rc == 2
        assert f"{weights}: 4 pyramid levels need image sides divisible by 8" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", ["evaluate", "align"])
    def test_weights_for_multichannel_images_are_data_fault(self, dataset, tmp_path, capsys, command):
        # Every frame has one channel, and so has the network's first layer:
        # an older file whose enc0/w reads three does not match it.
        weights = tmp_path / "rgb.gnnw"
        save_older_layout(weights, build_network(NetworkConfig(base_width=4, descriptor_dim=2)), channels=3)
        out = tmp_path / "ev"
        argv = {
            "evaluate": ["--out", str(out), "--methods", "features", "--candidates", "1"],
            "align": ["--method", "features"],
        }[command]
        rc = cli_main([command, "--dataset", str(dataset), "--weights", str(weights)] + argv)
        assert rc == 2
        assert f"{weights}: weights file does not match declared architecture at enc0/w" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_negative_candidates_is_usage_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "ev5"
        rc = cli_main(
            [
                "evaluate", "--dataset", str(dataset), "--out", str(out),
                "--methods", "intensity", "--candidates", "-1",
            ]
        )
        assert rc == 1
        assert "--candidates must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda raw: raw.update({"head0/b": raw["head0/b"][:-1]}), "head0/b"),
            (lambda raw: raw.pop("config/seed"), "config/seed"),
        ],
        ids=["shape_mismatch", "missing_config"],
    )
    def test_malformed_weights_is_data_fault(self, dataset, weights, tmp_path, capsys, edit, detail):
        raw = load_weights(weights)
        edit(raw)
        bad = tmp_path / "bad.gnnw"
        save_weights(bad, raw)
        rc = cli_main(
            [
                "evaluate", "--dataset", str(dataset), "--out", str(tmp_path / "ev6"),
                "--methods", "features", "--weights", str(bad), "--points", "96",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data fault:") and detail in err

    def test_malformed_manifest_value_is_data_fault(self, dataset, tmp_path, capsys):
        corrupt = tmp_path / "ds"
        shutil.copytree(dataset / "test", corrupt / "test")
        manifest_path = corrupt / "test" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["frames"] = 3
        manifest_path.write_text(json.dumps(manifest))
        rc = cli_main(["evaluate", "--dataset", str(corrupt), "--out", str(tmp_path / "ev7"),
                       "--methods", "intensity"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data fault:")

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda manifest: [1], "not a JSON object"),
            (lambda manifest: manifest["candidates"][0].update(reference_frame=99999) or manifest,
             "names frame 99999"),
            (lambda manifest: manifest["candidates"][0].update(candidate_frame=99999) or manifest,
             "names frame 99999"),
        ],
        ids=["manifest_list", "reference_frame", "candidate_frame"],
    )
    def test_broken_manifest_structure_is_data_fault(self, dataset, tmp_path, capsys, edit, detail):
        corrupt = tmp_path / "ds"
        shutil.copytree(dataset / "test", corrupt / "test")
        manifest_path = corrupt / "test" / "manifest.json"
        manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
        rc = cli_main(["evaluate", "--dataset", str(corrupt), "--out", str(tmp_path / "ev8"),
                       "--methods", "intensity", "--candidates", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data fault:") and detail in err


class TestTrain:
    def test_correspondence_naming_no_frame_is_data_fault(self, dataset, tmp_path, capsys):
        corrupt = tmp_path / "ds"
        shutil.copytree(dataset / "train", corrupt / "train")
        path = corrupt / "train" / "correspondences.txt"
        lines = path.read_text().splitlines()
        lines[0] = " ".join(["99999"] + lines[0].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "w" / "w.gnnw"
        rc = cli_main(["train", "--dataset", str(corrupt), "--out", str(out), "--epochs", "1",
                       "--val-candidates", "0"])
        assert rc == 2
        assert "names frame 99999" in capsys.readouterr().err

    def test_broken_val_split_is_data_fault_before_any_output(self, dataset, tmp_path, capsys):
        corrupt = tmp_path / "ds"
        shutil.copytree(dataset, corrupt)
        (corrupt / "val" / "manifest.json").write_text("{")
        out = tmp_path / "w" / "w.gnnw"
        rc = cli_main(["train", "--dataset", str(corrupt), "--out", str(out), "--epochs", "1", "--levels", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data fault: {corrupt / 'val' / 'manifest.json'}:")
        assert not out.parent.exists()

    def test_untileable_val_split_is_data_fault_before_any_output(self, dataset, tmp_path, capsys):
        # 3 levels need sides divisible by 4; the generator writes none that is not.
        config = SceneConfig(width=34, height=34, cx=16.5, cy=16.5, n_frames=2, n_candidates=1)
        corrupt = tmp_path / "ds"
        shutil.copytree(dataset / "train", corrupt / "train")
        write_split(corrupt / "val", generate_scene(3, config))
        out = tmp_path / "w" / "w.gnnw"
        rc = cli_main(["train", "--dataset", str(corrupt), "--out", str(out), "--epochs", "1", "--levels", "3"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"data fault: {corrupt / 'val'}: 3 pyramid levels need image sides divisible by 4, got 34x34"
        )
        assert not out.parent.exists()

    def test_split_without_correspondences_is_data_fault_before_any_output(self, dataset, tmp_path, capsys):
        corrupt = tmp_path / "ds"
        shutil.copytree(dataset, corrupt)
        manifest = corrupt / "train" / "manifest.json"
        manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), correspondence_file=None)))
        out = tmp_path / "w" / "w.gnnw"
        rc = cli_main(["train", "--dataset", str(corrupt), "--out", str(out), "--epochs", "1", "--levels", "2"])
        assert rc == 2
        assert capsys.readouterr().err == f"data fault: {corrupt / 'train'}: split carries no correspondences\n"
        assert not out.parent.exists()

    def test_relative_log_path_and_its_directory_created(self, dataset, tmp_path, monkeypatch):
        # --log is read relative to the working directory like --out, and
        # its directory is created.
        monkeypatch.chdir(tmp_path)
        rc = cli_main(
            [
                "train", "--dataset", str(dataset), "--out", "w/w.gnnw", "--log", "logs/a/l.csv",
                "--epochs", "1", "--base-width", "4", "--descriptor-dim", "4", "--levels", "2",
                "--val-candidates", "0",
            ]
        )
        assert rc == 0
        assert (tmp_path / "w" / "w.gnnw").exists()
        assert (tmp_path / "logs" / "a" / "l.csv").read_text().startswith("epoch,total,")
        assert not (tmp_path / "w" / "w.log.csv").exists()

    def test_two_trainings_into_one_directory_keep_both_echoes(self, dataset, tmp_path):
        for name, gn_weight in (("gn", "0.5"), ("contrastive", "0")):
            rc = cli_main(
                [
                    "train", "--dataset", str(dataset), "--out", str(tmp_path / f"{name}.gnnw"),
                    "--gn-weight", gn_weight, "--epochs", "1", "--base-width", "4",
                    "--descriptor-dim", "4", "--levels", "2", "--val-candidates", "0",
                ]
            )
            assert rc == 0
        for name, gn_weight in (("gn", 0.5), ("contrastive", 0.0)):
            echo = json.loads((tmp_path / f"{name}.run_config.json").read_text())
            assert echo["command"] == "train"
            assert echo["arguments"]["gn_weight"] == gn_weight
            assert echo["arguments"]["out"] == str(tmp_path / f"{name}.gnnw")
        assert not (tmp_path / "run_config.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--levels", "1"],
            # Level 3 of a 32-px image is 4 px; level 6 does not tile it.
            pytest.param(["--levels", "4"], id="--levels 4"),
            pytest.param(["--levels", "7"], id="--levels 7"),
            ["--vicinity", "0.5"],
            ["--descriptor-dim", "0"],
            ["--epsilon", "0"],
            ["--starts-per-match", "2"],
            ["--epochs", "0"],
            ["--lr", "-1"],
            ["--val-candidates", "-2"],
            # Non-finite values fail before training starts, not inside it.
            pytest.param(["--gn-weight", "nan"], id="--gn-weight nan"),
            pytest.param(["--gn-weight", "inf"], id="--gn-weight inf"),
            pytest.param(["--vicinity", "nan"], id="--vicinity nan"),
            pytest.param(["--epsilon", "nan"], id="--epsilon nan"),
            pytest.param(["--lr", "inf"], id="--lr inf"),
        ],
        ids=lambda flags: flags[0],
    )
    def test_bad_argument_is_usage_error(self, dataset, tmp_path, capsys, flags):
        out = tmp_path / "w" / "w.gnnw"
        rc = cli_main(["train", "--dataset", str(dataset), "--out", str(out)] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        if flags == ["--levels", "4"]:
            # generate keeps every match 6 px inside the frame, which 3 levels hold.
            assert "the stored matches allow at most --levels 3" in err
        assert not out.parent.exists()


def train_argv(tmp_path):
    """A one-epoch ``train`` run, less its ``--dataset``."""
    return ["train", "--out", str(tmp_path / "w.gnnw"), "--epochs", "1", "--levels", "2",
            "--base-width", "4", "--descriptor-dim", "4", "--val-candidates", "0"]


def evaluate_argv(tmp_path):
    """An intensity ``evaluate`` run, less its ``--dataset``."""
    return ["evaluate", "--out", str(tmp_path / "ev"), "--methods", "intensity"]


def edit_first_match(value):
    """Case: sets u_b of the first training match to ``value``; ``train`` reads it."""

    def edit(dataset, weights, tmp_path):
        path = dataset / "train" / "correspondences.txt"
        lines = path.read_text().splitlines()
        parts = lines[0].split()
        parts[4] = value
        lines[0] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        detail = f"correspondences ({parts[0]}, {parts[1]}) hold a non-finite coordinate"
        return path, detail, train_argv(tmp_path)

    return edit


def edit_match_frame_id_not_int(dataset, weights, tmp_path):
    """Case: the first training match's frame id set to ``x1``; ``train`` reads it."""
    path = dataset / "train" / "correspondences.txt"
    lines = path.read_text().splitlines()
    lines[0] = "x1 " + lines[0].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    return path, f"{path}:1: frame id or coordinate is not a number", train_argv(tmp_path)


def weights_reader_argv(command, tmp_path, weights):
    """An ``evaluate`` or ``align`` run of the features method on ``weights``, less its ``--dataset``."""
    argv = {
        "evaluate": ["evaluate", "--out", str(tmp_path / "ev"), "--methods", "features"],
        "align": ["align", "--method", "features"],
    }[command]
    return argv + ["--weights", str(weights)]


def edit_weight_to_nan(command):
    """Case: one network parameter set to NaN; ``evaluate`` or ``align`` loads it."""

    def edit(dataset, weights, tmp_path):
        raw = load_weights(weights)
        raw["head0/w"].flat[0] = np.nan
        path = tmp_path / "nan.gnnw"
        save_weights(path, raw)
        return path, "parameter head0/w holds non-finite values", weights_reader_argv(command, tmp_path, path)

    return edit


def edit_weights_to_directory(command):
    """Case: ``--weights`` names a directory; ``evaluate`` or ``align`` loads it."""

    def edit(dataset, weights, tmp_path):
        path = tmp_path / "weights_dir"
        path.mkdir()
        return path, "cannot read", weights_reader_argv(command, tmp_path, path)

    return edit


def edit_split_file_to_directory(split, name, argv):
    """Case: the file ``name`` of ``split`` (``"image"``: its first frame's
    image) replaced by an empty directory; the command ``argv(tmp_path)`` reads it."""

    def edit(dataset, weights, tmp_path):
        root = dataset / split
        if name == "image":
            path = root / json.loads((root / "manifest.json").read_text())["frames"][0]["image"]
        else:
            path = root / name
        path.unlink()
        path.mkdir()
        return path, "cannot read", argv(tmp_path)

    return edit


def edit_manifest_not_utf8(dataset, weights, tmp_path):
    """Case: a byte that is not UTF-8 in the test manifest; ``evaluate`` reads it."""
    path = dataset / "test" / "manifest.json"
    path.write_bytes(b"\xff" + path.read_bytes())
    return path, "not UTF-8", evaluate_argv(tmp_path)


def edit_weights_bytes(change):
    """Case: the weights file's bytes edited by ``change``; ``align`` loads it."""

    def edit(dataset, weights, tmp_path):
        path = tmp_path / "edited.gnnw"
        blob, detail = change(weights.read_bytes())
        path.write_bytes(blob)
        return path, detail, ["align", "--method", "features", "--weights", str(path)]

    return edit


def name_not_utf8(blob):
    # Byte 16 is the first byte of the first parameter's name.
    return blob[:16] + b"\xff" + blob[17:], "is not valid UTF-8"


def trailing_bytes(blob):
    return blob + bytes(8), "8 bytes after the last parameter"


def extents_product_wraps(blob):
    # The first parameter, a scalar, gets rank 3 and extents 2^31, 2^31 and 4:
    # their product, 2^64, is 0 in int64 arithmetic.
    at = 16 + struct.unpack_from("<I", blob, 12)[0]
    assert struct.unpack_from("<I", blob, at)[0] == 0
    return blob[:at] + struct.pack("<4I", 3, 2**31, 2**31, 4) + blob[at + 4 :], "bytes early"


def repeated_name(blob):
    # enc0/b, the parameter after enc0/w, takes its name.
    return blob.replace(b"enc0/b", b"enc0/w", 1), "parameter enc0/w appears twice"


def edit_config_scalar(key, value):
    """Case: the weights file's ``config/<key>`` scalar set to ``value``; ``align`` loads it."""

    def edit(dataset, weights, tmp_path):
        raw = load_weights(weights)
        raw["config/" + key] = np.asarray(value)
        path = tmp_path / "config.gnnw"
        save_weights(path, raw)
        return path, f"config/{key} holds {value}, not a finite integer", [
            "align", "--method", "features", "--weights", str(path)
        ]

    return edit


def edit_frame_bytes_after_payload(kind, payload):
    """Case: 8 bytes appended to the first test frame's ``kind`` file, its
    checksum re-recorded; ``evaluate`` reads it."""

    def edit(dataset, weights, tmp_path):
        path = append_to_first_frame(dataset / "test", kind, bytes(8))
        return path, f"8 bytes after the {payload} payload", ["evaluate", "--out", str(tmp_path / "ev"),
                                                              "--methods", "intensity"]

    return edit


def edit_focal_to_nan(dataset, weights, tmp_path):
    """Case: a NaN focal length in the test manifest; ``evaluate`` reads it."""
    path = dataset / "test" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["intrinsics"]["fx"] = float("nan")
    path.write_text(json.dumps(manifest))
    return path, "focal lengths must be finite and positive", ["evaluate", "--out", str(tmp_path / "ev"),
                                                               "--methods", "intensity"]


def edit_test_pose(owner, change, detail):
    """Case: a test-manifest pose (``"candidate"``: candidate 0's ``relative_pose``,
    ``"frame"``: the first frame's ``pose``) edited by ``change``; ``evaluate`` reads it."""

    def edit(dataset, weights, tmp_path):
        path = dataset / "test" / "manifest.json"
        manifest = json.loads(path.read_text())
        if owner == "candidate":
            record, key, name = manifest["candidates"][0], "relative_pose", "candidate 0 relative_pose"
        else:
            record, key = manifest["frames"][0], "pose"
            name = f"frame {record['id']} pose"
        change(record[key])
        path.write_text(json.dumps(manifest))
        return path, f"{name}: {detail}", ["evaluate", "--out", str(tmp_path / "ev"), "--methods", "intensity",
                                           "--candidates", "2"]

    return edit


def set_entry(index, value):
    def change(pose):
        pose[index] = value

    return change


def scale_entry(index, factor):
    def change(pose):
        pose[index] *= factor

    return change


def reflect_first_axis(pose):
    # Negating the rotation's first column keeps it orthonormal but makes det -1.
    for index in (0, 4, 8):
        pose[index] = -pose[index]


class TestInputFaults:
    """A bad value in a file a command reads is a data fault naming the file."""

    @pytest.mark.parametrize(
        "edit",
        [
            edit_first_match("nan"),
            edit_first_match("40.0"),
            edit_match_frame_id_not_int,
            edit_weight_to_nan("evaluate"),
            edit_weight_to_nan("align"),
            edit_focal_to_nan,
            edit_frame_bytes_after_payload("image", "PGM"),
            edit_frame_bytes_after_payload("depth", "depth"),
            edit_weights_bytes(name_not_utf8),
            edit_weights_bytes(trailing_bytes),
            edit_weights_bytes(repeated_name),
            edit_weights_bytes(extents_product_wraps),
            edit_weights_to_directory("evaluate"),
            edit_weights_to_directory("align"),
            edit_split_file_to_directory("test", "image", evaluate_argv),
            edit_split_file_to_directory("test", "manifest.json", evaluate_argv),
            edit_split_file_to_directory("train", "correspondences.txt", train_argv),
            edit_manifest_not_utf8,
            edit_config_scalar("seed", np.inf),
            edit_config_scalar("descriptor_dim", 4.5),
            edit_test_pose("candidate", set_entry(3, float("nan")), "pose matrix holds a non-finite entry"),
            edit_test_pose("frame", set_entry(7, float("inf")), "pose matrix holds a non-finite entry"),
            edit_test_pose("frame", set_entry(15, 2.0), "pose matrix's last row is not [0, 0, 0, 1]"),
            edit_test_pose("candidate", set_entry(12, 0.5), "pose matrix's last row is not [0, 0, 0, 1]"),
            edit_test_pose("candidate", scale_entry(0, 1.001), "pose rotation is not orthonormal with det +1"),
            edit_test_pose("frame", reflect_first_axis, "pose rotation is not orthonormal with det +1"),
        ],
        ids=["match_nan", "match_outside_frame", "match_frame_id_not_int", "weight_nan-evaluate",
             "weight_nan-align", "focal_nan", "image_bytes_after_payload", "depth_bytes_after_payload",
             "weights_name_not_utf8", "weights_trailing_bytes", "weights_repeated_name",
             "weights_extents_product_wraps", "weights_directory-evaluate", "weights_directory-align",
             "frame_image_directory", "manifest_directory", "correspondences_directory",
             "manifest_not_utf8",
             "weights_config_inf", "weights_config_fraction", "candidate_pose_nan", "frame_pose_inf",
             "frame_pose_last_row", "candidate_pose_last_row", "candidate_pose_not_orthonormal",
             "frame_pose_reflection"],
    )
    def test_bad_value_is_data_fault(self, dataset, weights, tmp_path, capsys, edit):
        corrupt = tmp_path / "ds"
        shutil.copytree(dataset, corrupt)
        path, detail, argv = edit(corrupt, weights, tmp_path)
        rc = cli_main(argv[:1] + ["--dataset", str(corrupt)] + argv[1:])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data fault: {path}:") and detail in err


def run_with_blas_threads(threads: str, argv: list) -> None:
    """Runs ``featalign argv`` in a fresh process pinned to ``threads`` BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "featalign"] + argv,
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestThreadCountDeterminism:
    def test_evaluate_byte_identical_with_one_and_two_blas_threads(self, tmp_path):
        # 64x64 frames, 8-D descriptors and the default 512 requested points
        # give pose systems of up to about 2,000 rows and convolutions of
        # full image size, so the BLAS calls are not trivially small.
        dataset, weights = tmp_path / "ds", tmp_path / "w.gnnw"
        assert cli_main(["generate", "--out", str(dataset), "--seed", "4", "--frames", "4",
                         "--candidates", "4", "--val-candidates", "0", "--pairs", "2",
                         "--n-pos", "32", "--n-neg", "32"]) == 0
        assert cli_main(["train", "--dataset", str(dataset), "--out", str(weights), "--epochs", "1",
                         "--base-width", "4", "--val-candidates", "0"]) == 0
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"ev_{threads}"
            run_with_blas_threads(threads, ["evaluate", "--dataset", str(dataset), "--out", str(out),
                                            "--methods", "intensity,features", "--weights", str(weights)])
            names = ["summary.json", "curve_intensity.csv", "curve_features.csv"]
            outputs.append({name: (out / name).read_bytes() for name in names})
        assert outputs[0] == outputs[1]

    def test_train_byte_identical_with_one_and_two_blas_threads(self, tmp_path):
        # The default network at 64x64: its convolution GEMMs sum over up to
        # 4,356 pixels, large enough for OpenBLAS to split them across threads.
        dataset = tmp_path / "ds"
        assert cli_main(["generate", "--out", str(dataset), "--seed", "4", "--frames", "4",
                         "--candidates", "0", "--val-candidates", "2", "--pairs", "2",
                         "--n-pos", "32", "--n-neg", "32"]) == 0
        outputs = []
        for threads in ("1", "2"):
            weights = tmp_path / f"w_{threads}.gnnw"
            run_with_blas_threads(threads, ["train", "--dataset", str(dataset), "--out", str(weights),
                                            "--epochs", "2", "--val-candidates", "2"])
            outputs.append((weights.read_bytes(), weights.with_suffix(".log.csv").read_bytes()))
        assert outputs[0] == outputs[1]


# The variables ``python -m featalign`` pins. Running its ``main`` here would
# set them for every later subprocess of the test run.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def entry_point_environment(**preset) -> dict:
    """The thread variables after ``featalign --version`` in a fresh interpreter.

    Starts with none of them set, then ``preset``. Also reports whether
    importing the entry point loaded numpy, which must wait for the pins.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, os, sys\n"
        "import featalign.__main__ as entry_point\n"
        "numpy_on_import = 'numpy' in sys.modules\n"
        "sys.argv = ['featalign', '--version']\n"
        "try:\n"
        "    entry_point.main()\n"
        "except SystemExit:\n"
        "    pass\n"
        f"names = {THREAD_VARIABLES}\n"
        "print(json.dumps(dict(numpy=numpy_on_import, **{k: os.environ.get(k) for k in names})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


class TestThreadPins:
    def test_entry_point_pins_one_thread_before_numpy(self):
        got = entry_point_environment()
        assert got.pop("numpy") is False
        assert got == {name: "1" for name in THREAD_VARIABLES}

    def test_entry_point_keeps_a_set_count(self):
        got = entry_point_environment(OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="2")
        assert got["OPENBLAS_NUM_THREADS"] == "3" and got["OMP_NUM_THREADS"] == "2"
        assert got["MKL_NUM_THREADS"] == "1"

    def test_console_script_runs_the_entry_point(self):
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"featalign": "featalign.__main__:main"}


def fake_libc(calls: list) -> SimpleNamespace:
    """A C library whose ``mallopt`` records its (param, value) calls."""

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    return SimpleNamespace(mallopt=mallopt)


# Runs ``featalign.cli.main`` twice on the argv given as JSON and prints the
# minor page faults each call took.
FAULTS_PER_CALL = (
    "import json, resource, sys\n"
    "from featalign.cli import main\n"
    "argv = json.loads(sys.argv[1])\n"
    "faults = []\n"
    "for _ in range(2):\n"
    "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "    assert main(argv) == 0\n"
    "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    "print(json.dumps(faults))\n"
)


@pytest.fixture(scope="module")
def golden_split(tmp_path_factory):
    """The golden-tracks split and default-network weights trained on it."""
    from test_golden_tracks import GEN_ARGS as GOLDEN_GEN_ARGS

    root = tmp_path_factory.mktemp("golden_split")
    assert cli_main(["generate", "--out", str(root)] + GOLDEN_GEN_ARGS) == 0
    assert cli_main(["train", "--dataset", str(root), "--out", str(root / "w.gnnw"), "--epochs", "1"]) == 0
    return root


class TestAllocatorPolicy:
    def test_main_sets_both_thresholds(self, monkeypatch):
        calls = []
        libc = fake_libc(calls)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert cli_main(["gradcheck", "--seed", "-1"]) == 1
        assert (cli_mod.M_MMAP_THRESHOLD, cli_mod.M_TRIM_THRESHOLD) == (-3, -1)
        assert calls == [(-3, 32 * 2**20), (-1, 2**30)]
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert libc.mallopt.restype is ctypes.c_int

    def test_no_mallopt_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
        cli_mod.keep_freed_heap()

    def test_no_c_library_is_left_alone(self, monkeypatch):
        def unavailable(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", unavailable)
        cli_mod.keep_freed_heap()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc's mallopt")
    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_second_call_reuses_the_freed_heap(self, golden_split, tmp_path, command):
        # Without the policy a second evaluate call faults in about 15,000
        # pages and a second 2-epoch train call about 2,400.
        argv = {
            "evaluate": ["evaluate", "--dataset", str(golden_split), "--out", str(tmp_path / "ev"),
                         "--methods", "features,intensity", "--weights", str(golden_split / "w.gnnw")],
            "train": ["train", "--dataset", str(golden_split), "--out", str(tmp_path / "w.gnnw"),
                      "--epochs", "2"],
        }[command]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL, json.dumps(argv)],
                              capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        first, second = json.loads(proc.stdout.splitlines()[-1])
        assert second < 2000, f"second {command} call took {second} minor faults (first {first})"


class TestAlign:
    def test_prints_result_json(self, dataset, capsys):
        rc = cli_main(["align", "--dataset", str(dataset), "--candidate", "0",
                       "--method", "intensity", "--points", "96"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"converged", "pose", "translation_error"} <= set(payload)

    def test_candidate_out_of_range(self, dataset):
        rc = cli_main(["align", "--dataset", str(dataset), "--candidate", "99"])
        assert rc == 1

    @pytest.mark.parametrize("command", ["align", "evaluate"])
    def test_split_without_candidates_is_data_fault(self, dataset, tmp_path, capsys, command):
        # The train split holds no relocalization candidates: a fault of the
        # data, not of --candidate, and the same fault for both commands.
        extra = ["--out", str(tmp_path / "ev"), "--methods", "intensity"] if command == "evaluate" else []
        rc = cli_main([command, "--dataset", str(dataset), "--split", "train"] + extra)
        assert rc == 2
        assert capsys.readouterr().err == "data fault: split 'train' has no relocalization candidates\n"

    def test_too_few_points_is_tracking_failure(self, dataset, capsys):
        # Same outcome as `evaluate` scores for the candidate: a failed track.
        rc = cli_main(["align", "--dataset", str(dataset), "--candidate", "0",
                       "--method", "intensity", "--points", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject_non_json_constant)
        assert payload["converged"] is False
        assert payload["iterations"] == 0
        assert payload["final_residual"] is None

    def test_corrupt_depth_is_data_fault(self, dataset, tmp_path):
        corrupt = tmp_path / "ds"
        shutil.copytree(dataset, corrupt)
        corrupt_depth(corrupt / "test", float("nan"))
        assert cli_main(["align", "--dataset", str(corrupt)]) == 2
        rc = cli_main(["evaluate", "--dataset", str(corrupt), "--out", str(tmp_path / "ev"),
                       "--methods", "intensity"])
        assert rc == 2


class TestGradcheckCommand:
    def test_passes_on_default_seed(self, capsys):
        assert cli_main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "all gradient checks passed" in out
        assert "network+losses" in out

    def test_sabotaged_backward_rule_fails(self, monkeypatch, capsys):
        original = tensor_mod._relu_grad
        monkeypatch.setattr(
            tensor_mod, "_relu_grad", lambda x, g: original(x, g) * 1.05
        )
        rc = cli_main(["gradcheck"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_report_lists_every_block(self):
        reports = run_gradcheck(seed=2)
        names = {r.name for r in reports}
        assert {
            "conv2d", "upsample_concat_conv", "bilinear_sample", "central_difference", "inv2x2", "network+losses",
        } <= names
        assert all(r.max_relative_error < 1e-4 for r in reports)


class TestUsage:
    @pytest.mark.parametrize("points", ["0", "-3"])
    @pytest.mark.parametrize("command", ["evaluate", "align"])
    def test_points_below_one_is_usage_error(self, dataset, tmp_path, capsys, command, points):
        out = tmp_path / "ev"
        extra = ["--out", str(out)] if command == "evaluate" else []
        rc = cli_main([command, "--dataset", str(dataset), "--points", points] + extra)
        assert rc == 1
        assert "--points must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train", "gradcheck"])
    def test_negative_seed_is_usage_error(self, dataset, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--out", str(out)],
            "train": ["train", "--dataset", str(dataset), "--out", str(out / "w.gnnw"), "--epochs", "1"],
            "gradcheck": ["gradcheck"],
        }[command]
        assert cli_main(argv + ["--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_no_command_is_usage_error(self):
        assert cli_main([]) == 1

    def test_bad_flag_is_usage_error(self):
        assert cli_main(["generate", "--out", "x", "--no-such-flag"]) == 1

    def test_relative_paths_read_from_working_directory(self, tmp_path, monkeypatch):
        # A stray FEATALIGN_OUTPUT_ROOT changes nothing: an output and the
        # input that reads it back share one meaning of a relative path.
        monkeypatch.setenv("FEATALIGN_OUTPUT_ROOT", str(tmp_path / "root"))
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert cli_main(["generate", "--out", "nested/ds"] + GEN_ARGS) == 0
        assert cli_main(["evaluate", "--dataset", "nested/ds", "--out", "ev", "--methods", "intensity",
                         "--points", "96", "--candidates", "1"]) == 0
        assert (tmp_path / "work" / "nested" / "ds" / "train" / "manifest.json").exists()
        assert (tmp_path / "work" / "ev" / "summary.json").exists()
        assert not (tmp_path / "root").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["evaluate", "--methods", "intensity,features"], "--weights"),
            (["evaluate", "--methods", "contrastive", "--weights", "w.gnnw"], "--contrastive-weights"),
            (["align", "--method", "features"], "--weights"),
        ],
        ids=["evaluate-features", "evaluate-contrastive", "align-features"],
    )
    def test_learned_method_without_weights_flag(self, tmp_path, capsys, argv, flag):
        # No dataset exists there: the flag is checked before any split is read.
        out = tmp_path / "ev"
        extra = ["--out", str(out)] if argv[0] == "evaluate" else []
        rc = cli_main(argv + ["--dataset", str(tmp_path / "void")] + extra)
        assert rc == 1
        method = "features" if flag == "--weights" else "contrastive"
        assert capsys.readouterr().err == f"usage error: method '{method}' needs {flag}\n"
        assert not out.exists()


def no_work(*args, **kwargs):
    raise AssertionError("the command started its work before checking its output place")


class TestOutputPlace:
    """An output place that cannot be made is a usage error, found before any work."""

    @pytest.mark.parametrize(
        "out_under_file, log_under_file, detail",
        [
            (True, False, "--out: cannot create directory {blocker}"),
            (False, True, "--log: cannot create directory {blocker}"),
        ],
        ids=["out", "log"],
    )
    def test_train_output_under_a_file(self, dataset, tmp_path, capsys, monkeypatch,
                                       out_under_file, log_under_file, detail):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(cli_mod, "train_network", no_work)
        out = (blocker if out_under_file else tmp_path / "w") / "w.gnnw"
        log = (blocker if log_under_file else tmp_path / "logs") / "w.csv"
        rc = cli_main(["train", "--dataset", str(dataset), "--out", str(out), "--log", str(log),
                       "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error: " + detail.format(blocker=blocker))

    def test_train_out_is_a_directory(self, dataset, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "train_network", no_work)
        rc = cli_main(["train", "--dataset", str(dataset), "--out", str(tmp_path), "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"usage error: --out: {tmp_path} is a directory")

    @pytest.mark.parametrize("nested", [False, True], ids=["file", "under_file"])
    def test_evaluate_out_on_or_under_a_file(self, dataset, tmp_path, capsys, monkeypatch, nested):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(cli_mod, "run_relocalization", no_work)
        out = blocker / "ev" if nested else blocker
        rc = cli_main(["evaluate", "--dataset", str(dataset), "--out", str(out), "--methods", "intensity"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"usage error: --out: cannot create directory {out}")
        assert blocker.read_text() == ""

    def test_generate_out_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = cli_main(["generate", "--out", str(blocker / "ds")] + GEN_ARGS)
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"usage error: --out: cannot create directory {blocker / 'ds'}")

"""Dataset serialization: lossless round-trips and distinct fault paths."""

import json
from pathlib import Path

import numpy as np
import pytest

from featalign.bench.dataset_io import (
    read_correspondences,
    read_depth,
    read_pgm,
    read_split,
    write_correspondences,
    write_depth,
    write_pgm,
    write_split,
)
from featalign.bench.scene import ConditionTransform, SceneConfig, generate_scene, make_correspondences
from featalign.errors import DataFault

from helpers import append_to_first_frame, corrupt_depth, rewrite_first_frame


@pytest.fixture(scope="module")
def scene():
    cfg = SceneConfig(
        n_frames=3,
        n_candidates=2,
        conditions=(ConditionTransform(gamma=1.3),),
    )
    return generate_scene(21, cfg)


@pytest.fixture(scope="module")
def correspondences(scene):
    return [
        make_correspondences(scene, 0, 1, 16, 16, seed=1),
        make_correspondences(scene, 1, 5, 16, 16, seed=2),
    ]


class TestPrimitivesIO:
    def test_pgm_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(12, 17))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(p1, img)
        write_pgm(p2, read_pgm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_depth_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        depth = rng.uniform(1.0, 9.0, size=(9, 13))
        path = tmp_path / "d.depth"
        write_depth(path, depth)
        out = read_depth(path)
        assert out.tobytes() == depth.tobytes()

    def test_depth_truncated(self, tmp_path):
        path = tmp_path / "d.depth"
        write_depth(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataFault, match="depth payload ends 3 bytes early"):
            read_depth(path)

    def test_pgm_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(DataFault, match="not a binary PGM file"):
            read_pgm(path)

    @pytest.mark.parametrize("size", [b"2 x", b"2", b"-2 -2"], ids=["not_int", "one_value", "negative"])
    def test_pgm_bad_size_header(self, tmp_path, size):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(12))
        with pytest.raises(DataFault, match="malformed PGM header"):
            read_pgm(path)

    def test_correspondence_roundtrip(self, tmp_path, correspondences):
        p1 = tmp_path / "c1.txt"
        p2 = tmp_path / "c2.txt"
        write_correspondences(p1, correspondences)
        write_correspondences(p2, read_correspondences(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_correspondence_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2.0 3.0 4.0\n")
        with pytest.raises(DataFault):
            read_correspondences(path)

    @pytest.mark.parametrize("line", [b"0 1 2.0 x3 4.0 5.0 pos", b"0 1 2.0 3.\xff 4.0 5.0 neg"],
                             ids=["coordinate_not_float", "not_utf8"])
    def test_correspondence_not_a_number(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1 2.0 3.0 4.0 5.0 pos\n" + line + b"\n")
        with pytest.raises(DataFault, match=r"bad\.txt:2: frame id or coordinate is not a number"):
            read_correspondences(path)


class TestSplitIO:
    def test_write_read_write_bit_identical(self, tmp_path, scene, correspondences):
        d1 = tmp_path / "split1"
        write_split(d1, scene, correspondences, config_echo={"n_frames": 3})
        split = read_split(d1)
        assert len(split.frames) == len(scene.frames)
        assert len(split.candidates) == 2
        assert len(split.correspondences) == 2
        # Depth survives bit-exactly; poses round-trip through JSON repr.
        for frame in scene.frames:
            loaded = split.frames[frame.frame_id]
            assert loaded.depth.tobytes() == frame.depth.tobytes()
            np.testing.assert_array_equal(loaded.pose.matrix(), frame.pose.matrix())
        # Write the loaded data back out: byte-identical files.
        from featalign.bench.scene import SyntheticScene

        reloaded = SyntheticScene(scene.config, scene.seed, [], [], scene.trajectory)
        for frame in scene.frames:
            lf = split.frames[frame.frame_id]
            from featalign.bench.scene import Frame

            reloaded.frames.append(
                Frame(lf.frame_id, lf.image, lf.depth, lf.pose, lf.condition_id,
                      lf.sequence, lf.index)
            )
        reloaded.candidates = split.candidates
        d2 = tmp_path / "split2"
        write_split(d2, reloaded, split.correspondences, config_echo={"n_frames": 3})
        for rel in ["manifest.json", "correspondences.txt"]:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel
        for frame_file in sorted((d1 / "frames").iterdir()):
            assert frame_file.read_bytes() == (d2 / "frames" / frame_file.name).read_bytes()

    def test_loaded_frames_have_generated_layout(self, tmp_path, scene):
        write_split(tmp_path / "split", scene, None)
        split = read_split(tmp_path / "split")
        for frame in scene.frames:
            loaded = split.frames[frame.frame_id].image
            assert (loaded.shape, loaded.dtype) == (frame.image.shape, frame.image.dtype)

    def test_roundtrip_property_many_depths(self, tmp_path):
        # Criterion-7 suite: dataset round-trip bit-exactness, >= 1000 cases.
        rng = np.random.default_rng(2)
        for case in range(1000):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            depth = rng.uniform(0.1, 100.0, size=shape)
            path = tmp_path / f"d{case % 4}.depth"
            write_depth(path, depth)
            assert read_depth(path).tobytes() == depth.tobytes()

    def test_corrupted_magic_is_version_fault(self, tmp_path, scene):
        d = tmp_path / "split"
        write_split(d, scene, None)
        manifest = d / "manifest.json"
        text = manifest.read_text().replace('"format_version": 1', '"format_version": 9')
        manifest.write_text(text)
        with pytest.raises(DataFault, match="format version 9 unsupported"):
            read_split(d)

    def test_checksum_fault(self, tmp_path, scene):
        d = tmp_path / "split"
        write_split(d, scene, None)
        victim = sorted((d / "frames").glob("*.depth"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(DataFault, match=r"frame_00000\.depth: checksum mismatch"):
            read_split(d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_nonfinite_or_nonpositive_depth_is_data_fault(self, tmp_path, scene, bad):
        d = tmp_path / "split"
        write_split(d, scene, None)
        corrupt_depth(d, bad)
        with pytest.raises(DataFault, match="finite and positive"):
            read_split(d)

    @pytest.mark.parametrize("kind, suffix", [("image", "pgm"), ("depth", "depth")])
    def test_frame_size_disagreeing_with_intrinsics_is_data_fault(self, tmp_path, scene, kind, suffix):
        d = tmp_path / "split"
        write_split(d, scene, None)
        rewrite_first_frame(d, kind, lambda array: array[:32, :32])
        with pytest.raises(DataFault, match=rf"frame_00000\.{suffix}: 32x32 does not match the 64x64"):
            read_split(d)

    @pytest.mark.parametrize("kind, suffix, payload", [("image", "pgm", "PGM"), ("depth", "depth", "depth")])
    def test_bytes_after_frame_payload_is_data_fault(self, tmp_path, scene, kind, suffix, payload):
        # The checksum covers the extra bytes, so only the reader can reject them.
        d = tmp_path / "split"
        write_split(d, scene, None)
        append_to_first_frame(d, kind, bytes(8))
        with pytest.raises(DataFault, match=rf"frame_00000\.{suffix}: 8 bytes after the {payload} payload"):
            read_split(d)

    def test_missing_file_is_data_fault(self, tmp_path, scene):
        d = tmp_path / "split"
        write_split(d, scene, None)
        sorted((d / "frames").glob("*.pgm"))[0].unlink()
        with pytest.raises(DataFault):
            read_split(d)

    def test_each_file_read_once(self, tmp_path, scene, correspondences, monkeypatch):
        # The checksummed bytes of a frame file are the ones decoded.
        d = tmp_path / "split"
        write_split(d, scene, correspondences)
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path.name) or read_bytes(path))
        read_split(d)
        expected = ["manifest.json", "correspondences.txt"]
        expected += [f"frame_{frame.frame_id:05d}.{suffix}" for frame in scene.frames for suffix in ("pgm", "depth")]
        assert sorted(reads) == sorted(expected)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataFault):
            read_split(tmp_path / "nowhere")

    @pytest.mark.parametrize("key", ["intrinsics", "frames", "candidates"])
    def test_missing_manifest_key_is_data_fault(self, tmp_path, scene, key):
        d = tmp_path / "split"
        write_split(d, scene, None)
        manifest = json.loads((d / "manifest.json").read_text())
        del manifest[key]
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFault, match=key):
            read_split(d)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda manifest: manifest.update(frames=3),
            lambda manifest: manifest["intrinsics"].update(fx=-1.0),
            lambda manifest: manifest["intrinsics"].update(fy=float("nan")),
            lambda manifest: manifest.update(candidates=[1]),
        ],
        ids=["frames_int", "negative_fx", "nan_fy", "candidate_int"],
    )
    def test_malformed_manifest_value_is_data_fault(self, tmp_path, scene, edit):
        d = tmp_path / "split"
        write_split(d, scene, None)
        manifest = json.loads((d / "manifest.json").read_text())
        edit(manifest)
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFault, match="malformed value"):
            read_split(d)

    def test_repeated_frame_id_is_data_fault(self, tmp_path, scene):
        d = tmp_path / "split"
        write_split(d, scene, None)
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["frames"][1]["id"] = manifest["frames"][0]["id"]
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFault, match="frame 0 appears twice"):
            read_split(d)

    def test_manifest_not_an_object_is_data_fault(self, tmp_path, scene):
        d = tmp_path / "split"
        write_split(d, scene, None)
        (d / "manifest.json").write_text("[1]")
        with pytest.raises(DataFault, match="not a JSON object"):
            read_split(d)

    @pytest.mark.parametrize("key", ["reference_frame", "candidate_frame"])
    def test_candidate_naming_no_frame_is_data_fault(self, tmp_path, scene, key):
        d = tmp_path / "split"
        write_split(d, scene, None)
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["candidates"][0][key] = 99999
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFault, match="candidate 0 names frame 99999"):
            read_split(d)

    def test_correspondence_naming_no_frame_is_data_fault(self, tmp_path, scene, correspondences):
        d = tmp_path / "split"
        write_split(d, scene, correspondences)
        path = d / "correspondences.txt"
        lines = path.read_text().splitlines()
        lines[0] = " ".join(["99999"] + lines[0].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFault, match="names frame 99999"):
            read_split(d)

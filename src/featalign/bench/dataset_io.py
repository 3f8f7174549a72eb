"""On-disk dataset format: manifest + PGM images + raw depth + matches.

Per split directory:

    manifest.json          format version, seeds, config echo, per-frame
                           records (paths, 4x4 row-major pose, condition id,
                           crc32 checksums), condition parameters, candidates
    frames/frame_#####.pgm 8-bit binary PGM (single channel)
    frames/frame_#####.depth  header (width u32 LE, height u32 LE) then
                           float64 LE payload
    correspondences.txt    one line per pair:
                           frame_a frame_b u_a v_a u_b v_b label

Round-trips are lossless: images are quantized once at write time, depth
keeps all 64 bits, text floats use shortest-repr formatting.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .. import __version__
from ..errors import DataFault, read_input
from ..geometry import CameraIntrinsics, SE3Pose
from ..losses import CorrespondenceBatch
from .scene import Frame, RelocCandidate, SyntheticScene

MANIFEST_VERSION = 1


def write_pgm(path, image: np.ndarray) -> bytes:
    """Writes a [0, 1] float image as binary 8-bit PGM; returns the bytes."""
    img8 = np.clip(np.rint(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img8.shape[1]} {img8.shape[0]}\n255\n".encode()
    blob = header + img8.tobytes()
    Path(path).write_bytes(blob)
    return blob


def read_pgm(path) -> np.ndarray:
    return _decode_pgm(read_input(path), path)


def _decode_pgm(blob: bytes, path) -> np.ndarray:
    """The [0, 1] image of ``blob``, the bytes of the PGM file ``path``."""
    if not blob.startswith(b"P5"):
        raise DataFault(f"{path}: not a binary PGM file")
    parts = blob.split(b"\n", 3)
    if len(parts) < 4:
        raise DataFault(f"{path}: incomplete PGM header")
    size = parts[1].split()
    if len(size) != 2 or not all(v.isdigit() for v in size):
        raise DataFault(f"{path}: malformed PGM header")
    width, height = int(size[0]), int(size[1])
    if parts[2] != b"255":
        raise DataFault(f"{path}: unsupported PGM maxval")
    payload = parts[3]
    if len(payload) < width * height:
        raise DataFault(f"{path}: PGM payload too short")
    if len(payload) > width * height:
        raise DataFault(f"{path}: {len(payload) - width * height} bytes after the PGM payload")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return img.astype(np.float64) / 255.0


def write_depth(path, depth: np.ndarray) -> bytes:
    depth = np.asarray(depth, dtype=np.float64)
    blob = struct.pack("<II", depth.shape[1], depth.shape[0]) + depth.astype("<f8").tobytes()
    Path(path).write_bytes(blob)
    return blob


def read_depth(path) -> np.ndarray:
    return _decode_depth(read_input(path), path)


def _decode_depth(blob: bytes, path) -> np.ndarray:
    """The depth map of ``blob``, the bytes of the depth file ``path``."""
    if len(blob) < 8:
        raise DataFault(f"{path}: missing depth header")
    width, height = struct.unpack("<II", blob[:8])
    expected = 8 + 8 * width * height
    if len(blob) < expected:
        raise DataFault(f"{path}: depth payload ends {expected - len(blob)} bytes early")
    if len(blob) > expected:
        raise DataFault(f"{path}: {len(blob) - expected} bytes after the depth payload")
    return np.frombuffer(blob[8:], dtype="<f8").reshape(height, width).copy()


def write_correspondences(path, batches) -> None:
    lines = []
    for batch in batches:
        for label, at_a, at_b in (("pos", batch.pos_a, batch.pos_b), ("neg", batch.neg_a, batch.neg_b)):
            for (ua, va), (ub, vb) in zip(at_a, at_b):
                lines.append(
                    f"{batch.frame_a} {batch.frame_b} "
                    f"{float(ua)!r} {float(va)!r} {float(ub)!r} {float(vb)!r} {label}"
                )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_correspondences(path) -> list:
    """Groups lines back into per-(frame_a, frame_b) batches, input order."""
    grouped: dict = {}
    # Parsed as bytes, so a byte that is not UTF-8 fails on its own line.
    for lineno, line in enumerate(read_input(path).splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 7 or parts[6] not in (b"pos", b"neg"):
            raise DataFault(f"{path}:{lineno}: malformed correspondence line")
        try:
            key = (int(parts[0]), int(parts[1]))
            coords = [float(v) for v in parts[2:6]]
        except ValueError:
            raise DataFault(f"{path}:{lineno}: frame id or coordinate is not a number") from None
        if key not in grouped:
            grouped[key] = {b"pos": [], b"neg": []}
        grouped[key][parts[6]].append(coords)
    batches = []
    for key, lines in grouped.items():
        pos = np.asarray(lines[b"pos"], dtype=np.float64).reshape(-1, 4)
        neg = np.asarray(lines[b"neg"], dtype=np.float64).reshape(-1, 4)
        batches.append(
            CorrespondenceBatch(
                pos[:, 0:2], pos[:, 2:4], neg[:, 0:2], neg[:, 2:4], key[0], key[1]
            )
        )
    return batches


def _pose_to_list(pose: SE3Pose) -> list:
    return [float(v) for v in pose.matrix().reshape(-1)]


def _pose_from_list(values, owner: str) -> SE3Pose:
    try:
        return SE3Pose.from_matrix(np.asarray(values, dtype=np.float64).reshape(4, 4))
    except ValueError as exc:
        raise ValueError(f"{owner}: {exc}") from None


@dataclass
class DatasetSplit:
    """A fully loaded split: intrinsics, frames by id, candidates, matches."""

    intrinsics: CameraIntrinsics
    frames: dict
    candidates: list
    correspondences: list


def write_split(
    directory,
    scene: SyntheticScene,
    correspondences=None,
    config_echo: dict | None = None,
) -> None:
    """Serializes one scene (plus optional training matches) as a split."""
    root = Path(directory)
    (root / "frames").mkdir(parents=True, exist_ok=True)
    intr = scene.intrinsics
    frame_records = []
    for frame in scene.frames:
        image_rel = f"frames/frame_{frame.frame_id:05d}.pgm"
        depth_rel = f"frames/frame_{frame.frame_id:05d}.depth"
        image_blob = write_pgm(root / image_rel, frame.image)
        depth_blob = write_depth(root / depth_rel, frame.depth)
        frame_records.append(
            {
                "id": frame.frame_id,
                "image": image_rel,
                "depth": depth_rel,
                "pose": _pose_to_list(frame.pose),
                "condition_id": frame.condition_id,
                "sequence": frame.sequence,
                "index": frame.index,
                "crc32_image": zlib.crc32(image_blob),
                "crc32_depth": zlib.crc32(depth_blob),
            }
        )
    manifest = {
        "format_version": MANIFEST_VERSION,
        "writer_version": __version__,
        "seed": scene.seed,
        "config_echo": config_echo or {},
        "intrinsics": {
            "fx": intr.fx,
            "fy": intr.fy,
            "cx": intr.cx,
            "cy": intr.cy,
            "width": intr.width,
            "height": intr.height,
        },
        "conditions": [asdict(c) for c in scene.config.conditions],
        "frames": frame_records,
        "candidates": [
            {
                "candidate_frame": c.candidate_frame,
                "reference_frame": c.reference_frame,
                "relative_pose": _pose_to_list(c.relative_pose),
            }
            for c in scene.candidates
        ],
        "correspondence_file": "correspondences.txt" if correspondences is not None else None,
    }
    if correspondences is not None:
        write_correspondences(root / "correspondences.txt", correspondences)
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def read_split(directory) -> DatasetSplit:
    root = Path(directory)
    manifest_path = root / "manifest.json"
    try:
        manifest = json.loads(read_input(manifest_path).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataFault(f"{manifest_path}: not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise DataFault(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise DataFault(f"{manifest_path}: manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != MANIFEST_VERSION:
        raise DataFault(f"{manifest_path}: format version {version} unsupported")
    try:
        return _split_from_manifest(root, manifest)
    except KeyError as exc:
        raise DataFault(f"{manifest_path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise DataFault(f"{manifest_path}: malformed value ({exc})") from exc


def _split_from_manifest(root: Path, manifest: dict) -> DatasetSplit:
    """Loads the frames, candidates and matches a parsed manifest lists."""
    intr_d = manifest["intrinsics"]
    intrinsics = CameraIntrinsics(
        intr_d["fx"], intr_d["fy"], intr_d["cx"], intr_d["cy"], intr_d["width"], intr_d["height"]
    )
    frames = {}
    for record in manifest["frames"]:
        if record["id"] in frames:
            raise DataFault(f"{root}: frame {record['id']} appears twice in the manifest")
        image_path = root / record["image"]
        depth_path = root / record["depth"]
        image_blob = read_input(image_path)
        depth_blob = read_input(depth_path)
        if zlib.crc32(image_blob) != record["crc32_image"]:
            raise DataFault(f"{image_path}: checksum mismatch")
        if zlib.crc32(depth_blob) != record["crc32_depth"]:
            raise DataFault(f"{depth_path}: checksum mismatch")
        image = _decode_pgm(image_blob, image_path)
        depth = _decode_depth(depth_blob, depth_path)
        for path, array in ((image_path, image), (depth_path, depth)):
            if array.shape != (intrinsics.height, intrinsics.width):
                raise DataFault(
                    f"{path}: {array.shape[1]}x{array.shape[0]} does not match the "
                    f"{intrinsics.width}x{intrinsics.height} intrinsics"
                )
        # Tracking inverts depth at the selected keyframe points.
        if not np.all(np.isfinite(depth) & (depth > 0)):
            raise DataFault(f"{depth_path}: depth must be finite and positive")
        frames[record["id"]] = Frame(
            frame_id=record["id"],
            image=image,
            depth=depth,
            pose=_pose_from_list(record["pose"], f"frame {record['id']} pose"),
            condition_id=record["condition_id"],
            sequence=record["sequence"],
            index=record["index"],
        )
    candidates = [
        RelocCandidate(
            c["candidate_frame"], c["reference_frame"],
            _pose_from_list(c["relative_pose"], f"candidate {i} relative_pose"),
        )
        for i, c in enumerate(manifest["candidates"])
    ]
    correspondences = []
    if manifest.get("correspondence_file"):
        corr_path = root / manifest["correspondence_file"]
        correspondences = read_correspondences(corr_path)
        limit = [intrinsics.width - 1, intrinsics.height - 1]
        for b in correspondences:
            coords = np.concatenate([b.pos_a, b.pos_b, b.neg_a, b.neg_b])
            if not np.all(np.isfinite(coords) & (coords >= 0) & (coords <= limit)):
                raise DataFault(
                    f"{corr_path}: correspondences ({b.frame_a}, {b.frame_b}) hold a non-finite "
                    f"coordinate or one outside the {intrinsics.width}x{intrinsics.height} frames"
                )
    references = [(f"candidate {i}", c.candidate_frame, c.reference_frame) for i, c in enumerate(candidates)]
    references += [(f"correspondences ({b.frame_a}, {b.frame_b})", b.frame_a, b.frame_b) for b in correspondences]
    for owner, *frame_ids in references:
        for frame_id in frame_ids:
            if frame_id not in frames:
                raise DataFault(f"{root}: {owner} names frame {frame_id!r}, which the split does not hold")
    return DatasetSplit(intrinsics, frames, candidates, correspondences)

"""Versioned binary container for named float64 parameter arrays.

Layout, all little-endian:

    magic "GNNW" | format version (u32) | parameter count (u32)
    then per parameter, in insertion order:
    name length (u32) | name bytes (utf-8) | rank (u32) | extents (u32 each)
    | payload (float64, C order)

Round-trips are bit-exact; dict insertion order is preserved. A file that
cannot be read, a name that is not UTF-8, a repeated name, a payload the
file is too short for and bytes after the last parameter are data faults.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DataFault, read_input

MAGIC = b"GNNW"
FORMAT_VERSION = 1


def save_weights(path, params: Mapping[str, np.ndarray]) -> None:
    path = Path(path)
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(params))]
    for name, arr in params.items():
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.astype("<f8", copy=False).tobytes(order="C"))
    path.write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise DataFault(f"{self.path}: file ends {self.off + n - len(self.blob)} bytes early")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_weights(path) -> dict[str, np.ndarray]:
    path = Path(path)
    reader = _Reader(read_input(path), path)
    magic = reader.take(4)
    if magic != MAGIC:
        raise DataFault(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise DataFault(f"{path}: unsupported format version {version}")
    count = reader.u32()
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        raw_name = reader.take(reader.u32())
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise DataFault(f"{path}: parameter name {raw_name!r} is not valid UTF-8") from None
        if name in params:
            raise DataFault(f"{path}: parameter {name} appears twice")
        rank = reader.u32()
        shape = struct.unpack(f"<{rank}I", reader.take(4 * rank)) if rank else ()
        size = math.prod(shape)
        payload = reader.take(8 * size)
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    if reader.off != len(reader.blob):
        raise DataFault(f"{path}: {len(reader.blob) - reader.off} bytes after the last parameter")
    return params

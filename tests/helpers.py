"""Shared test oracles, independent of the library's own differentiation,
and a dataset-corruption helper for the input checks."""

import json
import zlib
from pathlib import Path

import numpy as np

from featalign.bench.dataset_io import read_depth, write_depth


def numeric_gradient(f, x, h=1e-5):
    """Central-difference gradient of scalar-valued f() w.r.t. array x.

    Mutates x entry by entry and calls f afresh each time, so f must read
    the live array.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        fp = f()
        flat[i] = saved - h
        fm = f()
        flat[i] = saved
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric, floor=1e-6):
    """Max |a - n| normalized by the largest gradient magnitude.

    Non-finite gradients report as inf so they can never hide inside a
    running max().
    """
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(float(np.abs(numeric).max(initial=0.0)), float(np.abs(analytic).max(initial=0.0)), floor)
    err = float(np.abs(analytic - numeric).max(initial=0.0)) / scale
    return err if np.isfinite(err) else float("inf")


def corrupt_depth(split_dir, value):
    """Writes ``value`` into one row of the first frame's depth map and
    re-records its crc32, so only a check on the depth values can catch it.
    """
    manifest_path = Path(split_dir) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    record = manifest["frames"][0]
    depth_path = Path(split_dir) / record["depth"]
    depth = read_depth(depth_path)
    depth[depth.shape[0] // 2, :] = value
    record["crc32_depth"] = zlib.crc32(write_depth(depth_path, depth))
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")

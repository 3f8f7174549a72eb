"""Shared test oracles, independent of the library's own differentiation,
a serial training reference, and dataset-corruption helpers for the input
checks."""

import json
import zlib
from pathlib import Path

import numpy as np

from featalign import tensor as T
from featalign.bench.dataset_io import read_depth, read_pgm, write_depth, write_pgm
from featalign.losses import total_loss
from featalign.network import build_network, forward_pyramid
from featalign.optim import adam_init, adam_step
from featalign.weights_io import save_weights


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


def fancy_index_bilinear(m, coords, g):
    """Bilinear samples of an (H, W, C) map at (N, 2) coords, with the
    gradient of sum(samples * g) w.r.t. the map.

    Four fancy-indexed corner gathers and four scatters, in the corner order
    (y0, x0), (y0, x0+1), (y0+1, x0), (y0+1, x0+1); the library's sampler
    must give the same bits.
    """
    h, w, _ = m.shape
    xs, ys = coords[:, 0], coords[:, 1]
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 2)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 2)
    tx = (xs - x0)[:, None]
    ty = (ys - y0)[:, None]
    m00 = m[y0, x0]
    m01 = m[y0, x0 + 1]
    m10 = m[y0 + 1, x0]
    m11 = m[y0 + 1, x0 + 1]
    w00 = (1 - tx) * (1 - ty)
    w01 = tx * (1 - ty)
    w10 = (1 - tx) * ty
    w11 = tx * ty
    out = w00 * m00 + w01 * m01 + w10 * m10 + w11 * m11
    dmap = np.zeros_like(m)
    np.add.at(dmap, (y0, x0), w00 * g)
    np.add.at(dmap, (y0, x0 + 1), w01 * g)
    np.add.at(dmap, (y0 + 1, x0), w10 * g)
    np.add.at(dmap, (y0 + 1, x0 + 1), w11 * g)
    return out, dmap


def train_serial(split, config):
    """``train_network`` without threads or validation: (weights, per-epoch mean
    (total, contrastive, gauss_newton) rows).

    Each step records both branches on one joint tape, branch a then branch
    b, and runs ``backward(loss)`` once; the steps, rngs and means are
    ``train_network``'s.
    """
    weights = build_network(config.network)
    names, batches, log = list(weights.params), split.correspondences, []
    state = adam_init(list(weights.params.values()))
    for epoch in range(config.epochs):
        rows = []
        for slot, index in enumerate(np.random.default_rng([config.network.seed, 17, epoch]).permutation(len(batches))):
            batch, tape = batches[index], T.Tape()
            taped = {n: tape.leaf(weights.params[n]) for n in names}
            pyramids = [forward_pyramid(taped, split.frames[f].image[:, :, None], config.network)
                        for f in (batch.frame_a, batch.frame_b)]
            rng = np.random.default_rng([config.network.seed, 23, epoch, slot])
            loss, parts = total_loss(*pyramids, batch, config.loss, rng)
            tape.backward(loss)
            adam_step([weights.params[n] for n in names], [tape.grad(taped[n]) for n in names], state, config.lr)
            rows.append((float(loss.data), parts["contrastive"], parts["gauss_newton"]))
        log.append([sum(column) / len(batches) for column in zip(*rows)])
    return weights, log


def edit_first_frame_file(split_dir, kind, edit):
    """Replaces the first frame's ``kind`` file ("image" or "depth") with the
    bytes ``edit(path)`` returns and re-records its crc32, so only a check on
    the contents can catch it. Returns the file's path.
    """
    manifest_path = Path(split_dir) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    record = manifest["frames"][0]
    path = Path(split_dir) / record[kind]
    blob = edit(path)
    path.write_bytes(blob)
    record[f"crc32_{kind}"] = zlib.crc32(blob)
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


def rewrite_first_frame(split_dir, kind, edit):
    """Replaces the first frame's ``kind`` file with ``edit`` of its array."""
    read, write = (read_pgm, write_pgm) if kind == "image" else (read_depth, write_depth)
    edit_first_frame_file(split_dir, kind, lambda path: write(path, edit(read(path))))


def append_to_first_frame(split_dir, kind, extra):
    """Appends the bytes ``extra`` to the first frame's ``kind`` file; returns its path."""
    return edit_first_frame_file(split_dir, kind, lambda path: path.read_bytes() + extra)


def corrupt_depth(split_dir, value):
    """Writes ``value`` into one row of the first frame's depth map."""

    def edit(depth):
        depth[depth.shape[0] // 2, :] = value
        return depth

    rewrite_first_frame(split_dir, "depth", edit)


def save_older_layout(path, weights, channels=1):
    """Writes ``weights`` as files once were: five config scalars, the first
    ``config/input_channels`` = ``channels``, and ``enc0/w`` widened to read
    that many channels (its first channel repeated)."""
    config = weights.config
    out = {"config/input_channels": np.asarray(float(channels))}
    for key in ("descriptor_dim", "pyramid_levels", "base_width", "seed"):
        out["config/" + key] = np.asarray(float(getattr(config, key)))
    out.update(weights.params)
    out["enc0/w"] = np.repeat(weights.params["enc0/w"], channels, axis=2)
    save_weights(path, out)

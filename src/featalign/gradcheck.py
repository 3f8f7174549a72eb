"""Finite-difference verification of every backward rule, CLI-facing.

Each block compares analytic gradients against central differences
(step 1e-5, float64) and reports its max relative error, normalized by the
largest gradient magnitude in the block. The suite covers every tensor
primitive and the full network-plus-losses path on a tiny instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .losses import CorrespondenceBatch, LossConfig, total_loss
from .network import NetworkConfig, build_network, forward_pyramid

FD_STEP = 1e-5
TOLERANCE = 1e-4


@dataclass
class BlockReport:
    name: str
    max_relative_error: float
    passed: bool


def _numeric_gradient(f, x, h=FD_STEP):
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


def _relative_error(analytic, numeric):
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-6)
    err = float(np.abs(analytic - numeric).max(initial=0.0)) / scale
    # Non-finite gradients must surface as failures, never hide in max().
    return err if np.isfinite(err) else float("inf")


def _check_block(builder, arrays, rng):
    out_shape = builder(*[T.Tensor(a) for a in arrays]).data.shape
    proj = T.Tensor(rng.standard_normal(out_shape))

    def value():
        return float(T.reduce_sum(T.mul(builder(*[T.Tensor(a) for a in arrays]), proj)).data)

    tape = T.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    tape.backward(T.reduce_sum(T.mul(builder(*leaves), proj)))
    # One scale for the whole block: an input whose true gradient is zero
    # (the head biases of the loss block) has only roundoff to compare.
    analytic = np.concatenate([tape.grad(leaf).ravel() for leaf in leaves])
    numeric = np.concatenate([_numeric_gradient(value, arr).ravel() for arr in arrays])
    return _relative_error(analytic, numeric)


def _primitive_blocks(rng):
    def r(*shape, lo=-1.0, hi=1.0):
        return rng.uniform(lo, hi, shape)

    def away(*shape):
        sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
        return sign * rng.uniform(0.2, 1.0, shape)

    coords = np.stack(
        [rng.integers(0, 6, 8) + rng.uniform(0.2, 0.8, 8),
         rng.integers(0, 5, 8) + rng.uniform(0.2, 0.8, 8)],
        axis=1,
    )
    spd = r(5, 2, 2) + np.eye(2) * 2.5
    return [
        ("add", lambda a, b: T.add(a, b), [r(3, 4), r(3, 4)]),
        ("mul", lambda a, b: T.mul(a, b), [r(3, 4), r(3, 4)]),
        ("relu", T.relu, [away(4, 4)]),
        ("log", T.log, [r(3, 3, lo=0.3, hi=2.0)]),
        ("sqrt", T.sqrt, [r(3, 3, lo=0.3, hi=2.0)]),
        ("matmul", lambda a, b: T.matmul(a, b), [r(3, 4), r(4, 2)]),
        ("matmul_batched", lambda a, b: T.matmul(a, b), [r(4, 2, 3), r(4, 3, 2)]),
        ("conv2d", lambda x, w, b: T.conv2d(x, w, b, stride=2, pad=1), [r(6, 6, 2), r(3, 3, 2, 3), r(3)]),
        ("conv2d_narrowing", lambda x, w, b: T.conv2d(x, w, b, stride=1, pad=1), [r(5, 4, 3), r(3, 3, 3, 2), r(2)]),
        ("upsample_concat_conv", T.upsample_concat_conv, [r(2, 3, 3), r(4, 6, 2), r(3, 3, 5, 2), r(2)]),
        ("reduce_sum", lambda a: T.reduce_sum(a, axis=1), [r(3, 4, 2)]),
        ("det2x2", T.det2x2, [spd]),
        ("inv2x2", T.inv2x2, [spd.copy()]),
        ("bilinear_sample", lambda m: T.bilinear_sample(m, T.Tensor(coords)), [r(6, 7, 3)]),
        ("central_difference", T.central_difference, [r(5, 6, 2)]),
    ]


def _loss_block(seed: int):
    """The network-plus-losses block: total loss over every parameter array."""
    cfg_net = NetworkConfig(descriptor_dim=2, pyramid_levels=2, base_width=3, seed=seed)
    weights = build_network(cfg_net)
    rng = np.random.default_rng(seed + 1)
    # Jitter the zero-initialized biases: a tiny net can otherwise start
    # with dead relus and constant descriptor maps, whose coincident
    # samples sit on the hinge's non-differentiable point.
    for name, param in weights.params.items():
        if name.endswith("/b"):
            weights.params[name] = param + rng.uniform(0.01, 0.08, param.shape)
    img_a = rng.uniform(0.2, 0.8, (16, 16, 1))
    img_b = rng.uniform(0.2, 0.8, (16, 16, 1))
    pts = np.stack([rng.uniform(6, 9, 4), rng.uniform(6, 9, 4)], axis=1)
    neg = np.stack([rng.uniform(3, 12, 4), rng.uniform(3, 12, 4)], axis=1)
    batch = CorrespondenceBatch(pts, pts + rng.uniform(-1, 1, pts.shape), pts, neg)
    loss_cfg = LossConfig(gn_weight=0.5, vicinity_radius=2.0, epsilon=1e-3)
    names = list(weights.params)

    def loss(*params):
        named = dict(zip(names, params))
        pa = forward_pyramid(named, img_a, cfg_net)
        pb = forward_pyramid(named, img_b, cfg_net)
        return total_loss(pa, pb, batch, loss_cfg, np.random.default_rng(99))[0]

    return "network+losses", loss, [weights.params[n] for n in names]


def run_gradcheck(seed: int = 0) -> list:
    """All blocks; a broken backward rule turns its block red."""
    rng = np.random.default_rng(seed)
    reports = []
    for name, builder, arrays in _primitive_blocks(rng) + [_loss_block(seed)]:
        err = _check_block(builder, arrays, rng)
        reports.append(BlockReport(name, err, err < TOLERANCE))
    return reports

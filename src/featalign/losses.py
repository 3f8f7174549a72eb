"""Training losses for the descriptor network.

Two terms, combined per pyramid level:

* pixelwise contrastive loss: mean squared descriptor distance over matches
  plus mean squared hinge ``max(0, M - dist)^2`` over non-matches;
* probabilistic Gauss-Newton loss: from a start point jittered around the
  true match, build the per-pixel normal equations from the feature map's
  central-difference derivative, and charge the negative log-density of the
  induced 2-D Gaussian at the true correspondence.

Everything here runs on taped tensors so gradients reach the network
through the sampled features, the residual, and the numerical derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from . import tensor as T
from .alignment import draw_start_points, map_gradient, pixel_gauss_newton
from .errors import NumericalFault

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class LossConfig:
    # Hinge margin of the contrastive non-match term; no run varies it.
    margin: ClassVar[float] = 1.0

    gn_weight: float = 0.1
    vicinity_radius: float = 4.0
    epsilon: float = 1e-3

    def __post_init__(self):
        for name in ("gn_weight", "vicinity_radius", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gn_weight < 0:
            raise ValueError("gn_weight must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.vicinity_radius < 1.0:
            raise ValueError("vicinity_radius must be >= 1 px")

    def vicinity_at(self, level: int) -> float:
        """Level-0 radius halved per level, floored at one pixel."""
        return max(self.vicinity_radius / (2.0**level), 1.0)


@dataclass
class CorrespondenceBatch:
    """Matched and non-matched pixel pairs between two frames (level-0 coords)."""

    pos_a: np.ndarray
    pos_b: np.ndarray
    neg_a: np.ndarray
    neg_b: np.ndarray
    frame_a: int = 0
    frame_b: int = 0

    def __post_init__(self):
        self.pos_a = np.asarray(self.pos_a, dtype=np.float64).reshape(-1, 2)
        self.pos_b = np.asarray(self.pos_b, dtype=np.float64).reshape(-1, 2)
        self.neg_a = np.asarray(self.neg_a, dtype=np.float64).reshape(-1, 2)
        self.neg_b = np.asarray(self.neg_b, dtype=np.float64).reshape(-1, 2)
        if self.pos_a.shape != self.pos_b.shape or self.neg_a.shape != self.neg_b.shape:
            raise ValueError("match arrays must pair up")

    @property
    def n_pos(self) -> int:
        return self.pos_a.shape[0]

    @property
    def n_neg(self) -> int:
        return self.neg_a.shape[0]

    def scaled(self, factor: float) -> "CorrespondenceBatch":
        return CorrespondenceBatch(
            self.pos_a * factor,
            self.pos_b * factor,
            self.neg_a * factor,
            self.neg_b * factor,
            self.frame_a,
            self.frame_b,
        )


def contrastive_loss(feat_a, feat_b, batch: CorrespondenceBatch, margin: float) -> T.Tensor:
    """Pixelwise contrastive loss at one pyramid level.

    ``batch`` coordinates must already be expressed at this level's
    resolution. Either pair set may be empty, but not both.
    """
    if batch.n_pos == 0 and batch.n_neg == 0:
        raise ValueError("contrastive loss needs at least one positive or negative pair")
    total = None
    if batch.n_pos:
        fa = T.bilinear_sample(feat_a, T.Tensor(batch.pos_a))
        fb = T.bilinear_sample(feat_b, T.Tensor(batch.pos_b))
        diff = T.sub(fa, fb)
        total = T.mul(T.reduce_sum(T.mul(diff, diff)), 1.0 / batch.n_pos)
    if batch.n_neg:
        na = T.bilinear_sample(feat_a, T.Tensor(batch.neg_a))
        nb = T.bilinear_sample(feat_b, T.Tensor(batch.neg_b))
        ndiff = T.sub(na, nb)
        # The 1e-16 floor keeps sqrt differentiable when a non-match lands
        # on identical descriptors (dead-relu inits); it shifts the
        # distance by at most 1e-8.
        dist = T.sqrt(T.add(T.reduce_sum(T.mul(ndiff, ndiff), axis=1), 1e-16))
        hinge = T.relu(T.add(T.neg(dist), margin))
        l_neg = T.mul(T.reduce_sum(T.mul(hinge, hinge)), 1.0 / batch.n_neg)
        total = l_neg if total is None else T.add(total, l_neg)
    return total


def gaussian_nll_terms(mu: T.Tensor, hessian: T.Tensor, x: np.ndarray):
    """The two error terms of the 2-D Gaussian negative log-density.

    e1 = 1/2 (x - mu)^T H (x - mu), e2 = log(2 pi) - 1/2 log |H|, both per
    row: mu is (N, 2), hessian (N, 2, 2), x a constant (N, 2).
    """
    n = mu.data.shape[0]
    d = T.sub(T.Tensor(np.asarray(x, dtype=np.float64)), mu)
    d_col = T.reshape(d, (n, 2, 1))
    d_row = T.reshape(d, (n, 1, 2))
    e1 = T.mul(T.reshape(T.matmul(d_row, T.matmul(hessian, d_col)), (n,)), 0.5)
    det = T.det2x2(hessian)
    if np.any(det.data <= 0):
        raise NumericalFault("Gauss-Newton system lost positive definiteness")
    e2 = T.add(T.mul(T.log(det), -0.5), LOG_2PI)
    return e1, e2


def gauss_newton_loss(
    feat_a,
    feat_b,
    batch: CorrespondenceBatch,
    config: LossConfig,
    rng,
    vicinity: Optional[float] = None,
) -> T.Tensor:
    """Probabilistic Gauss-Newton loss at one level, averaged over matches.

    Per correspondence: sample the target feature at u_a, jitter a start
    point around u_b, build H = J^T J + eps I and b = J^T r from the
    numerical map derivative at the start, and charge the Gaussian negative
    log-density with mean x_s - H^-1 b and information H, evaluated at u_b.
    """
    if batch.n_pos == 0:
        raise ValueError("Gauss-Newton loss needs at least one positive pair")
    if vicinity is None:
        vicinity = config.vicinity_radius
    f_t = T.bilinear_sample(feat_a, T.Tensor(batch.pos_a))
    xs = draw_start_points(rng, batch.pos_b, vicinity, feat_b.shape)
    mu, hess = pixel_gauss_newton(feat_b, map_gradient(feat_b), xs, f_t, config.epsilon)
    e1, e2 = gaussian_nll_terms(mu, hess, batch.pos_b)
    if np.any(e1.data < -1e-9):
        raise NumericalFault("Gauss-Newton loss: negative quadratic term")
    return T.mul(T.add(T.reduce_sum(e1), T.reduce_sum(e2)), 1.0 / batch.n_pos)


def total_loss(
    pyramid_a: Sequence,
    pyramid_b: Sequence,
    batch: CorrespondenceBatch,
    config: LossConfig,
    rng,
):
    """Weighted multi-scale sum, coarse and fine levels alike.

    Returns (scalar loss tensor, {"contrastive": float, "gauss_newton": float}).
    Deterministic for a fixed rng state; levels are processed coarse to fine
    so the rng consumption order is stable. Every level of the pyramids
    contributes.
    """
    loss = None
    parts = {"contrastive": 0.0, "gauss_newton": 0.0}
    for level in range(len(pyramid_a) - 1, -1, -1):
        scaled = batch.scaled(1.0 / (2.0**level))
        term = contrastive_loss(pyramid_a[level], pyramid_b[level], scaled, config.margin)
        parts["contrastive"] += float(term.data)
        if config.gn_weight > 0.0 and batch.n_pos > 0:
            gn = gauss_newton_loss(
                pyramid_a[level],
                pyramid_b[level],
                scaled,
                config,
                rng,
                vicinity=config.vicinity_at(level),
            )
            parts["gauss_newton"] += float(gn.data)
            term = T.add(term, T.mul(gn, config.gn_weight))
        loss = term if loss is None else T.add(loss, term)
    return loss, parts


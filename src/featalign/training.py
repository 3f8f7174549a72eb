"""Training loop: ADAM over the multi-scale combined loss.

Each step runs the Siamese forward pass (one set of weights, two images) on
a stored correspondence batch, backpropagates the combined loss, and
applies ADAM. The two branches share nothing but the weights, so each step
runs them on two threads. The weights are the parameters after the final
epoch. One validation relocalization of those weights is logged in the last
epoch's row; it picks nothing. Everything is deterministic from the network
config's seed, and the same on any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .alignment import method_config, network_extractor
from .bench.evaluate import evaluate_relocalization, run_relocalization
from .errors import DataFault, NumericalFault
from .losses import LossConfig, total_loss
from .network import NetworkConfig, NetworkWeights, build_network, forward_pyramid
from .optim import AdamState, adam_init, adam_step

# Keyframe points per validation relocalization.
VAL_POINTS = 192


@dataclass
class TrainConfig:
    epochs: int = 24
    lr: float = 1e-4
    network: NetworkConfig = field(default_factory=NetworkConfig)
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError("lr must be positive and finite")


@dataclass
class EpochStats:
    epoch: int
    total: float
    contrastive: float
    gauss_newton: float
    val_auc: float = float("nan")


def train_network(train_split, val_split, config: TrainConfig):
    """Trains on a loaded split's correspondence batches.

    Returns (the final epoch's NetworkWeights, list of EpochStats). The
    last row's ``val_auc`` is the relocalization AUC of those weights on all
    of ``val_split``'s candidates; it is NaN in earlier rows and when
    ``val_split`` is None or holds no candidate. It is a log value only.
    """
    # Imported here: concurrent.futures loads the logging package, which
    # costs every other command about 0.3 MB of memory and nothing more.
    from concurrent.futures import ThreadPoolExecutor

    if not train_split.correspondences:
        raise DataFault("training split carries no correspondences")
    weights = build_network(config.network)
    names = list(weights.params)
    params = [weights.params[n] for n in names]
    state: AdamState = adam_init(params)
    batches = list(train_split.correspondences)
    history: list[EpochStats] = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        for epoch in range(config.epochs):
            order = np.random.default_rng([config.network.seed, 17, epoch]).permutation(len(batches))
            sums = {"total": 0.0, "contrastive": 0.0, "gauss_newton": 0.0}
            for slot, batch_index in enumerate(order):
                batch = batches[batch_index]
                rng = np.random.default_rng([config.network.seed, 23, epoch, slot])
                value, parts, grads = _step(worker, names, params, train_split.frames, batch, config, rng, epoch)
                adam_step(params, grads, state, config.lr)
                sums["total"] += value
                sums["contrastive"] += parts["contrastive"]
                sums["gauss_newton"] += parts["gauss_newton"]
            n = max(1, len(batches))
            history.append(EpochStats(epoch, sums["total"] / n, sums["contrastive"] / n, sums["gauss_newton"] / n))
    if val_split is not None and val_split.candidates:
        history[-1].val_auc = _validation_auc(val_split, weights)
    return weights, history


def _step(worker, names, params, frames, batch, config: TrainConfig, rng, epoch: int):
    """One Siamese step: (loss value, loss parts, one gradient per parameter).

    Branch b runs on ``worker`` while the caller runs branch a, each on its
    own tape. The loss is recorded on a third tape whose leaves are the
    pyramid levels of both branches; both branches then backpropagate at
    once from their levels' gradients, and each parameter's gradient is the
    sum of its two branch gradients. A non-finite loss raises before any
    backward pass. The bits equal one joint tape's: each branch computes
    what it would there, the loss tape sums the level gradients in the same
    order, and a sum of two terms does not depend on their order.
    """
    tapes = (T.Tape(), T.Tape())
    taped = [{n: tape.leaf(p) for n, p in zip(names, params)} for tape in tapes]
    images = [frames[f].image[:, :, None] for f in (batch.frame_a, batch.frame_b)]
    # Both branches look forward_pyramid up on this module when they call
    # it, so a wrapper set there (as the benchmark's tracer sets) sees both.
    pending = worker.submit(forward_pyramid, taped[1], images[1], config.network)
    pyramids = (forward_pyramid(taped[0], images[0], config.network), pending.result())
    loss_tape = T.Tape()
    levels = [[loss_tape.leaf(level.data) for level in pyramid] for pyramid in pyramids]
    loss, parts = total_loss(levels[0], levels[1], batch, config.loss, rng)
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericalFault(
            f"non-finite loss at epoch {epoch}, pair ({batch.frame_a}, {batch.frame_b}): {value!r}"
        )
    loss_tape.backward(loss)
    incoming = [[loss_tape.grad(level) for level in branch] for branch in levels]
    pending = worker.submit(tapes[1].backward, pyramids[1], incoming[1])
    tapes[0].backward(pyramids[0], incoming[0])
    pending.result()
    return value, parts, [tapes[0].grad(taped[0][n]) + tapes[1].grad(taped[1][n]) for n in names]


def _validation_auc(val_split, weights: NetworkWeights) -> float:
    results = run_relocalization(
        val_split,
        network_extractor(weights),
        method_config("features", weights.config.pyramid_levels),
        point_count=VAL_POINTS,
    )
    _, summary = evaluate_relocalization(results)
    return float(summary["auc"])


def history_csv(history) -> str:
    lines = ["epoch,total,contrastive,gauss_newton,val_auc"]
    for row in history:
        lines.append(
            f"{row.epoch},{row.total!r},{row.contrastive!r},{row.gauss_newton!r},{row.val_auc!r}"
        )
    return "\n".join(lines) + "\n"

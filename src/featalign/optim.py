"""ADAM optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Moment decay rates and the denominator guard; no run varies them.
BETA1 = 0.9
BETA2 = 0.999
EPS_ADAM = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, one slot per parameter."""

    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(params) -> AdamState:
    return AdamState(0, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One ADAM update. Mutates ``params`` arrays and ``state`` in place.

    Parameters are the single-writer side of training; never share them
    across writers.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + EPS_ADAM)

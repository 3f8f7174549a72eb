#!/usr/bin/env python3
"""The reverse-mode tape: record ops, differentiate, verify by hand.

Shows the tensor engine underlying training: taped primitives, gradients
via one reverse sweep, a finite-difference spot check, and the bilinear
sampler's gradient into the sampled map (its coordinates are constants).
"""

import numpy as np

from featalign import tensor as T

rng = np.random.default_rng(0)

print("== quadratic with a known gradient ==")
a = rng.standard_normal((5, 3))
tape = T.Tape()
theta = tape.leaf(rng.standard_normal((3, 1)))
loss = T.reduce_sum(T.mul(T.matmul(T.Tensor(a), theta), T.matmul(T.Tensor(a), theta)))
tape.backward(loss)
closed_form = 2 * a.T @ a @ theta.data
print("max |tape - closed form|:", np.abs(tape.grad(theta) - closed_form).max())

print("\n== conv -> relu -> sum, checked by central differences ==")
x = rng.standard_normal((8, 8, 2))
kernel = rng.standard_normal((3, 3, 2, 4)) * 0.4


def forward_value():
    return float(T.reduce_sum(T.relu(T.conv2d(T.Tensor(x), T.Tensor(kernel), pad=1))).data)


tape = T.Tape()
kx = tape.leaf(kernel)
tape.backward(T.reduce_sum(T.relu(T.conv2d(T.Tensor(x), kx, pad=1))))
analytic = tape.grad(kx)
h = 1e-5
worst = 0.0
flat = kernel.reshape(-1)
for i in range(0, flat.size, 7):  # spot check every 7th weight
    saved = flat[i]
    flat[i] = saved + h
    fp = forward_value()
    flat[i] = saved - h
    fm = forward_value()
    flat[i] = saved
    worst = max(worst, abs(analytic.reshape(-1)[i] - (fp - fm) / (2 * h)))
print("max |analytic - numeric| over spot checks:", worst)

print("\n== bilinear sampling: the gradient into the map ==")
fmap = rng.standard_normal((6, 6, 2))
coords = np.array([[2.3, 3.7], [0.4, 1.5]])
tape = T.Tape()
m = tape.leaf(fmap)
tape.backward(T.reduce_sum(T.bilinear_sample(m, T.Tensor(coords))))
dmap = tape.grad(m)
print("map-gradient nonzeros:", int((dmap != 0).sum()), "(4 corners x 2 points x 2 channels)")
print("corner weights of the first point (channel 0):\n", np.round(dmap[3:5, 2:4, 0], 4))

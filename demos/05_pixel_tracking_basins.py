#!/usr/bin/env python3
"""Per-pixel Gauss-Newton tracking and its basin of convergence.

Tracks single pixels by iterating 2x2 Gauss-Newton solves on the feature
map, then measures the fraction of random 4-px starts that land back on
the true location: raw intensities versus quickly-trained descriptors.
"""

import numpy as np

from featalign import tensor as T
from featalign.alignment import draw_start_points, interp, track_pixels
from featalign.bench.scene import SceneConfig, generate_scene, make_correspondences
from featalign.losses import LossConfig, total_loss
from featalign.network import NetworkConfig, build_network, extract_pyramid, forward_pyramid
from featalign.optim import adam_init, adam_step

scene = generate_scene(21, SceneConfig(n_frames=4))
batch = make_correspondences(scene, 0, 3, n_pos=160, n_neg=160, seed=2)
img_a = scene.frames[0].image[:, :, None]
img_b = scene.frames[3].image[:, :, None]

# One set of 4-px starts, shared by both feature maps.
starts = draw_start_points(np.random.default_rng(5), batch.pos_b, 4.0, img_b.shape)


def basin_fraction(feat_a, feat_b, eps):
    f_t = interp(feat_a, batch.pos_a)
    final, converged = track_pixels(feat_b, starts, f_t, eps=eps)
    err = np.linalg.norm(final - batch.pos_b, axis=1)
    return float((converged & (err < 0.5)).mean())


print("intensity basin fraction:", basin_fraction(img_a, img_b, eps=1e-6))

# A short training run is already enough to widen the basins visibly.
net_cfg = NetworkConfig(descriptor_dim=8, pyramid_levels=3, base_width=8, seed=1)
weights = build_network(net_cfg)
names = list(weights.params)
params = [weights.params[n] for n in names]
state = adam_init(params)
loss_cfg = LossConfig(gn_weight=0.2, vicinity_radius=4.0)
pairs = [(0, 1), (0, 3), (1, 2), (2, 3)]
batches = [make_correspondences(scene, a, b, 96, 96, seed=10 + i) for i, (a, b) in enumerate(pairs)]
for epoch in range(40):
    for i, b in enumerate(batches):
        tape = T.Tape()
        taped = {n: tape.leaf(p) for n, p in zip(names, params)}
        pa = forward_pyramid(taped, scene.frames[b.frame_a].image[:, :, None], net_cfg)
        pb = forward_pyramid(taped, scene.frames[b.frame_b].image[:, :, None], net_cfg)
        loss, _ = total_loss(pa, pb, b, loss_cfg, np.random.default_rng([epoch, i]))
        tape.backward(loss)
        adam_step(params, [tape.grad(taped[n]) for n in names], state, lr=3e-4)

trained = extract_pyramid(
    type(weights)(net_cfg, dict(zip(names, params))), scene.frames[0].image
)
trained_b = extract_pyramid(type(weights)(net_cfg, dict(zip(names, params))), scene.frames[3].image)
print("trained-feature basin fraction:", basin_fraction(trained[0], trained_b[0], eps=1e-3))

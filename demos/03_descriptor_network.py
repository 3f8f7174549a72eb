#!/usr/bin/env python3
"""The Siamese encoder-decoder and its multi-scale descriptor pyramid.

Builds the network from a seed, pushes a synthetic image through it,
inspects pyramid shapes, and demonstrates weight sharing plus the bounded
receptive field.
"""

import numpy as np

from featalign.bench.scene import SceneConfig, generate_scene
from featalign.network import (
    NetworkConfig,
    build_network,
    extract_pyramid,
    influence_interval,
)

config = NetworkConfig(descriptor_dim=8, pyramid_levels=3, base_width=16, seed=0)
weights = build_network(config)
print("parameters:", weights.parameter_count())

scene = generate_scene(3, SceneConfig(n_frames=1))
image, _ = scene.render(scene.trajectory[0])
pyramid = extract_pyramid(weights, image)
print("pyramid shapes:", [lvl.shape for lvl in pyramid])

print("\n== Siamese sharing: same weights, same image, same descriptors ==")
again = extract_pyramid(weights, image)
print("bit-identical:", all(a.tobytes() == b.tobytes() for a, b in zip(pyramid, again)))

print("\n== receptive field ==")
perturbed = image.copy()
perturbed[40, 21] += 0.5
changed = np.abs(extract_pyramid(weights, perturbed)[0] - pyramid[0]).sum(axis=2) > 0
ys, xs = np.nonzero(changed)
lo_y, hi_y = influence_interval(config, 40, 64)
lo_x, hi_x = influence_interval(config, 21, 64)
print(f"changed rows {ys.min()}..{ys.max()} within predicted {lo_y}..{hi_y}")
print(f"changed cols {xs.min()}..{xs.max()} within predicted {lo_x}..{hi_x}")

"""Small Siamese encoder-decoder producing multi-scale descriptor pyramids.

Layers (L pyramid levels, widths double per level):

    enc0   3x3 conv, stride 1, pad 1, relu          full resolution, 1 input channel
    enc l  3x3 conv, stride 2, pad 1, relu          1/2^l resolution
    dec l  nearest-upsample + skip concat + 3x3 conv + relu
    head l 1x1 conv -> descriptor_dim channels      one head per level

Both Siamese branches are literally the same weights: descriptor extraction
is a pure function of (weights, image). The head at the coarsest level reads
the bottleneck directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import tensor as T
from .errors import DataFault
from .weights_io import load_weights, save_weights

CONFIG_PREFIX = "config/"
# NetworkConfig fields stored as config/* scalars, in file order.
CONFIG_KEYS = ("descriptor_dim", "pyramid_levels", "base_width", "seed")


@dataclass(frozen=True)
class NetworkConfig:
    descriptor_dim: int = 8
    pyramid_levels: int = 3
    base_width: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.descriptor_dim < 1:
            raise ValueError("descriptor_dim must be >= 1")
        if self.pyramid_levels < 2:
            raise ValueError("pyramid_levels must be >= 2")
        if self.base_width < 1:
            raise ValueError("base_width must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def width(self, level: int) -> int:
        return self.base_width * (2**level)


@dataclass
class NetworkWeights:
    config: NetworkConfig
    params: dict = field(default_factory=dict)

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))


def layer_shapes(config: NetworkConfig) -> dict:
    """Declared parameter shapes, in creation order."""
    shapes: dict = {}
    w0, levels, d = config.base_width, config.pyramid_levels, config.descriptor_dim
    shapes["enc0/w"] = (3, 3, 1, w0)
    shapes["enc0/b"] = (w0,)
    for level in range(1, levels):
        shapes[f"enc{level}/w"] = (3, 3, config.width(level - 1), config.width(level))
        shapes[f"enc{level}/b"] = (config.width(level),)
    for level in range(levels - 2, -1, -1):
        in_ch = config.width(level + 1) + config.width(level)
        shapes[f"dec{level}/w"] = (3, 3, in_ch, config.width(level))
        shapes[f"dec{level}/b"] = (config.width(level),)
    for level in range(levels):
        shapes[f"head{level}/w"] = (1, 1, config.width(level), d)
        shapes[f"head{level}/b"] = (d,)
    return shapes


def build_network(config: NetworkConfig) -> NetworkWeights:
    """He-initialized weights, deterministic from config.seed."""
    rng = np.random.default_rng(config.seed)
    params: dict = {}
    for name, shape in layer_shapes(config).items():
        if name.endswith("/b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = shape[0] * shape[1] * shape[2]
            params[name] = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
    return NetworkWeights(config, params)


def forward_pyramid(params: Mapping, image, config: NetworkConfig) -> list:
    """Runs the network on one image; returns one Tensor per pyramid level.

    ``params`` values may be taped Tensors (training) or plain arrays
    (inference). ``image`` is (H, W, 1).
    """
    img = image if isinstance(image, T.Tensor) else T.Tensor(image)
    h, w, _ = img.data.shape
    div = 2 ** (config.pyramid_levels - 1)
    if h % div or w % div:
        raise ValueError(f"image sides must be divisible by {div}, got {h}x{w}")

    enc = [T.relu(T.conv2d(img, params["enc0/w"], params["enc0/b"], stride=1, pad=1))]
    for level in range(1, config.pyramid_levels):
        enc.append(
            T.relu(T.conv2d(enc[-1], params[f"enc{level}/w"], params[f"enc{level}/b"], stride=2, pad=1))
        )
    out = [None] * config.pyramid_levels
    out[config.pyramid_levels - 1] = enc[-1]
    for level in range(config.pyramid_levels - 2, -1, -1):
        out[level] = T.relu(
            T.upsample_concat_conv(out[level + 1], enc[level], params[f"dec{level}/w"], params[f"dec{level}/b"])
        )
    return [
        T.conv2d(out[level], params[f"head{level}/w"], params[f"head{level}/b"])
        for level in range(config.pyramid_levels)
    ]


def extract_pyramid(weights: NetworkWeights, image: np.ndarray) -> list:
    """Pure descriptor extraction: no tape, one (H/2^l, W/2^l, D) array per level of an (H, W) image."""
    image = np.asarray(image, dtype=np.float64)[:, :, None]
    levels = [head.data for head in forward_pyramid(weights.params, image, weights.config)]
    if not all(np.all(np.isfinite(level)) for level in levels):
        raise ValueError("feature pyramid contains non-finite values")
    return levels


def influence_interval(config: NetworkConfig, pixel: int, size: int):
    """Exact level-0 interval of outputs a single input pixel can influence.

    Interval arithmetic over the layer geometry along one axis: the 2-D
    influence region is the product of the per-axis intervals.
    """

    def ceil_div(a, b):
        return -(-a // b)

    levels = config.pyramid_levels
    lo, hi = pixel - 1, pixel + 1
    enc_iv = [(max(lo, 0), min(hi, size - 1))]
    s = size
    for _ in range(1, levels):
        lo, hi = ceil_div(lo - 1, 2), (hi + 1) // 2
        s //= 2
        lo, hi = max(lo, 0), min(hi, s - 1)
        enc_iv.append((lo, hi))
    lo, hi = enc_iv[levels - 1]
    s = size // (2 ** (levels - 1))
    for level in range(levels - 2, -1, -1):
        lo, hi = 2 * lo, 2 * hi + 1
        lo, hi = lo - 1, hi + 1
        s *= 2
        lo = max(min(lo, enc_iv[level][0]), 0)
        hi = min(max(hi, enc_iv[level][1]), s - 1)
    return lo, hi


def save_network(path, weights: NetworkWeights) -> None:
    """Writes hyperparameters (as config/* scalars) and parameters together."""
    out = {
        CONFIG_PREFIX + key: np.asarray(float(getattr(weights.config, key)))
        for key in CONFIG_KEYS
    }
    out.update(weights.params)
    save_weights(path, out)


def load_network(path) -> NetworkWeights:
    """Reads a ``save_network`` file; entries it does not name are ignored.

    A file whose config/* entries are not finite integer scalars, whose
    config or parameter shapes do not describe a valid network of its
    declared architecture, or whose parameters are not all finite, raises
    DataFault.
    """
    raw = load_weights(path)
    values = {}
    for key in CONFIG_KEYS:
        name = CONFIG_PREFIX + key
        if name not in raw:
            raise DataFault(f"{path}: weights file lacks {name}")
        value = raw.pop(name)
        if value.shape != () or not np.isfinite(value) or value != np.trunc(value):
            raise DataFault(f"{path}: {name} holds {value}, not a finite integer")
        values[key] = int(value)
    try:
        config = NetworkConfig(**values)
    except ValueError as exc:
        raise DataFault(f"{path}: invalid network config ({exc})") from exc
    expected = layer_shapes(config)
    for name, shape in expected.items():
        if name not in raw or raw[name].shape != shape:
            raise DataFault(f"{path}: weights file does not match declared architecture at {name}")
        if not np.all(np.isfinite(raw[name])):
            raise DataFault(f"{path}: parameter {name} holds non-finite values")
    return NetworkWeights(config, {name: raw[name] for name in expected})

"""Descriptor network: determinism, shapes, Siamese sharing, receptive field."""

import numpy as np
import pytest

from featalign.errors import DataFault
from featalign.network import (
    NetworkConfig,
    NetworkWeights,
    build_network,
    extract_pyramid,
    forward_pyramid,
    influence_interval,
    layer_shapes,
    load_network,
    save_network,
)

from helpers import save_older_layout

SMALL = NetworkConfig(descriptor_dim=8, pyramid_levels=3, base_width=4, seed=3)


class TestBuild:
    def test_same_seed_bit_identical(self):
        w1 = build_network(SMALL)
        w2 = build_network(SMALL)
        assert list(w1.params) == list(w2.params)
        for name in w1.params:
            assert w1.params[name].tobytes() == w2.params[name].tobytes()

    def test_different_seed_differs(self):
        w1 = build_network(SMALL)
        w2 = build_network(NetworkConfig(descriptor_dim=8, pyramid_levels=3, base_width=4, seed=4))
        assert any(
            w1.params[n].tobytes() != w2.params[n].tobytes()
            for n in w1.params
            if n.endswith("/w")
        )

    def test_parameter_count_closed_form(self):
        # Hand-computed audit of the declared layer shapes.
        cfg = SMALL
        w0, d = cfg.base_width, cfg.descriptor_dim
        expected = 0
        widths = [w0 * 2**l for l in range(cfg.pyramid_levels)]
        expected += 9 * widths[0] + widths[0]
        for l in range(1, cfg.pyramid_levels):
            expected += 9 * widths[l - 1] * widths[l] + widths[l]
        for l in range(cfg.pyramid_levels - 1):
            expected += 9 * (widths[l + 1] + widths[l]) * widths[l] + widths[l]
        for l in range(cfg.pyramid_levels):
            expected += widths[l] * d + d
        weights = build_network(cfg)
        assert weights.parameter_count() == expected
        assert sum(int(np.prod(s)) for s in layer_shapes(cfg).values()) == expected

    def test_forward_on_zeros_finite(self):
        weights = build_network(SMALL)
        pyr = extract_pyramid(weights, np.zeros((16, 16)))
        for lvl in pyr:
            assert np.all(np.isfinite(lvl))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(descriptor_dim=0)
        with pytest.raises(ValueError):
            NetworkConfig(pyramid_levels=1)


class TestExtract:
    def test_shape_contract(self):
        cfg = NetworkConfig(descriptor_dim=8, pyramid_levels=3, base_width=4)
        weights = build_network(cfg)
        pyr = extract_pyramid(weights, np.random.default_rng(0).uniform(size=(64, 64)))
        assert [lvl.shape for lvl in pyr] == [(64, 64, 8), (32, 32, 8), (16, 16, 8)]

    def test_siamese_identical_pyramids(self):
        weights = build_network(SMALL)
        img = np.random.default_rng(1).uniform(size=(32, 32))
        p1 = extract_pyramid(weights, img)
        p2 = extract_pyramid(weights, img)
        for a, b in zip(p1, p2):
            assert a.tobytes() == b.tobytes()

    def test_dimension_fault(self):
        weights = build_network(SMALL)
        with pytest.raises(ValueError, match="divisible"):
            extract_pyramid(weights, np.zeros((30, 32)))

    def test_multichannel_image_rejected_by_first_conv(self):
        weights = build_network(SMALL)
        with pytest.raises(ValueError, match="conv2d: channel mismatch"):
            forward_pyramid(weights.params, np.zeros((16, 16, 3)), SMALL)

    def test_receptive_field_bounded(self):
        # Perturbing one pixel changes only the interval computed from the
        # layer hyperparameters.
        cfg = NetworkConfig(descriptor_dim=4, pyramid_levels=3, base_width=4, seed=9)
        weights = build_network(cfg)
        rng = np.random.default_rng(5)
        img = rng.uniform(size=(64, 64))
        base = extract_pyramid(weights, img)[0]
        py, px = 33, 17
        img2 = img.copy()
        img2[py, px] += 1.5
        changed = np.abs(extract_pyramid(weights, img2)[0] - base).sum(axis=2) > 0
        ys, xs = np.nonzero(changed)
        assert len(ys) > 0
        lo_y, hi_y = influence_interval(cfg, py, 64)
        lo_x, hi_x = influence_interval(cfg, px, 64)
        assert ys.min() >= lo_y and ys.max() <= hi_y
        assert xs.min() >= lo_x and xs.max() <= hi_x


class TestNetworkIO:
    def test_roundtrip(self, tmp_path):
        weights = build_network(SMALL)
        path = tmp_path / "net.gnnw"
        save_network(path, weights)
        loaded = load_network(path)
        assert loaded.config == SMALL
        for name in weights.params:
            assert loaded.params[name].tobytes() == weights.params[name].tobytes()

    def test_older_layout_with_five_config_scalars_loads(self, tmp_path):
        # Files once carried a fifth scalar, config/input_channels = 1;
        # loading ignores it and reads the same network.
        weights = build_network(SMALL)
        save_network(tmp_path / "net.gnnw", weights)
        save_older_layout(tmp_path / "old.gnnw", weights)
        current, older = load_network(tmp_path / "net.gnnw"), load_network(tmp_path / "old.gnnw")
        assert older.config == current.config == SMALL
        assert list(older.params) == list(current.params)
        for name in current.params:
            assert older.params[name].tobytes() == current.params[name].tobytes()

    def test_mismatched_architecture_rejected(self, tmp_path):
        weights = build_network(SMALL)
        path = tmp_path / "net.gnnw"
        bad = dict(weights.params)
        bad["enc0/w"] = np.zeros((3, 3, 2, 4))
        save_network(path, NetworkWeights(SMALL, bad))
        with pytest.raises(DataFault, match="enc0/w"):
            load_network(path)

    def test_pyramid_rejects_nonfinite(self):
        weights = build_network(SMALL)
        weights.params["head1/b"][0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            extract_pyramid(weights, np.zeros((16, 16)))

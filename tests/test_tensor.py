"""Gradient checks for every autodiff primitive, plus ADAM and weights I/O."""

import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from featalign import tensor as T
from featalign.errors import DataFault, NumericalFault
from featalign.optim import adam_init, adam_step
from featalign.weights_io import load_weights, save_weights

from helpers import fancy_index_bilinear, max_relative_error, numeric_gradient


def check_grads(builder, arrays, seed=0, h=1e-5, tol=1e-6):
    """Gradchecks d(sum(builder(xs) * R))/d(x) for every input array.

    R is a fixed random projection so every output entry participates.
    """
    rng = np.random.default_rng(seed)
    out_shape = builder(*[T.Tensor(a) for a in arrays]).data.shape
    proj = T.Tensor(rng.standard_normal(out_shape))

    def scalar_loss():
        return float(T.reduce_sum(T.mul(builder(*[T.Tensor(a) for a in arrays]), proj)).data)

    tape = T.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    tape.backward(T.reduce_sum(T.mul(builder(*leaves), proj)))
    for arr, leaf in zip(arrays, leaves):
        analytic = tape.grad(leaf)
        numeric = numeric_gradient(scalar_loss, arr, h=h)
        err = max_relative_error(analytic, numeric)
        assert err < tol, f"gradcheck failed: rel err {err:.3e}"


class TestPrimitiveGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def rand(self, *shape, low=-1.0, high=1.0):
        return self.rng.uniform(low, high, shape)

    def rand_away_from_zero(self, *shape, margin=0.15):
        signs = np.where(self.rng.uniform(size=shape) < 0.5, -1.0, 1.0)
        return signs * self.rng.uniform(margin, 1.0, shape)

    def test_add(self):
        check_grads(lambda a, b: T.add(a, b), [self.rand(3, 4), self.rand(3, 4)])

    def test_add_scalar(self):
        check_grads(lambda a: T.add(a, 0.7), [self.rand(3, 4)])

    def test_neg_sub(self):
        check_grads(lambda a, b: T.sub(T.neg(a), b), [self.rand(5), self.rand(5)])

    def test_mul(self):
        check_grads(lambda a, b: T.mul(a, b), [self.rand(2, 3), self.rand(2, 3)])

    def test_mul_scalar(self):
        check_grads(lambda a: T.mul(a, -1.3), [self.rand(4)])

    def test_relu(self):
        check_grads(T.relu, [self.rand_away_from_zero(4, 5)])

    def test_log(self):
        check_grads(T.log, [self.rand(3, 3, low=0.3, high=2.0)])

    def test_sqrt(self):
        check_grads(T.sqrt, [self.rand(3, 3, low=0.3, high=2.0)])

    def test_reshape(self):
        check_grads(lambda a: T.reshape(a, (6, 2)), [self.rand(3, 4)])

    def test_transpose_last2(self):
        check_grads(T.transpose_last2, [self.rand(4, 2, 3)])

    def test_reduce_sum_all(self):
        check_grads(lambda a: T.reshape(T.reduce_sum(a), (1,)), [self.rand(3, 4)])

    def test_reduce_sum_axis(self):
        check_grads(lambda a: T.reduce_sum(a, axis=1), [self.rand(3, 4, 2)])

    def test_matmul_2d(self):
        check_grads(lambda a, b: T.matmul(a, b), [self.rand(3, 4), self.rand(4, 2)])

    def test_matmul_batched(self):
        check_grads(lambda a, b: T.matmul(a, b), [self.rand(5, 2, 3), self.rand(5, 3, 2)])

    def test_matmul_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            T.matmul(self.rand(5, 2, 3), self.rand(3, 2))
        # Differing batch dims would run forward and then fail in backward.
        with pytest.raises(ValueError, match="batch dims differ"):
            T.matmul(self.rand(1, 2, 3), self.rand(4, 3, 2))

    def test_det2x2(self):
        mats = self.rand(6, 2, 2) + np.eye(2) * 2.0
        check_grads(T.det2x2, [mats])

    def test_inv2x2(self):
        mats = self.rand(6, 2, 2) + np.eye(2) * 2.5
        check_grads(T.inv2x2, [mats])

    @pytest.mark.parametrize(
        "stride,pad,bias,shape",
        [
            # shape: (H, W, Cin, Cout, k)
            pytest.param(1, 0, True, (6, 6, 2, 3, 3), id="1-0-True"),
            pytest.param(1, 1, False, (6, 6, 2, 3, 3), id="1-1-False"),
            pytest.param(2, 1, True, (6, 6, 2, 3, 3), id="2-1-True"),
            pytest.param(1, 1, True, (5, 6, 2, 4, 3), id="stride1-cin_lt_cout"),
            pytest.param(1, 1, True, (6, 5, 4, 2, 3), id="stride1-cin_gt_cout"),
            pytest.param(1, 1, True, (5, 4, 16, 3, 3), id="stride1-per_tap_forward"),
            pytest.param(1, 1, True, (6, 6, 1, 3, 3), id="cin1"),
            pytest.param(1, 0, True, (5, 4, 3, 2, 1), id="1x1-pad0-cin_gt_cout"),
            pytest.param(1, 0, False, (5, 4, 2, 3, 1), id="1x1-pad0-cin_lt_cout"),
            pytest.param(2, 1, False, (7, 5, 3, 2, 3), id="stride2-pad1-7x5"),
            pytest.param(1, 1, False, (7, 5, 4, 2, 3), id="7x5-cin_gt_cout"),
            pytest.param(1, 1, False, (7, 5, 2, 4, 3), id="7x5-cin_lt_cout"),
        ],
    )
    def test_conv2d(self, stride, pad, bias, shape):
        h, w, cin, cout, k = shape
        args = [self.rand(h, w, cin), self.rand(k, k, cin, cout)]
        if bias:
            args.append(self.rand(cout))
            check_grads(lambda x, w, b: T.conv2d(x, w, b, stride=stride, pad=pad), args)
        else:
            check_grads(lambda x, w: T.conv2d(x, w, stride=stride, pad=pad), args)

    @pytest.mark.parametrize("ca,cs,cout", [(3, 2, 2), (2, 3, 4)])
    def test_upsample_concat_conv(self, ca, cs, cout):
        check_grads(
            T.upsample_concat_conv,
            [self.rand(2, 3, ca), self.rand(4, 6, cs), self.rand(3, 3, ca + cs, cout), self.rand(cout)],
        )

    def test_bilinear_sample_map_grad(self):
        fmap = self.rand(7, 8, 3)
        n = 10
        coords = np.stack(
            [
                self.rng.integers(0, 7, n) + self.rng.uniform(0.2, 0.8, n),
                self.rng.integers(0, 6, n) + self.rng.uniform(0.2, 0.8, n),
            ],
            axis=1,
        )
        check_grads(lambda m: T.bilinear_sample(m, T.Tensor(coords)), [fmap])

    @pytest.mark.parametrize("shape", [(6, 7, 3), (5, 4, 1)])
    def test_central_difference(self, shape):
        check_grads(T.central_difference, [self.rand(*shape)])


def corner_product_sum(fmap, coords):
    """Bilinear samples as a (4, N, C) weighted-corner product summed over the corner axis."""
    h, w, c = fmap.shape
    xs, ys = coords[:, 0], coords[:, 1]
    x0 = np.minimum(xs.astype(np.int64), w - 2)
    y0 = np.minimum(ys.astype(np.int64), h - 2)
    tx, ty = xs - x0, ys - y0
    flat = y0 * w + x0
    corners = fmap.reshape(h * w, c)[np.concatenate([flat, flat + 1, flat + w, flat + w + 1])]
    weights = np.stack([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty])[:, :, None]
    return (weights * corners.reshape(4, -1, c)).sum(axis=0)


class TestBilinearSampler:
    """The one-gather sampler against the four-gather fancy-index form."""

    @pytest.mark.parametrize("channels", [1, 3, 8, 24])
    def test_values_and_gradients_bitwise(self, channels):
        rng = np.random.default_rng(11)
        height, width = 9, 13
        fmap = rng.standard_normal((height, width, channels))
        n = 300
        coords = np.stack([rng.uniform(0, width - 1, n), rng.uniform(0, height - 1, n)], axis=1)
        corners = np.array(
            [[0.0, 0.0], [width - 1, 0.0], [0.0, height - 1], [width - 1, height - 1]]
        )
        integers = np.stack([rng.integers(0, width, 20), rng.integers(0, height, 20)], axis=1)
        edges = np.array([[width - 1, 3.25], [width - 1, 4.0], [2.5, height - 1]])
        # Repeated points make the scatter sum into the same grid entries.
        coords = np.concatenate([coords, corners, integers, edges, coords[:40]])
        g = rng.standard_normal((len(coords), channels))
        want_out, want_dmap = fancy_index_bilinear(fmap, coords, g)
        # The pose solver's cost evaluation calls the untaped forward
        # directly; it writes its products into the gathered corners only.
        before = fmap.copy()
        assert np.array_equal(T.bilinear_forward(fmap, coords)[0], want_out)
        assert np.array_equal(fmap, before)
        tape = T.Tape()
        m = tape.leaf(fmap)
        out = T.bilinear_sample(m, T.Tensor(coords))
        tape.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(tape.grad(m), want_dmap)

    @pytest.mark.parametrize("channels", [1, 3, 24])
    @pytest.mark.parametrize("taped_map", [False, True])
    def test_forward_matches_corner_product_sum(self, channels, taped_map):
        # The forward adds the weighted corners in place; the (4, N, C)
        # product summed over its corner axis must give the same bits on
        # the taped and the untaped path, and the map gradient must not
        # see the products.
        rng = np.random.default_rng(13)
        height, width = 7, 10
        fmap = rng.standard_normal((height, width, channels))
        n = 200
        coords = np.concatenate(
            [
                np.stack([rng.uniform(0, width - 1, n), rng.uniform(0, height - 1, n)], axis=1),
                np.stack([rng.integers(0, width, 20), rng.integers(0, height, 20)], axis=1),
                np.array([[width - 1, 2.5], [3.75, height - 1], [width - 1, height - 1]]),
            ]
        ).astype(float)
        g = rng.standard_normal((len(coords), channels))
        want = corner_product_sum(fmap, coords)
        if not taped_map:
            assert np.array_equal(T.bilinear_sample(T.Tensor(fmap), T.Tensor(coords)).data, want)
            return
        _, want_dmap = fancy_index_bilinear(fmap, coords, g)
        tape = T.Tape()
        m = tape.leaf(fmap)
        out = T.bilinear_sample(m, T.Tensor(coords))
        tape.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        assert np.array_equal(out.data, want)
        assert np.array_equal(tape.grad(m), want_dmap)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_shared_corners_accumulate_in_index_order(self, channels):
        # Thousands of points on a 3x4 map: every grid entry sums hundreds
        # of contributions, so any other summation order changes its bits.
        rng = np.random.default_rng(12)
        fmap = rng.standard_normal((3, 4, channels))
        n = 2000
        coords = np.stack([rng.uniform(0, 3, n), rng.uniform(0, 2, n)], axis=1)
        g = rng.standard_normal((n, channels)) * rng.uniform(1e-3, 1e3, (n, 1))
        _, want_dmap = fancy_index_bilinear(fmap, coords, g)
        tape = T.Tape()
        m = tape.leaf(fmap)
        tape.backward(T.reduce_sum(T.mul(T.bilinear_sample(m, T.Tensor(coords)), T.Tensor(g))))
        assert np.array_equal(tape.grad(m), want_dmap)

    @pytest.mark.parametrize("taped_map", [False, True])
    def test_taped_coordinates_rejected(self, taped_map):
        # No caller differentiates a sampling position, so a taped one is
        # refused rather than given a silent zero gradient.
        fmap = np.zeros((4, 4, 2))
        tape = T.Tape()
        m = tape.leaf(fmap) if taped_map else T.Tensor(fmap)
        with pytest.raises(ValueError, match="coordinates must be constants"):
            T.bilinear_sample(m, tape.leaf(np.array([[1.0, 2.0], [1.5, 2.5]])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_rejects_non_finite_coordinates(self, bad, axis):
        fmap = np.zeros((4, 4, 2))
        coords = np.array([[1.0, 2.0], [1.5, 2.5]])
        coords[1, axis] = bad
        with pytest.raises(ValueError, match="outside the map"):
            T.bilinear_sample(T.Tensor(fmap), T.Tensor(coords))


class TestPrimitiveForward:
    def test_bilinear_integer_grid_exact(self):
        rng = np.random.default_rng(3)
        fmap = rng.standard_normal((5, 6, 4))
        ys, xs = np.meshgrid(np.arange(5), np.arange(6), indexing="ij")
        coords = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
        out = T.bilinear_sample(T.Tensor(fmap), T.Tensor(coords)).data
        np.testing.assert_array_equal(out, fmap.reshape(-1, 4))

    def test_bilinear_rejects_out_of_bounds(self):
        fmap = np.zeros((4, 4, 1))
        with pytest.raises(ValueError):
            T.bilinear_sample(T.Tensor(fmap), T.Tensor(np.array([[3.5, 1.0]])))

    def test_conv2d_identity_kernel(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 5, 3))
        w = np.eye(3).reshape(1, 1, 3, 3)
        out = T.conv2d(T.Tensor(x), T.Tensor(w)).data
        np.testing.assert_allclose(out, x, atol=0)

    def test_shape_mismatch_is_fault(self):
        with pytest.raises(ValueError):
            T.add(T.Tensor(np.zeros(3)), T.Tensor(np.zeros(4)))
        with pytest.raises(ValueError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))

    def test_inv2x2_singular_is_domain_fault(self):
        with pytest.raises(NumericalFault):
            T.inv2x2(T.Tensor(np.zeros((1, 2, 2))))


def per_tap_conv2d(x, w, b, g, stride, pad):
    """Forward value and (dx, dw, db) of a convolution, one product per tap."""
    kh, kw = w.shape[:2]
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    ho, wo = g.shape[:2]
    out = np.zeros(g.shape)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for di in range(kh):
        for dj in range(kw):
            rows = slice(di, di + stride * (ho - 1) + 1, stride)
            cols = slice(dj, dj + stride * (wo - 1) + 1, stride)
            out += xp[rows, cols] @ w[di, dj]
            dw[di, dj] = np.tensordot(xp[rows, cols], g, axes=([0, 1], [0, 1]))
            dxp[rows, cols] += g @ w[di, dj].T
    return out + b, dxp[pad : pad + x.shape[0], pad : pad + x.shape[1]], dw, g.sum(axis=(0, 1))


class TestConv2dLayouts:
    # The default network's conv2d layers, and dec1 and dec0 at their
    # concatenated shapes, which the network runs in upsample_concat_conv,
    # kept as 3x3 stride-1 coverage: (H, Cin, Cout, k, stride, pad).
    @pytest.mark.parametrize(
        "h,cin,cout,k,stride,pad",
        [
            pytest.param(64, 1, 16, 3, 1, 1, id="enc0"),
            pytest.param(64, 16, 32, 3, 2, 1, id="enc1"),
            pytest.param(32, 32, 64, 3, 2, 1, id="enc2"),
            pytest.param(32, 96, 32, 3, 1, 1, id="dec1"),
            pytest.param(64, 48, 16, 3, 1, 1, id="dec0"),
            pytest.param(64, 16, 8, 1, 1, 0, id="head0"),
            pytest.param(32, 32, 8, 1, 1, 0, id="head1"),
            pytest.param(16, 64, 8, 1, 1, 0, id="head2"),
        ],
    )
    def test_matches_per_tap_products_at_network_shapes(self, h, cin, cout, k, stride, pad):
        rng = np.random.default_rng(h + cin + cout)
        x = np.maximum(rng.standard_normal((h, h, cin)), 0.0)
        w = rng.standard_normal((k, k, cin, cout)) * np.sqrt(2.0 / (k * k * cin))
        b = rng.standard_normal(cout)
        tape = T.Tape()
        xl, wl, bl = tape.leaf(x), tape.leaf(w), tape.leaf(b)
        out = T.conv2d(xl, wl, bl, stride=stride, pad=pad)
        g = rng.standard_normal(out.data.shape)
        tape.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        expected = per_tap_conv2d(x, w, b, g, stride, pad)
        got = (out.data, tape.grad(xl), tape.grad(wl), tape.grad(bl))
        for name, value, reference in zip(("out", "dx", "dw", "db"), got, expected):
            # rtol 1e-12 of the largest entry: the two summation orders differ
            # in the last bits, which cancellation magnifies in a few entries
            # near zero (up to 1.4e-10 of their own size).
            scale = np.abs(reference).max()
            np.testing.assert_allclose(value, reference, rtol=0, atol=1e-12 * scale, err_msg=name)

    @pytest.mark.parametrize("cin,cout,stride", [(1, 4, 1), (6, 2, 1), (3, 5, 2)])
    def test_untaped_input_gets_no_gradient(self, cin, cout, stride):
        rng = np.random.default_rng(5)
        tape = T.Tape()
        w = tape.leaf(rng.standard_normal((3, 3, cin, cout)))
        out = T.conv2d(T.Tensor(rng.standard_normal((6, 5, cin))), w, stride=stride, pad=1)
        dx, dw = tape._backwards[out.node](np.ones(out.data.shape))
        assert dx is None
        assert dw.shape == w.data.shape


def nine_write_on_grid(x, w, g, pad):
    """(dx, dw) of a stride-1 convolution, shifted gradients written tap by tap.

    The reference for the decoder op's skip half, which reads G from one
    windowed copy of g: one strided write per tap into a zeroed
    (rows, kh*kw*Cout) matrix, then the same GEMMs.
    """
    (h, wi, cin), (kh, kw, _, cout) = x.shape, w.shape
    ho, wo = g.shape[:2]
    hp, wp = h + 2 * pad, wi + 2 * pad
    rows = T._pixel_rows(hp * wp)
    xp = np.zeros((rows, cin))
    xp[: hp * wp].reshape(hp, wp, cin)[pad : pad + h, pad : pad + wi] = x
    gm = np.zeros((rows, kh * kw * cout))
    shifted = gm[: hp * wp].reshape(hp, wp, kh, kw, cout)
    for di in range(kh):
        for dj in range(kw):
            shifted[di : di + ho, dj : dj + wo, di, dj] = g
    dw = (xp.T @ gm).reshape(cin, kh, kw, cout).transpose(1, 2, 0, 3)
    dxp = (gm[: hp * wp] @ w.transpose(0, 1, 3, 2).reshape(-1, cin)).reshape(hp, wp, cin)
    return dxp[pad : pad + h, pad : pad + wi], dw


class TestOnGridShiftedGradients:
    # The decoder op's skip half at dec1 and dec0 and on a 10x10 map, whose
    # 144 padded pixels are not a multiple of 32 rows; and conv2d at two 1x1
    # heads, whose im2col backward runs the same GEMMs. Ca is the decoder
    # op's upsampled channels, 0 for conv2d.
    @pytest.mark.parametrize(
        "h,ca,cin,cout,k",
        [
            pytest.param(32, 64, 32, 32, 3, id="dec1"),
            pytest.param(64, 32, 16, 16, 3, id="dec0"),
            pytest.param(64, 0, 16, 8, 1, id="head0"),
            pytest.param(16, 0, 64, 8, 1, id="head2"),
            pytest.param(10, 4, 5, 3, 3, id="10x10"),
        ],
    )
    def test_matches_nine_writes_bitwise(self, h, ca, cin, cout, k):
        rng = np.random.default_rng(h + cin)
        x = rng.standard_normal((h, h, cin))
        w = rng.standard_normal((k, k, ca + cin, cout))
        tape = T.Tape()
        xl, wl = tape.leaf(x), tape.leaf(w)
        if ca:
            a = rng.standard_normal((h // 2, h // 2, ca))
            out = T.upsample_concat_conv(a, xl, wl, np.zeros(cout))
        else:
            out = T.conv2d(xl, wl)
        g = rng.standard_normal(out.data.shape)
        tape.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        dx, dw = nine_write_on_grid(x, w[:, :, ca:], g, k // 2)
        assert np.array_equal(tape.grad(xl), dx)
        assert np.array_equal(tape.grad(wl)[:, :, ca:], dw)


class TestUpsampleConcatConv:
    """The fused decoder op against conv2d on the concatenated input."""

    # dec1 and dec0 of the default network, and dec0 at base_width 4, whose
    # 12 input channels take conv2d's im2col forward.
    @pytest.mark.parametrize(
        "h,ca,cs,cout",
        [
            pytest.param(32, 64, 32, 32, id="dec1"),
            pytest.param(64, 32, 16, 16, id="dec0"),
            pytest.param(64, 8, 4, 4, id="dec0-width4"),
        ],
    )
    def test_matches_conv2d_on_repeat_then_concatenate(self, h, ca, cs, cout):
        rng = np.random.default_rng(h + ca)
        a = np.maximum(rng.standard_normal((h // 2, h // 2, ca)), 0.0)
        skip = np.maximum(rng.standard_normal((h, h, cs)), 0.0)
        w = rng.standard_normal((3, 3, ca + cs, cout)) * np.sqrt(2.0 / (9 * (ca + cs)))
        b = rng.standard_normal(cout)
        g = rng.standard_normal((h, h, cout))
        cat = np.concatenate([np.repeat(np.repeat(a, 2, axis=0), 2, axis=1), skip], axis=2)
        tape = T.Tape()
        xl, wl, bl = tape.leaf(cat), tape.leaf(w), tape.leaf(b)
        want = T.conv2d(xl, wl, bl, stride=1, pad=1)
        tape.backward(T.reduce_sum(T.mul(want, T.Tensor(g))))
        dcat, want_dw, want_db = tape.grad(xl), tape.grad(wl), tape.grad(bl)

        tape = T.Tape()
        al, sl, wl, bl = tape.leaf(a), tape.leaf(skip), tape.leaf(w), tape.leaf(b)
        out = T.upsample_concat_conv(al, sl, wl, bl)
        tape.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        da, dskip, dw, db = tape.grad(al), tape.grad(sl), tape.grad(wl), tape.grad(bl)

        assert np.array_equal(out.data, want.data)
        assert np.array_equal(db, want_db)
        # The skip half is a stride-1 convolution of its own channels.
        want_dskip, want_dw_skip = nine_write_on_grid(skip, w[:, :, ca:], g, 1)
        assert np.array_equal(dskip, want_dskip)
        assert np.array_equal(dw[:, :, ca:], want_dw_skip)
        # Against conv2d, both halves sum the same products in another order.
        want_da = dcat[:, :, :ca].reshape(h // 2, 2, h // 2, 2, ca).sum(axis=(1, 3))
        for got, ref in [(da, want_da), (dw, want_dw), (dskip, dcat[:, :, ca:])]:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize(
        "skip_shape,w_shape",
        [((4, 5, 2), (3, 3, 5, 2)), ((4, 6, 2), (3, 3, 4, 2)), ((4, 6, 2), (1, 1, 5, 2))],
        ids=["skip-size", "kernel-channels", "kernel-size"],
    )
    def test_shape_mismatch_rejected(self, skip_shape, w_shape):
        with pytest.raises(ValueError, match="upsample_concat_conv"):
            T.upsample_concat_conv(np.zeros((2, 3, 3)), np.zeros(skip_shape), np.zeros(w_shape), np.zeros(2))

    def test_backward_never_builds_the_shifted_gradients_whole(self):
        # dec0 of the default network. Its skip half's G (4,384 x 144) alone
        # is 5.05 MB; one flat copy of g is 0.58 MB, and the whole backward,
        # with every gradient it returns, peaks at about 2.6 MB.
        rng = np.random.default_rng(0)
        tape = T.Tape()
        leaves = [tape.leaf(rng.standard_normal(shape)) for shape in [(32, 32, 32), (64, 64, 16), (3, 3, 48, 16), (16,)]]
        out = T.upsample_concat_conv(*leaves)
        g = rng.standard_normal(out.shape)
        tracemalloc.start()
        try:
            tape.backward([out], [g])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, f"backward peaked at {peak / 1e6:.2f} MB"


class TestBackward:
    def test_sum_of_leaf_gives_ones(self):
        tape = T.Tape()
        theta = tape.leaf(np.arange(6.0).reshape(2, 3))
        tape.backward(T.reduce_sum(theta))
        np.testing.assert_array_equal(tape.grad(theta), np.ones((2, 3)))

    def test_quadratic_closed_form(self):
        # loss = ||A theta||^2  ->  grad = 2 A^T A theta
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 4))
        theta0 = rng.standard_normal((4, 1))
        tape = T.Tape()
        theta = tape.leaf(theta0)
        y = T.matmul(T.Tensor(a), theta)
        tape.backward(T.reduce_sum(T.mul(y, y)))
        expected = 2.0 * a.T @ a @ theta0
        np.testing.assert_allclose(tape.grad(theta), expected, atol=1e-10)

    def test_chained_conv_relu_sum_matches_fd(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 6, 2))
        w = rng.standard_normal((3, 3, 2, 4)) * 0.5
        b = rng.standard_normal(4) * 0.1

        def loss_value():
            out = T.relu(T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), pad=1))
            return float(T.reduce_sum(out).data)

        tape = T.Tape()
        xw, ww, bw = tape.leaf(x), tape.leaf(w), tape.leaf(b)
        tape.backward(T.reduce_sum(T.relu(T.conv2d(xw, ww, bw, pad=1))))
        for arr, leaf in [(x, xw), (w, ww), (b, bw)]:
            err = max_relative_error(tape.grad(leaf), numeric_gradient(loss_value, arr))
            assert err < 1e-6

    def test_backward_is_linear(self):
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal((4, 4))

        def grad_of(alpha, beta):
            tape = T.Tape()
            x = tape.leaf(x0)
            l1 = T.reduce_sum(T.mul(x, x))
            l2 = T.reduce_sum(T.sqrt(T.add(T.mul(x, x), 1.0)))
            tape.backward(T.add(T.mul(l1, alpha), T.mul(l2, beta)))
            return tape.grad(x)

        g_combined = grad_of(2.0, -3.0)
        g_separate = 2.0 * grad_of(1.0, 0.0) + (-3.0) * grad_of(0.0, 1.0)
        np.testing.assert_allclose(g_combined, g_separate, atol=1e-10)

    def test_nonscalar_loss_is_fault(self):
        tape = T.Tape()
        x = tape.leaf(np.zeros(3))
        with pytest.raises(ValueError):
            tape.backward(T.mul(x, 2.0))

    def test_outputs_with_incoming_gradients_match_their_surrogate_loss(self):
        # Starting at outputs y, z with gradients gy, gz is backward(loss) of
        # sum(y * gy) + sum(z * gz), bit for bit; y also feeds z.
        rng = np.random.default_rng(4)
        gy, gz = rng.standard_normal(4), rng.standard_normal((2, 2))
        grads = []
        for surrogate in (False, True):
            tape = T.Tape()
            x = tape.leaf(np.linspace(0.5, 2.0, 4))
            y = T.sqrt(T.mul(x, x))
            z = T.reshape(T.mul(y, x), (2, 2))
            if surrogate:
                tape.backward(T.add(T.reduce_sum(T.mul(y, T.Tensor(gy))), T.reduce_sum(T.mul(z, T.Tensor(gz)))))
            else:
                tape.backward([y, z], [gy, gz])
            grads.append(tape.grad(x))
        assert np.array_equal(grads[0], grads[1])

    def test_outputs_are_checked(self):
        tape, other = T.Tape(), T.Tape()
        x = tape.leaf(np.ones(3))
        y = T.mul(x, 2.0)
        with pytest.raises(ValueError, match="not recorded on this tape"):
            tape.backward([other.leaf(np.ones(3))], [np.ones(3)])
        with pytest.raises(ValueError, match="gradient shape"):
            tape.backward([y], [np.ones(2)])
        with pytest.raises(ValueError, match="zip"):
            tape.backward([y], [np.ones(3), np.ones(3)])
        tape.backward([y], [np.arange(3.0)])
        np.testing.assert_array_equal(tape.grad(x), [0.0, 2.0, 4.0])

    def test_unused_leaf_gets_zeros(self):
        tape = T.Tape()
        x = tape.leaf(np.ones(3))
        y = tape.leaf(np.ones(2))
        tape.backward(T.reduce_sum(x))
        np.testing.assert_array_equal(tape.grad(y), np.zeros(2))

    def test_grad_of_inner_node_raises(self):
        tape = T.Tape()
        x = tape.leaf(np.arange(3.0))
        y = T.mul(x, 2.0)
        tape.backward(T.reduce_sum(T.mul(y, y)))
        with pytest.raises(ValueError, match="leaf gradients only"):
            tape.grad(y)
        np.testing.assert_array_equal(tape.grad(x), [0.0, 8.0, 16.0])

    def test_inner_gradient_freed_once_backpropagated(self):
        # y's gradient is the fresh array z's backward allocates (mul by a
        # constant); once y has passed it on, nothing may keep it.
        tape = T.Tape()
        x = tape.leaf(np.ones(50))
        y = T.mul(x, 2.0)
        loss = T.reduce_sum(T.mul(y, 3.0))
        received = []
        backward_of_y = tape._backwards[y.node]

        def spy(g):
            received.append(weakref.ref(g))
            return backward_of_y(g)

        tape._backwards[y.node] = spy
        tape.backward(loss)
        assert len(received) == 1 and received[0]() is None
        np.testing.assert_array_equal(tape.grad(x), np.full(50, 6.0))

    def test_random_composed_graphs(self):
        # Shape-preserving random graphs up to depth 8, gradchecked.
        rng = np.random.default_rng(12)
        for trial in range(8):
            depth = int(rng.integers(2, 9))
            x0 = rng.uniform(0.2, 1.0, (4, 4, 2))
            aux = rng.uniform(-1.0, 1.0, (4, 4, 2))
            kernel = rng.standard_normal((1, 1, 2, 2)) * 0.7
            sample_at = rng.uniform(0.0, 3.0, (16, 2))
            ops = [int(rng.integers(0, 5)) for _ in range(depth)]

            def build(x, ops=ops):
                out = x
                for op in ops:
                    if op == 0:
                        out = T.add(out, T.Tensor(aux))
                    elif op == 1:
                        out = T.mul(out, 0.7)
                    elif op == 2:
                        out = T.relu(T.add(out, 0.3))
                    elif op == 3:
                        out = T.conv2d(out, T.Tensor(kernel))
                    else:
                        out = T.reshape(T.bilinear_sample(out, T.Tensor(sample_at)), (4, 4, 2))
                return out

            check_grads(build, [x0], seed=trial)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = [np.ones((2, 2))]
        state = adam_init(p)
        adam_step(p, [np.zeros((2, 2))], state, lr=0.1)
        np.testing.assert_array_equal(p[0], np.ones((2, 2)))

    def test_single_step_magnitude(self):
        # From zero state with constant gradient g, the bias-corrected step
        # is lr * g / (|g| + eps): magnitude ~= lr.
        lr = 1e-3
        p = [np.zeros(4)]
        g = np.full(4, 0.37)
        state = adam_init(p)
        adam_step(p, [g], state, lr=lr)
        np.testing.assert_allclose(np.abs(p[0]), lr, atol=1e-8)
        assert np.all(np.sign(p[0]) == -1.0)

    def test_quadratic_convergence(self):
        # 200 steps on f(x) = 0.5 (x - x*)^T diag(1, 4) (x - x*), lr = 0.1.
        target = np.array([1.3, -0.4])
        scales = np.array([1.0, 4.0])
        p = [np.zeros(2)]
        state = adam_init(p)
        for _ in range(200):
            grad = scales * (p[0] - target)
            adam_step(p, [grad], state, lr=0.1)
        assert np.linalg.norm(p[0] - target) < 1e-2


class TestWeightsIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        params = {
            "enc0/w": rng.standard_normal((3, 3, 1, 8)),
            "enc0/b": rng.standard_normal(8),
            "config/levels": np.asarray(3.0),
            "weird name é": rng.standard_normal((2, 1, 2)),
        }
        path = tmp_path / "weights.gnnw"
        save_weights(path, params)
        loaded = load_weights(path)
        assert list(loaded) == list(params)
        for name in params:
            assert loaded[name].shape == np.asarray(params[name]).shape
            assert loaded[name].tobytes() == np.asarray(params[name], dtype="<f8").tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(14)
        params = {"a": rng.standard_normal((4, 4)), "b": rng.standard_normal(3)}
        p1, p2 = tmp_path / "w1.gnnw", tmp_path / "w2.gnnw"
        save_weights(p1, params)
        save_weights(p2, load_weights(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_is_version_fault(self, tmp_path):
        path = tmp_path / "bad.gnnw"
        save_weights(path, {"a": np.zeros(2)})
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFault, match="bad magic"):
            load_weights(path)

    def test_unsupported_version_is_version_fault(self, tmp_path):
        path = tmp_path / "bad.gnnw"
        save_weights(path, {"a": np.zeros(2)})
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFault, match="unsupported format version 99"):
            load_weights(path)

    def test_truncation_is_truncation_fault(self, tmp_path):
        path = tmp_path / "short.gnnw"
        save_weights(path, {"a": np.arange(16.0)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataFault, match="file ends 5 bytes early"):
            load_weights(path)

    def test_extents_whose_product_wraps_int64_are_a_truncation_fault(self, tmp_path):
        path = tmp_path / "huge.gnnw"
        save_weights(path, {"a": np.zeros((1, 1, 4))})
        blob = path.read_bytes()
        # Extents follow magic, version, count, name length, the name "a" and the rank.
        path.write_bytes(blob[:21] + struct.pack("<3I", 2**31, 2**31, 4) + blob[33:])
        with pytest.raises(DataFault, match=f"file ends {8 * 2**64 - 32} bytes early"):
            load_weights(path)

    def test_name_not_utf8_is_data_fault(self, tmp_path):
        path = tmp_path / "name.gnnw"
        save_weights(path, {"a": np.zeros(2)})
        blob = bytearray(path.read_bytes())
        blob[16] = 0xFF  # the first name byte, after magic, version, count and name length
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFault, match=r"name\.gnnw: parameter name b'\\xff' is not valid UTF-8"):
            load_weights(path)

    def test_bytes_after_last_parameter_are_data_fault(self, tmp_path):
        path = tmp_path / "tail.gnnw"
        save_weights(path, {"a": np.arange(3.0), "b": np.ones(2)})
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(DataFault, match=r"tail\.gnnw: 8 bytes after the last parameter"):
            load_weights(path)

    def test_repeated_name_is_data_fault(self, tmp_path):
        path = tmp_path / "twice.gnnw"
        save_weights(path, {"w1": np.arange(3.0), "w2": np.ones(2)})
        path.write_bytes(path.read_bytes().replace(b"w2", b"w1"))
        with pytest.raises(DataFault, match=r"twice\.gnnw: parameter w1 appears twice"):
            load_weights(path)

"""Loss tests: scalar-loop oracles, Gaussian NLL oracle, gradient flow."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from featalign import tensor as T
from featalign.alignment import map_gradient, pixel_gauss_newton
from featalign.losses import (
    LOG_2PI,
    CorrespondenceBatch,
    LossConfig,
    contrastive_loss,
    gauss_newton_loss,
    gaussian_nll_terms,
    total_loss,
)
from featalign.network import NetworkConfig, build_network, forward_pyramid

from helpers import max_relative_error, numeric_gradient


def loop_interp(m, x, y):
    """Naive scalar bilinear interpolation, clamped like the library."""
    h, w = m.shape[:2]
    x0 = min(max(int(np.floor(x)), 0), w - 2)
    y0 = min(max(int(np.floor(y)), 0), h - 2)
    tx, ty = x - x0, y - y0
    out = np.zeros(m.shape[2])
    for c in range(m.shape[2]):
        out[c] = (
            (1 - tx) * (1 - ty) * m[y0, x0, c]
            + tx * (1 - ty) * m[y0, x0 + 1, c]
            + (1 - tx) * ty * m[y0 + 1, x0, c]
            + tx * ty * m[y0 + 1, x0 + 1, c]
        )
    return out


def loop_contrastive(fa, fb, batch, margin):
    """Per-pair python-loop contrastive loss oracle (no tensor ops)."""
    total = 0.0
    if batch.n_pos:
        acc = 0.0
        for i in range(batch.n_pos):
            da = loop_interp(fa, batch.pos_a[i, 0], batch.pos_a[i, 1])
            db = loop_interp(fb, batch.pos_b[i, 0], batch.pos_b[i, 1])
            acc += float(np.sum((da - db) ** 2))
        total += acc / batch.n_pos
    if batch.n_neg:
        acc = 0.0
        for i in range(batch.n_neg):
            da = loop_interp(fa, batch.neg_a[i, 0], batch.neg_a[i, 1])
            db = loop_interp(fb, batch.neg_b[i, 0], batch.neg_b[i, 1])
            dist = float(np.linalg.norm(da - db))
            acc += max(0.0, margin - dist) ** 2
        total += acc / batch.n_neg
    return total


def ramp_map(h, w, scale=1.0):
    """D=2 map whose channels are the x and y coordinates times scale."""
    ys, xs = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    return np.stack([xs, ys], axis=2) * scale


def random_batch(rng, h, w, n_pos, n_neg, margin=2.0):
    def pts(n):
        return np.stack(
            [rng.uniform(margin, w - 1 - margin, n), rng.uniform(margin, h - 1 - margin, n)],
            axis=1,
        )

    return CorrespondenceBatch(pts(n_pos), pts(n_pos), pts(n_neg), pts(n_neg))


class TestContrastive:
    def test_identical_maps_zero_positive_loss(self):
        rng = np.random.default_rng(0)
        fmap = rng.standard_normal((10, 12, 4))
        pts = np.array([[2.0, 3.0], [7.5, 4.25], [10.0, 8.0]])
        batch = CorrespondenceBatch(pts, pts, np.empty((0, 2)), np.empty((0, 2)))
        loss = contrastive_loss(T.Tensor(fmap), T.Tensor(fmap), batch, margin=1.0)
        assert float(loss.data) == 0.0

    def test_negative_pair_hinge_value(self):
        # Two constant maps 0.5 apart: hinge contribution (1 - 0.5)^2.
        fa = np.zeros((6, 6, 1))
        fb = np.full((6, 6, 1), 0.5)
        batch = CorrespondenceBatch(
            np.empty((0, 2)), np.empty((0, 2)), np.array([[2.0, 2.0]]), np.array([[3.0, 3.0]])
        )
        loss = contrastive_loss(T.Tensor(fa), T.Tensor(fb), batch, margin=1.0)
        assert float(loss.data) == pytest.approx(0.25, abs=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            fa = rng.standard_normal((9, 11, 3))
            fb = rng.standard_normal((9, 11, 3))
            batch = random_batch(rng, 9, 11, n_pos=7, n_neg=9)
            got = float(contrastive_loss(T.Tensor(fa), T.Tensor(fb), batch, 1.0).data)
            assert got == pytest.approx(loop_contrastive(fa, fb, batch, 1.0), abs=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        fa = rng.standard_normal((8, 8, 2))
        fb = rng.standard_normal((8, 8, 2))
        batch = random_batch(rng, 8, 8, 12, 12)
        perm = rng.permutation(12)
        shuffled = CorrespondenceBatch(
            batch.pos_a[perm], batch.pos_b[perm], batch.neg_a[perm], batch.neg_b[perm]
        )
        l1 = float(contrastive_loss(T.Tensor(fa), T.Tensor(fb), batch, 1.0).data)
        l2 = float(contrastive_loss(T.Tensor(fa), T.Tensor(fb), shuffled, 1.0).data)
        assert abs(l1 - l2) < 1e-12

    def test_empty_batch_is_fault(self):
        empty = np.empty((0, 2))
        batch = CorrespondenceBatch(empty, empty, empty, empty)
        with pytest.raises(ValueError):
            contrastive_loss(T.Tensor(np.zeros((4, 4, 1))), T.Tensor(np.zeros((4, 4, 1))), batch, 1.0)


class TestGaussNewtonLoss:
    def config(self, **kw):
        base = dict(gn_weight=1.0, vicinity_radius=2.0, epsilon=1e-12)
        base.update(kw)
        return LossConfig(**base)

    def test_unit_hessian_at_mean(self):
        # Identity-ramp features force J = I and land mu exactly on u_b:
        # e1 = 0 and e2 = log(2 pi) per correspondence.
        fmap = ramp_map(16, 16)
        pts = np.array([[7.0, 8.0], [5.5, 9.0], [10.0, 4.5]])
        batch = CorrespondenceBatch(pts, pts, np.empty((0, 2)), np.empty((0, 2)))
        rng = np.random.default_rng(3)
        loss = gauss_newton_loss(T.Tensor(fmap), T.Tensor(fmap), batch, self.config(), rng)
        assert float(loss.data) == pytest.approx(LOG_2PI, abs=1e-9)

    def test_doubling_hessian_shifts_e2_by_log2(self):
        pts = np.array([[7.0, 8.0], [6.5, 6.0]])
        batch = CorrespondenceBatch(pts, pts, np.empty((0, 2)), np.empty((0, 2)))
        unit = ramp_map(16, 16, scale=1.0)
        doubled = ramp_map(16, 16, scale=np.sqrt(2.0))
        l_unit = gauss_newton_loss(
            T.Tensor(unit), T.Tensor(unit), batch, self.config(), np.random.default_rng(4)
        )
        l_doubled = gauss_newton_loss(
            T.Tensor(doubled), T.Tensor(doubled), batch, self.config(), np.random.default_rng(4)
        )
        assert float(l_unit.data) - float(l_doubled.data) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_nll_terms_match_scipy_oracle(self):
        rng = np.random.default_rng(5)
        n = 200
        a = rng.standard_normal((n, 2, 2))
        hess = a @ np.swapaxes(a, 1, 2) + 0.2 * np.eye(2)
        mu = rng.uniform(-3, 3, (n, 2))
        x = rng.uniform(-3, 3, (n, 2))
        e1, e2 = gaussian_nll_terms(T.Tensor(mu), T.Tensor(hess), x)
        ours = e1.data + e2.data
        for i in range(n):
            ref = -multivariate_normal(mean=mu[i], cov=np.linalg.inv(hess[i])).logpdf(x[i])
            assert abs(ours[i] - ref) < 1e-10

    def test_zero_residual_identity_start(self):
        # Frozen features equal on both branches and x_s = u_b: residual 0,
        # mu = x_s, e1 = 0.
        rng = np.random.default_rng(6)
        fmap = rng.standard_normal((12, 12, 3)).cumsum(axis=0).cumsum(axis=1) * 0.01
        pts = np.array([[5.0, 6.0], [4.0, 7.5]])
        batch = CorrespondenceBatch(pts, pts, np.empty((0, 2)), np.empty((0, 2)))

        class FixedRng:
            def uniform(self, lo, hi, size=None):
                return np.zeros(size)

        cfg = self.config(epsilon=1e-3)
        fa, fb = T.Tensor(fmap), T.Tensor(fmap)
        f_t = T.bilinear_sample(fa, T.Tensor(batch.pos_a))
        f_s = T.bilinear_sample(fb, T.Tensor(batch.pos_b))
        np.testing.assert_allclose(f_s.data, f_t.data, atol=0)
        loss = gauss_newton_loss(fa, fb, batch, cfg, FixedRng())
        # e1 contributes nothing; loss is the mean e2 of the two points.
        ex = np.array([1.0, 0.0])
        ey = np.array([0.0, 1.0])
        e2_expected = 0.0
        for p in pts:
            jx = (loop_interp(fmap, *(p + ex)) - loop_interp(fmap, *(p - ex))) / 2
            jy = (loop_interp(fmap, *(p + ey)) - loop_interp(fmap, *(p - ey))) / 2
            jac = np.stack([jx, jy], axis=1)
            h = jac.T @ jac + 1e-3 * np.eye(2)
            e2_expected += LOG_2PI - 0.5 * np.log(np.linalg.det(h))
        assert float(loss.data) == pytest.approx(e2_expected / 2, abs=1e-10)

    def test_e1_nonnegative_and_spd_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            fa = rng.standard_normal((10, 10, 2))
            fb = rng.standard_normal((10, 10, 2))
            batch = random_batch(rng, 10, 10, 6, 0, margin=3.0)
            cfg = self.config(epsilon=1e-3)
            loss = gauss_newton_loss(T.Tensor(fa), T.Tensor(fb), batch, cfg, rng)
            assert np.isfinite(float(loss.data))

    def test_empty_positives_fault(self):
        empty = np.empty((0, 2))
        batch = CorrespondenceBatch(empty, empty, empty, empty)
        with pytest.raises(ValueError):
            gauss_newton_loss(
                T.Tensor(np.zeros((6, 6, 1))),
                T.Tensor(np.zeros((6, 6, 1))),
                batch,
                self.config(),
                np.random.default_rng(0),
            )


class TestTotalLoss:
    def pyramids(self, rng, cfg_net=None):
        cfg_net = cfg_net or NetworkConfig(descriptor_dim=3, pyramid_levels=2, base_width=3, seed=11)
        weights = build_network(cfg_net)
        img_a = rng.uniform(size=(16, 16, 1))
        img_b = rng.uniform(size=(16, 16, 1))
        pa = forward_pyramid(weights.params, img_a, cfg_net)
        pb = forward_pyramid(weights.params, img_b, cfg_net)
        return weights, img_a, img_b, pa, pb

    def test_zero_weight_equals_contrastive(self):
        rng = np.random.default_rng(8)
        _, _, _, pa, pb = self.pyramids(rng)
        batch = random_batch(rng, 16, 16, 8, 8, margin=3.0)
        cfg = LossConfig(gn_weight=0.0)
        loss, parts = total_loss(pa, pb, batch, cfg, np.random.default_rng(0))
        manual = sum(
            float(contrastive_loss(pa[l], pb[l], batch.scaled(1 / 2**l), cfg.margin).data)
            for l in range(2)
        )
        assert float(loss.data) == pytest.approx(manual, abs=1e-12)
        assert parts["gauss_newton"] == 0.0

    def test_degenerate_composition_equals_gn(self):
        # Identical maps, matching coords, no negatives, unit weight: the
        # contrastive term is exactly zero, so the total is the GN loss.
        rng = np.random.default_rng(9)
        fmap = rng.standard_normal((8, 8, 2))
        pts = np.array([[3.0, 4.0], [5.0, 2.5]])
        batch = CorrespondenceBatch(pts, pts, np.empty((0, 2)), np.empty((0, 2)))
        cfg = LossConfig(gn_weight=1.0, vicinity_radius=1.0)
        pa = [T.Tensor(fmap)]
        pb = [T.Tensor(fmap)]
        loss, _ = total_loss(pa, pb, batch, cfg, np.random.default_rng(42))
        gn = gauss_newton_loss(pa[0], pb[0], batch, cfg, np.random.default_rng(42), vicinity=1.0)
        assert float(loss.data) == pytest.approx(float(gn.data), abs=1e-15)

    def test_gradcheck_total_loss_small(self):
        # Smoke-scale version of the acceptance gradient-integrity check.
        cfg_net = NetworkConfig(descriptor_dim=2, pyramid_levels=2, base_width=2, seed=13)
        weights = build_network(cfg_net)
        rng = np.random.default_rng(14)
        img_a = rng.uniform(0.2, 0.8, (16, 16, 1))
        img_b = rng.uniform(0.2, 0.8, (16, 16, 1))
        batch = random_batch(rng, 16, 16, 5, 5, margin=3.0)
        cfg = LossConfig(gn_weight=0.5, vicinity_radius=2.0, epsilon=1e-3)

        def loss_value():
            pa = forward_pyramid(weights.params, img_a, cfg_net)
            pb = forward_pyramid(weights.params, img_b, cfg_net)
            loss, _ = total_loss(pa, pb, batch, cfg, np.random.default_rng(99))
            return float(loss.data)

        tape = T.Tape()
        taped = {name: tape.leaf(arr) for name, arr in weights.params.items()}
        pa = forward_pyramid(taped, img_a, cfg_net)
        pb = forward_pyramid(taped, img_b, cfg_net)
        loss, _ = total_loss(pa, pb, batch, cfg, np.random.default_rng(99))
        tape.backward(loss)
        worst = 0.0
        for name, arr in weights.params.items():
            numeric = numeric_gradient(loss_value, arr)
            worst = max(worst, max_relative_error(tape.grad(taped[name]), numeric))
        assert worst < 1e-4, f"max relative error {worst:.3e}"

    def test_gradient_locality(self):
        # Feature-map gradients vanish at pixels no sampling stencil touches.
        fmap_a = np.random.default_rng(15).standard_normal((12, 12, 2))
        fmap_b = np.random.default_rng(16).standard_normal((12, 12, 2))
        pts_a = np.array([[3.0, 3.0]])
        pts_b = np.array([[8.0, 8.0]])
        batch = CorrespondenceBatch(pts_a, pts_b, np.empty((0, 2)), np.empty((0, 2)))
        cfg = LossConfig(gn_weight=1.0, vicinity_radius=1.0, epsilon=1e-3)
        tape = T.Tape()
        ta, tb = tape.leaf(fmap_a), tape.leaf(fmap_b)
        loss, _ = total_loss([ta], [tb], batch, cfg, np.random.default_rng(17))
        tape.backward(loss)
        grad_a = tape.grad(ta)
        grad_b = tape.grad(tb)
        # u_a stencil is the 2x2 cell at (3, 3); allow the whole 4-px box.
        mask_a = np.zeros((12, 12), dtype=bool)
        mask_a[2:6, 2:6] = True
        assert np.all(grad_a[~mask_a] == 0.0)
        # x_s jitters within 1 px of u_b and the derivative stencil adds 1
        # more: allow a 6-px box around (8, 8).
        mask_b = np.zeros((12, 12), dtype=bool)
        mask_b[5:12, 5:12] = True
        assert np.all(grad_b[~mask_b] == 0.0)
        assert np.any(grad_a != 0) and np.any(grad_b != 0)


class TestGaussianBelief:
    def test_belief_on_identity_ramp(self):
        # Identity-gradient map: the per-pixel Gauss-Newton belief mean is
        # the true landing point and the information matrix is (1 + eps) I.
        fmap = ramp_map(16, 16)
        target = np.array([9.0, 6.0])
        mu, hess = pixel_gauss_newton(
            fmap, map_gradient(fmap), np.array([[7.5, 7.5]]), target[None, :], eps=1e-9
        )
        np.testing.assert_allclose(mu.data[0], target, atol=1e-6)
        np.testing.assert_allclose(hess.data[0], np.eye(2), atol=1e-6)
        covariance = T.inv2x2(hess).data[0]
        np.testing.assert_allclose(covariance @ hess.data[0], np.eye(2), atol=1e-9)


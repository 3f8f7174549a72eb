"""Solver tests: per-pixel GN, pose-system assembly, coarse-to-fine alignment."""

import numpy as np
import pytest

from featalign import alignment, network
from featalign import tensor as T
from featalign.alignment import (
    STENCIL_MARGIN,
    AlignmentConfig,
    align_pose,
    build_pose_system,
    gradient_weight,
    huber_cost,
    huber_weight,
    intensity_extractor,
    intensity_pyramid,
    interp,
    map_gradient,
    method_config,
    network_extractor,
    pixel_gauss_newton,
    select_keyframe_points,
    stencil_valid,
    track_pixels,
)
from featalign.bench.dataset_io import DatasetSplit
from featalign.bench.evaluate import run_relocalization
from featalign.bench.scene import Frame, RelocCandidate, SceneConfig, generate_scene
from featalign.geometry import (
    CameraIntrinsics,
    SE3Pose,
    project_points,
    projection_jacobian,
    se3_exp,
)

from helpers import fancy_index_bilinear

INTR = CameraIntrinsics(fx=60.0, fy=60.0, cx=31.5, cy=31.5, width=64, height=64)


def loop_interp(m, x, y):
    h, w = m.shape[:2]
    x0 = min(max(int(np.floor(x)), 0), w - 2)
    y0 = min(max(int(np.floor(y)), 0), h - 2)
    tx, ty = x - x0, y - y0
    return (
        (1 - tx) * (1 - ty) * m[y0, x0]
        + tx * (1 - ty) * m[y0, x0 + 1]
        + (1 - tx) * ty * m[y0 + 1, x0]
        + tx * ty * m[y0 + 1, x0 + 1]
    )


class TestResidual:
    """The solver's residual: target descriptor at the projection minus reference.

    With a Huber threshold far above every residual and no gradient weight,
    the pose system's cost is the mean squared residual norm.
    """

    cfg = AlignmentConfig(huber_delta=1e6, min_valid_points=1)

    def test_identity_zero(self):
        rng = np.random.default_rng(0)
        fmap = rng.standard_normal((64, 64, 3))
        system = build_pose_system(
            fmap, fmap, np.array([[20.0, 30.0]]), np.array([0.5]), SE3Pose.identity(), INTR, self.cfg
        )
        assert system.n_valid == 1
        assert system.cost < 1e-24
        np.testing.assert_allclose(system.b, 0.0, atol=1e-12)

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        fmap = rng.standard_normal((64, 64, 2))
        offset = np.array([0.7, -1.1])
        system = build_pose_system(
            fmap, fmap + offset, np.array([[11.0, 47.0]]), np.array([1.0]),
            SE3Pose.identity(), INTR, self.cfg,
        )
        assert system.cost == pytest.approx(offset @ offset, abs=1e-12)

    def test_out_of_view_dropped(self):
        fmap = np.zeros((64, 64, 1))
        pose = SE3Pose(np.eye(3), np.array([50.0, 0.0, 0.0]))
        system = build_pose_system(
            fmap, fmap, np.array([[5.0, 5.0]]), np.array([1.0]), pose, INTR, self.cfg
        )
        assert system.n_valid == 0
        assert not np.isfinite(system.cost)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        fref = rng.standard_normal((64, 64, 4))
        ftgt = rng.standard_normal((64, 64, 4))
        pose = se3_exp(np.array([0.05, -0.02, 0.01, 0.004, -0.006, 0.003]))
        checked = 0
        while checked < 50:
            pixel = rng.uniform(8, 55, (1, 2))
            inv_depth = rng.uniform(0.2, 0.5, 1)
            projected, _, valid = project_points(INTR.back_project(pixel, inv_depth), pose, INTR)
            system = build_pose_system(fref, ftgt, pixel, inv_depth, pose, INTR, self.cfg)
            assert system.n_valid == int(valid[0])
            if not valid[0]:
                continue
            expected = loop_interp(ftgt, *projected[0]) - loop_interp(fref, *pixel[0])
            assert system.cost == pytest.approx(expected @ expected, rel=1e-12, abs=1e-12)
            checked += 1


def linear_field(h, w, a, x_star):
    """Map F(x) = A (x - x*) as an (h, w, rows-of-A) image, exact under bilinear."""
    ys, xs = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    dx = xs - x_star[0]
    dy = ys - x_star[1]
    channels = [a[i, 0] * dx + a[i, 1] * dy for i in range(a.shape[0])]
    return np.stack(channels, axis=2)


class TestPixelGN:
    def test_linear_field_one_step_exact(self):
        # F(x) = A(x - x*), f_t = 0: one GN step lands on x* (linear field,
        # so interpolation is exact).
        a = np.array([[1.3, 0.2], [-0.4, 0.9], [0.1, 0.5]])
        x_star = np.array([9.25, 7.5])
        fmap = linear_field(16, 16, a, x_star)
        grad = map_gradient(fmap).data
        start = np.array([[7.0, 6.0]])
        mu, _ = pixel_gauss_newton(fmap, grad, start, np.zeros((1, 3)), eps=1e-12)
        np.testing.assert_allclose(mu.data[0], x_star, atol=1e-6)
        # The stencil derivative of a linear field is A, so H = A^T A + eps I.
        _, hess = pixel_gauss_newton(fmap, grad, start, np.zeros((1, 3)), eps=1e-3)
        np.testing.assert_allclose(hess.data[0], a.T @ a + 1e-3 * np.eye(2), atol=1e-12)

    def test_zero_residual_zero_step(self):
        rng = np.random.default_rng(3)
        fmap = rng.standard_normal((12, 12, 2))
        x_s = np.array([[5.25, 6.75]])
        f_t = interp(fmap, x_s)
        grad = map_gradient(fmap).data
        mu, hess = pixel_gauss_newton(fmap, grad, x_s, f_t, eps=1e-3)
        np.testing.assert_allclose(mu.data, x_s, atol=1e-12)
        np.testing.assert_array_equal(hess.data[0], hess.data[0].T)
        final, settled = track_pixels(fmap, x_s, f_t, eps=1e-3)
        np.testing.assert_allclose(final, x_s, atol=1e-12)
        assert settled.all()

    def test_rank_one_moves_along_gradient_only(self):
        # Single-direction gradient: the step has no perpendicular part.
        ys, xs = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        fmap = (0.8 * xs)[:, :, None]
        grad = map_gradient(fmap).data
        start = np.array([[8.0, 8.0]])
        f_t = np.array([[0.8 * 5.0]])
        mu, _ = pixel_gauss_newton(fmap, grad, start, f_t, eps=1e-9)
        assert abs(mu.data[0, 1] - 8.0) < 1e-9
        assert mu.data[0, 0] < 8.0
        final, settled = track_pixels(fmap, start, f_t, eps=1e-9)
        assert settled[0] and abs(final[0, 1] - 8.0) < 1e-9
        np.testing.assert_allclose(final[0, 0], 5.0, atol=1e-6)

    def test_stencil_out_of_bounds_is_failure(self):
        fmap = np.zeros((8, 8, 1))
        start = np.array([[0.5, 4.0]])
        final, settled = track_pixels(fmap, start, np.zeros((1, 1)), eps=1e-3)
        assert not settled[0]
        np.testing.assert_array_equal(final, start)

    def test_track_pixels_converges_on_linear_field(self):
        a = np.eye(2) * 0.9
        x_star = np.array([8.0, 9.0])
        fmap = linear_field(20, 20, a, x_star)
        starts = x_star + np.array([[3.0, -2.0], [-3.5, 1.0], [0.5, 3.5]])
        final, ok = track_pixels(fmap, starts, np.zeros((3, 2)), eps=1e-9)
        assert ok.all()
        np.testing.assert_allclose(final, np.tile(x_star, (3, 1)), atol=1e-3)


def four_tap_gradient(fmap, coords):
    """The central difference of four bilinear samples at x +- 1 px, (N, D, 2)."""
    zeros = np.zeros((len(coords), fmap.shape[2]))

    def sample(at):
        return fancy_index_bilinear(fmap, at, zeros)[0]

    ex = np.array([1.0, 0.0])
    ey = np.array([0.0, 1.0])
    jx = (sample(coords + ex) - sample(coords - ex)) * 0.5
    jy = (sample(coords + ey) - sample(coords - ey)) * 0.5
    return np.stack([jx, jy], axis=-1)


def gn_derivative(fmap, coords):
    """The derivative (N, D, 2) that ``pixel_gauss_newton`` reads at ``coords`` of ``fmap``.

    Taped when ``fmap`` is; it is the operand of the one ``transpose_last2``.
    """
    read = []
    transpose = T.transpose_last2

    def recording(jac):
        read.append(jac)
        return transpose(jac)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "transpose_last2", recording)
        pixel_gauss_newton(fmap, map_gradient(fmap), coords, np.zeros((len(coords), fmap.shape[2])), eps=1e-3)
    assert len(read) == 1
    return read[0]


class TestMapGradient:
    """The derivative ``pixel_gauss_newton`` samples from the map, against the four-tap stencil."""

    @staticmethod
    def map_and_coords(channels):
        rng = np.random.default_rng(5)
        height, width = 20, 27
        fmap = rng.standard_normal((height, width, channels))
        coords = np.stack(
            [
                rng.uniform(STENCIL_MARGIN, width - 1 - STENCIL_MARGIN, 200),
                rng.uniform(STENCIL_MARGIN, height - 1 - STENCIL_MARGIN, 200),
            ],
            axis=1,
        )
        lo, hi_x, hi_y = STENCIL_MARGIN, width - 1 - STENCIL_MARGIN, height - 1 - STENCIL_MARGIN
        edges = np.array([[lo, lo], [hi_x, hi_y], [lo, hi_y], [hi_x, lo], [lo, 7.5], [12.25, hi_y]])
        return fmap, np.concatenate([edges, coords, np.array([[3.0, 4.0], [10.0, 11.0]])])

    @pytest.mark.parametrize("channels", [1, 8])
    def test_matches_four_tap_stencil(self, channels):
        # Sampling is linear in the map, so the sampled grid differences
        # equal the differenced samples up to rounding.
        fmap, coords = self.map_and_coords(channels)
        expected = four_tap_gradient(fmap, coords)
        got = gn_derivative(fmap, coords).data
        assert got.shape == (len(coords), channels, 2)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("channels", [1, 8])
    def test_untaped_equals_taped_bitwise(self, channels):
        fmap, coords = self.map_and_coords(channels)
        tape = T.Tape()
        taped = gn_derivative(tape.leaf(fmap), coords)
        untaped = gn_derivative(fmap, coords)
        assert taped.tape is tape and untaped.tape is None
        assert np.array_equal(untaped.data, taped.data)

    def test_tap_outside_map_raises(self):
        fmap = np.zeros((10, 12, 2))
        for coords in (
            np.array([[STENCIL_MARGIN - 0.5, 5.0]]),
            np.array([[5.0, 10 - STENCIL_MARGIN]]),
            np.array([[12 - STENCIL_MARGIN, 5.0]]),
            np.array([[5.0, 0.5]]),
        ):
            for feature_map in (fmap, T.Tape().leaf(fmap)):
                with pytest.raises(ValueError, match="stencil outside the map"):
                    pixel_gauss_newton(feature_map, map_gradient(feature_map), coords, np.zeros((1, 2)), eps=1e-3)

    def test_mask_and_raise_agree_at_bounds_and_nan(self):
        fmap = np.zeros((10, 12, 2))
        lo, hi_x, hi_y = STENCIL_MARGIN, 12 - 1 - STENCIL_MARGIN, 10 - 1 - STENCIL_MARGIN
        inside = [[lo, lo], [hi_x, hi_y], [lo, hi_y], [hi_x, lo]]
        outside = [
            [np.nextafter(lo, 0.0), 5.0],
            [5.0, np.nextafter(lo, 0.0)],
            [np.nextafter(hi_x, 12.0), 5.0],
            [5.0, np.nextafter(hi_y, 10.0)],
            [np.nan, 5.0],
            [5.0, np.nan],
        ]
        for point in inside:
            coords = np.array([point])
            assert stencil_valid(coords, fmap.shape).tolist() == [True]
            pixel_gauss_newton(fmap, map_gradient(fmap), coords, np.zeros((1, 2)), eps=1e-3)
        for point in outside:
            coords = np.array([point])
            assert stencil_valid(coords, fmap.shape).tolist() == [False]
            with pytest.raises(ValueError, match="stencil outside the map"):
                pixel_gauss_newton(fmap, map_gradient(fmap), coords, np.zeros((1, 2)), eps=1e-3)


def random_scene_points(rng, n=40):
    pixels = np.stack([rng.uniform(6, 57, n), rng.uniform(6, 57, n)], axis=1)
    inv_depths = rng.uniform(0.2, 0.4, n)
    return pixels, inv_depths


class TestPoseSystem:
    def setup_method(self):
        self.cfg = AlignmentConfig()
        self.rng = np.random.default_rng(4)

    def test_zero_residuals_zero_b(self):
        fmap = self.rng.standard_normal((64, 64, 3))
        pixels, inv_depths = random_scene_points(self.rng)
        system = build_pose_system(
            fmap, fmap, pixels, inv_depths, SE3Pose.identity(), INTR, self.cfg
        )
        np.testing.assert_allclose(system.b, 0.0, atol=1e-10)
        assert system.n_valid == len(pixels)

    def test_symmetry_exact(self):
        fref = self.rng.standard_normal((64, 64, 2))
        ftgt = self.rng.standard_normal((64, 64, 2))
        pixels, inv_depths = random_scene_points(self.rng)
        pose = se3_exp(self.rng.uniform(-0.02, 0.02, 6))
        system = build_pose_system(fref, ftgt, pixels, inv_depths, pose, INTR, self.cfg)
        assert np.array_equal(system.h, system.h.T)

    @pytest.mark.parametrize("use_gradient_weight", [False, True])
    def test_recombination_identity(self, use_gradient_weight):
        # Direct 6x6 assembly equals per-pixel 2x2 systems mapped through
        # the projection Jacobian, for matching weights.
        cfg = AlignmentConfig(use_gradient_weight=use_gradient_weight)
        for trial in range(20):
            fref = self.rng.standard_normal((64, 64, 3))
            ftgt = self.rng.standard_normal((64, 64, 3))
            pixels, inv_depths = random_scene_points(self.rng)
            pose = se3_exp(self.rng.uniform(-0.03, 0.03, 6))
            direct = build_pose_system(fref, ftgt, pixels, inv_depths, pose, INTR, cfg)
            recomb = build_pose_system(
                fref, ftgt, pixels, inv_depths, pose, INTR, cfg, recombined=True
            )
            scale_h = max(np.abs(direct.h).max(), 1e-12)
            scale_b = max(np.abs(direct.b).max(), 1e-12)
            assert np.abs(direct.h - recomb.h).max() / scale_h < 1e-10
            assert np.abs(direct.b - recomb.b).max() / scale_b < 1e-10

    def test_single_point_single_channel_rank_bound(self):
        fref = self.rng.standard_normal((64, 64, 1))
        ftgt = self.rng.standard_normal((64, 64, 1))
        pixels = np.array([[30.0, 28.0]])
        inv_depths = np.array([0.25])
        cfg = AlignmentConfig(min_valid_points=1)
        system = build_pose_system(
            fref, ftgt, pixels, inv_depths, SE3Pose.identity(), INTR, cfg
        )
        eigenvalues = np.sort(np.abs(np.linalg.eigvalsh(system.h)))
        assert np.all(eigenvalues[:4] < 1e-12 * max(eigenvalues[-1], 1.0))

    def test_too_few_points_flagged(self):
        fmap = self.rng.standard_normal((64, 64, 1))
        system = build_pose_system(
            fmap, fmap, np.array([[30.0, 30.0]]), np.array([0.25]),
            SE3Pose.identity(), INTR, self.cfg,
        )
        assert not np.isfinite(system.cost)


def make_two_view(seed=11, baseline=0.06, fine=False):
    if fine:
        scene_cfg = SceneConfig(
            n_frames=1, width=96, height=96, fx=67.5, fy=67.5, cx=47.5, cy=47.5,
            texture_base_freq=0.3,
        )
    else:
        scene_cfg = SceneConfig(n_frames=1)
    scene = generate_scene(seed, scene_cfg)
    pose_ref = scene.trajectory[0]
    rel = se3_exp(np.array([baseline, -baseline / 2, 0.02, 0.004, -0.003, 0.002]))
    pose_tgt = pose_ref.compose(rel.inverse())
    img_ref, depth_ref = scene.render(pose_ref)
    img_tgt, _ = scene.render(pose_tgt)
    return img_ref, depth_ref, img_tgt, rel, scene


def loop_keyframe_points(image, depth, k, spacing=4, margin=3):
    """The per-pixel selection loop: strongest first, one pixel per cell."""
    img = image[:, :, 0] if image.ndim == 3 else image
    height, width = img.shape
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, 1:-1] = (img[:, 2:] - img[:, :-2]) * 0.5
    gy[1:-1, :] = (img[2:, :] - img[:-2, :]) * 0.5
    mag = np.hypot(gx, gy)
    mag[:margin, :] = -1.0
    mag[-margin:, :] = -1.0
    mag[:, :margin] = -1.0
    mag[:, -margin:] = -1.0
    order = np.argsort(mag, axis=None)[::-1]
    occupied = np.zeros((height // spacing + 1, width // spacing + 1), dtype=bool)
    pixels = []
    for flat in order:
        y, x = divmod(int(flat), width)
        if len(pixels) >= k or mag[y, x] <= 0:
            break
        cy, cx = y // spacing, x // spacing
        if occupied[cy, cx]:
            continue
        occupied[cy, cx] = True
        pixels.append((float(x), float(y)))
    pts = np.array(pixels) if pixels else np.empty((0, 2))
    inv_depths = 1.0 / depth[pts[:, 1].astype(int), pts[:, 0].astype(int)] if len(pts) else np.empty(0)
    return pts, inv_depths


class TestSelectKeyframePoints:
    @pytest.mark.parametrize("k", [-1, 0, 1, 7])
    def test_selects_k_points_and_none_below_one(self, k):
        img_ref, depth_ref, _, _, _ = make_two_view()
        pixels, inv_depths = select_keyframe_points(img_ref, depth_ref, k=k)
        assert pixels.shape == (max(k, 0), 2)
        assert inv_depths.shape == (max(k, 0),)

    @pytest.mark.parametrize("k", [-3, 0, 1, 7, 64, 255, 400])
    def test_equals_selection_loop(self, k):
        img_ref, depth_ref, _, _, _ = make_two_view()
        # Quantized intensities tie many gradient magnitudes, and a flat
        # band gives zero magnitudes the selection must skip.
        quantized = np.round(img_ref * 8.0) / 8.0
        quantized[20:30] = 0.5
        for image in (img_ref, quantized):
            pixels, inv_depths = select_keyframe_points(image, depth_ref, k=k)
            want_pixels, want_inv = loop_keyframe_points(image, depth_ref, k)
            assert pixels.dtype == want_pixels.dtype and inv_depths.dtype == want_inv.dtype
            assert np.array_equal(pixels, want_pixels)
            assert np.array_equal(inv_depths, want_inv)


class TestNetworkExtractor:
    def test_looks_up_extract_pyramid_at_call_time(self, monkeypatch):
        # Per-layer tracing wraps the module attribute after extractors exist.
        calls = []

        def fake(weights, image):
            calls.append((weights, image))
            return ["pyramid"]

        extractor = network_extractor("weights")
        monkeypatch.setattr(network, "extract_pyramid", fake)
        image = np.zeros((16, 16, 1))
        assert extractor(image) == ["pyramid"]
        assert len(calls) == 1
        assert calls[0][0] == "weights" and calls[0][1] is image


class TestAlignPose:
    def test_fixed_point_at_ground_truth(self):
        img_ref, depth_ref, img_tgt, rel, scene = make_two_view()
        pyr_ref = intensity_pyramid(img_ref, 3)
        pyr_tgt = intensity_pyramid(img_tgt, 3)
        pixels, inv_depths = select_keyframe_points(img_ref, depth_ref, k=256, spacing=4)
        cfg = method_config("intensity")
        # Feature maps rendered at the exact pose are not bit-identical to
        # warped maps, so use the self-tracking fixed point: target = ref.
        result = align_pose(
            pyr_ref, pyr_ref, pixels, inv_depths, SE3Pose.identity(), scene.intrinsics, cfg
        )
        assert result.converged
        np.testing.assert_allclose(result.pose.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(result.pose.translation, 0.0, atol=1e-9)

    @pytest.mark.parametrize("seed", [11, 13, 14])
    def test_small_baseline_two_view_recovery(self, seed):
        # Tolerance frozen from a scripted reference sweep over 20 seeds
        # (median 4.4e-4 scene units on this configuration).
        img_ref, depth_ref, img_tgt, rel, scene = make_two_view(seed=seed, fine=True)
        pyr_ref = intensity_pyramid(img_ref, 3)
        pyr_tgt = intensity_pyramid(img_tgt, 3)
        pixels, inv_depths = select_keyframe_points(img_ref, depth_ref, k=512, spacing=3)
        cfg = method_config("intensity")
        result = align_pose(
            pyr_ref, pyr_tgt, pixels, inv_depths, SE3Pose.identity(), scene.intrinsics, cfg
        )
        assert result.converged
        assert np.linalg.norm(result.pose.translation - rel.translation) < 1e-3

    def test_determinism_bit_identical(self):
        img_ref, depth_ref, img_tgt, rel, scene = make_two_view(seed=12)
        pyr_ref = intensity_pyramid(img_ref, 3)
        pyr_tgt = intensity_pyramid(img_tgt, 3)
        pixels, inv_depths = select_keyframe_points(img_ref, depth_ref, k=256, spacing=4)
        cfg = method_config("intensity")
        r1 = align_pose(pyr_ref, pyr_tgt, pixels, inv_depths, SE3Pose.identity(), scene.intrinsics, cfg)
        r2 = align_pose(pyr_ref, pyr_tgt, pixels, inv_depths, SE3Pose.identity(), scene.intrinsics, cfg)
        assert r1.pose.rotation.tobytes() == r2.pose.rotation.tobytes()
        assert r1.pose.translation.tobytes() == r2.pose.translation.tobytes()
        assert r1.iterations == r2.iterations
        assert r1.final_residual == r2.final_residual

    def test_each_damped_system_solved_once(self, monkeypatch):
        # A rejected step leaves the current system as it was; its probe
        # step is reused, and only the escalated damping is solved anew.
        img_ref, depth_ref, img_tgt, rel, scene = make_two_view(seed=12)
        pyr_ref = intensity_pyramid(img_ref, 3)
        pyr_tgt = intensity_pyramid(0.6 * img_tgt + 0.2, 3)
        pixels, inv_depths = select_keyframe_points(img_ref, depth_ref, k=256, spacing=4)
        solved = []
        solve = np.linalg.solve

        def recording_solve(h, b):
            solved.append((h.tobytes(), b.tobytes()))
            return solve(h, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        result = align_pose(
            pyr_ref, pyr_tgt, pixels, inv_depths, SE3Pose.identity(), scene.intrinsics,
            method_config("intensity"),
        )
        systems = {b for _, b in solved}
        assert result.iterations > len(systems), "no step was rejected"
        assert len(set(solved)) == len(solved)

    def test_monotone_accepted_cost(self):
        # With the Levenberg fallback, accepted iterations never increase
        # the weighted residual: final cost <= initial cost.
        img_ref, depth_ref, img_tgt, rel, scene = make_two_view(seed=13)
        pyr_ref = intensity_pyramid(img_ref, 3)
        pyr_tgt = intensity_pyramid(img_tgt, 3)
        pixels, inv_depths = select_keyframe_points(img_ref, depth_ref, k=256, spacing=4)
        cfg = method_config("intensity")
        from featalign.alignment import build_pose_system as bps

        start_cost = bps(
            pyr_ref[0], pyr_tgt[0], pixels, inv_depths, SE3Pose.identity(),
            scene.intrinsics, cfg,
        ).cost
        result = align_pose(
            pyr_ref, pyr_tgt, pixels, inv_depths, SE3Pose.identity(), scene.intrinsics, cfg
        )
        assert result.final_residual <= start_cost


def loop_pose_system(feat_tgt, grad_tgt, pixels, f_ref, inv_depths, pose, intr, config):
    """A full pose system at one pose: (H, b, valid, point costs, cost, inliers)."""
    projected, p_cam, valid = project_points(
        intr.back_project(pixels, inv_depths), pose, intr,
        border=config.border_margin,
    )
    point_cost = np.zeros(pixels.shape[0])
    if valid.sum() < config.min_valid_points:
        return np.zeros((6, 6)), np.zeros(6), valid, point_cost, np.inf, 0
    idx = np.nonzero(valid)[0]
    coords = projected[idx]
    r = interp(feat_tgt, coords) - f_ref[idx]
    jac_map = interp(grad_tgt, coords).reshape(len(idx), r.shape[1], 2)
    jac_pose = projection_jacobian(p_cam[idx], intr)
    norms = np.linalg.norm(r, axis=1)
    grad_w = (
        gradient_weight(jac_map, config.gradient_weight_const)
        if config.use_gradient_weight
        else np.ones(len(idx))
    )
    weights = huber_weight(norms, config.huber_delta) * grad_w
    jac = (jac_map @ jac_pose).reshape(-1, 6)
    weighted = jac * np.repeat(weights, r.shape[1])[:, None]
    h = weighted.T @ jac
    b = -(weighted.T @ r.ravel())
    point_cost[idx] = grad_w * huber_cost(norms, config.huber_delta)
    inliers = int(np.sum(norms <= config.huber_delta))
    return 0.5 * (h + h.T), b, valid, point_cost, float(np.mean(point_cost[idx])), inliers


def loop_align_pose(pyr_ref, pyr_tgt, pixels, inv_depths, init_pose, intrinsics, config):
    """The solver loop that builds a full system at every trial pose.

    Returns (TrackResult, levels started, steps accepted, steps rejected).
    """
    pose = init_pose
    total_iterations = started = accepted = rejected = 0
    converged = False
    last = None

    def damped_step(system, lam):
        h, b = system[0], system[1]
        try:
            return np.linalg.solve(h + lam * np.diag(np.diag(h)) + lam * 1e-12 * np.eye(6), b)
        except np.linalg.LinAlgError:
            return None

    for level in config.levels:
        level_pixels = pixels * (1.0 / (2.0**level))
        intr = intrinsics.scaled(level)
        f_ref = interp(pyr_ref[level], level_pixels)
        grad_tgt = map_gradient(pyr_tgt[level]).data
        args = (pyr_tgt[level], grad_tgt, level_pixels, f_ref, inv_depths)
        damping = config.eps_pose
        current = loop_pose_system(*args, pose, intr, config)
        converged = False
        if not np.isfinite(current[4]):
            continue
        started += 1
        last = current
        for _ in range(config.max_iterations):
            total_iterations += 1
            probe = damped_step(current, config.eps_pose)
            if probe is not None and np.linalg.norm(probe) < config.step_norm_tol:
                converged = True
                break
            delta = probe if damping == config.eps_pose else damped_step(current, damping)
            if delta is None:
                damping *= 10.0
                if damping > config.max_damping:
                    break
                continue
            candidate_pose = se3_exp(delta).compose(pose)
            candidate = loop_pose_system(*args, candidate_pose, intr, config)
            common = current[2] & candidate[2]
            if (
                np.isfinite(candidate[4])
                and candidate[2].sum() >= config.min_valid_points
                and common.sum() >= config.min_valid_points
                and candidate[3][common].mean() < current[3][common].mean()
            ):
                pose, current, last = candidate_pose, candidate, candidate
                damping = max(damping * 0.5, config.eps_pose)
                accepted += 1
            else:
                rejected += 1
                damping *= 10.0
                if damping > config.max_damping:
                    break
    if last is None:
        return alignment.TrackResult(init_pose, False, total_iterations, np.inf, 0.0), 0, 0, 0
    result = alignment.TrackResult(
        pose, converged, total_iterations, last[4], float(last[5] / max(1, pixels.shape[0]))
    )
    return result, started, accepted, rejected


def pool2(m):
    """2x2 averaging of an (H, W, C) map, the expression intensity_pyramid pools with."""
    h, w, c = m.shape
    return m.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))


def random_feature_problem(seed):
    """D = 8 random smooth pyramids, a target perturbed from the reference."""
    rng = np.random.default_rng(seed)
    ref0 = pool2(rng.standard_normal((128, 128, 8)))
    tgt0 = ref0 + 0.2 * rng.standard_normal(ref0.shape)
    pyr_ref, pyr_tgt = [ref0], [tgt0]
    for _ in range(2):
        pyr_ref.append(pool2(pyr_ref[-1]))
        pyr_tgt.append(pool2(pyr_tgt[-1]))
    pixels, inv_depths = random_scene_points(rng, n=120)
    init = se3_exp(rng.uniform(-0.02, 0.02, 6))
    return pyr_ref, pyr_tgt, pixels, inv_depths, init, INTR


def rendered_problem(seed):
    img_ref, depth_ref, img_tgt, _, scene = make_two_view(seed=seed)
    pixels, inv_depths = select_keyframe_points(img_ref, depth_ref, k=256, spacing=4)
    pyr_ref = intensity_pyramid(img_ref, 3)
    pyr_tgt = intensity_pyramid(0.6 * img_tgt + 0.2, 3)
    return pyr_ref, pyr_tgt, pixels, inv_depths, SE3Pose.identity(), scene.intrinsics


def assert_same_track(got, want):
    assert got.pose.rotation.tobytes() == want.pose.rotation.tobytes()
    assert got.pose.translation.tobytes() == want.pose.translation.tobytes()
    assert got.converged == want.converged
    assert got.iterations == want.iterations
    assert got.final_residual == want.final_residual
    assert got.inlier_fraction == want.inlier_fraction


class TestCostOnlyTrials:
    """A trial pose evaluates the cost only; accepted poses are linearized."""

    @pytest.mark.parametrize(
        "problem, method",
        [
            (lambda: random_feature_problem(1), "features"),
            (lambda: random_feature_problem(2), "features"),
            (lambda: random_feature_problem(3), "features"),
            (lambda: rendered_problem(12), "intensity"),
            (lambda: rendered_problem(13), "intensity"),
            (lambda: rendered_problem(15), "intensity"),
        ],
        ids=["features-1", "features-2", "features-3", "intensity-12", "intensity-13", "intensity-15"],
    )
    def test_bit_identical_to_full_system_per_trial(self, problem, method):
        args = problem() + (method_config(method),)
        want, _, accepted, rejected = loop_align_pose(*args)
        assert accepted > 0 and rejected > 0
        assert_same_track(align_pose(*args), want)

    @pytest.mark.parametrize("method", ["features", "intensity"])
    def test_linearized_once_per_level_start_and_accepted_step(self, monkeypatch, method):
        problem = random_feature_problem(1) if method == "features" else rendered_problem(12)
        args = problem + (method_config(method),)
        _, started, accepted, rejected = loop_align_pose(*args)
        counts = {"projection_jacobian": 0, "project_points": 0}

        def counting(name):
            inner = getattr(alignment, name)

            def wrapper(*a, **kw):
                counts[name] += 1
                return inner(*a, **kw)

            return wrapper

        for name in counts:
            monkeypatch.setattr(alignment, name, counting(name))
        sampled = []
        bilinear_sample = T.bilinear_sample

        def recording_sample(m, coords):
            sampled.append(m.data)
            return bilinear_sample(m, coords)

        monkeypatch.setattr(T, "bilinear_sample", recording_sample)
        align_pose(*args)
        assert counts["projection_jacobian"] == started + accepted
        assert counts["project_points"] == started + accepted + rejected
        # Every cost evaluation reads residual and derivative from the
        # stacked map untaped; the sampler runs only for the reference
        # descriptors, once per level.
        pyr_ref, config = args[0], args[-1]
        assert [id(m) for m in sampled] == [id(pyr_ref[level]) for level in config.levels]

    @pytest.mark.parametrize("method", ["features", "intensity"])
    def test_singular_solve_is_a_rejected_step(self, monkeypatch, method):
        # An escalated-damping system whose step was accepted fails to
        # solve instead; the solver raises the damping and goes on, as the
        # full-system loop does, and the track changes.
        problem = random_feature_problem(2) if method == "features" else rendered_problem(12)
        args = problem + (method_config(method),)
        solve = np.linalg.solve
        solved = []

        def recording_solve(h, b):
            solved.append((h.tobytes(), b.tobytes()))
            return solve(h, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        free, *_ = loop_align_pose(*args)
        # A right-hand side seen before is a rejected step's escalated
        # damping; a new one right after it means that step was accepted.
        seen = set()
        for (h, b), (_, b_next) in zip(solved, solved[1:]):
            if b in seen and b_next not in seen:
                singular = h
                break
            seen.add(b)
        failed = []

        def failing_solve(h, b):
            if h.tobytes() == singular:
                failed.append(h)
                raise np.linalg.LinAlgError("singular matrix")
            return solve(h, b)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        want, *_ = loop_align_pose(*args)
        assert failed and want.final_residual != free.final_residual
        failed.clear()
        got = align_pose(*args)
        assert failed
        assert_same_track(got, want)

    def test_stencil_outside_map_raises(self, monkeypatch):
        # Projection keeps valid points inside the stencil margin; the cost
        # evaluation still checks before it reads the stacked derivative.
        pyr_ref, pyr_tgt, pixels, inv_depths, init, intr = rendered_problem(12)
        points = intr.back_project(pixels, inv_depths)
        projected, p_cam, valid = project_points(points, init, intr, border=2.0)
        projected[0] = [0.5, 10.0]
        valid[0] = True
        monkeypatch.setattr(alignment, "project_points", lambda *a, **kw: (projected, p_cam, valid))
        with pytest.raises(ValueError, match="stencil outside the map"):
            build_pose_system(
                pyr_ref[0], pyr_tgt[0], pixels, inv_depths, init, intr, method_config("intensity")
            )


def relocalize(img_ref, depth_ref, img_tgt, intrinsics, k):
    """Tracks one candidate image against a keyframe with intensity pyramids."""
    frames = {
        0: Frame(0, img_ref, depth_ref, SE3Pose.identity(), 0, 0, 0),
        1: Frame(1, img_tgt, depth_ref, SE3Pose.identity(), 0, 0, 1),
    }
    split = DatasetSplit(intrinsics, frames, [RelocCandidate(1, 0, SE3Pose.identity())], [])
    [(_, result)] = run_relocalization(
        split, intensity_extractor(3), method_config("intensity"), point_count=k
    )
    return result


class TestTrackCandidate:
    def test_self_tracking_identity(self):
        img_ref, depth_ref, _, _, scene = make_two_view(seed=14)
        result = relocalize(img_ref, depth_ref, img_ref, scene.intrinsics, k=256)
        assert result.converged
        assert np.linalg.norm(result.pose.translation) < 1e-6
        assert np.abs(result.pose.rotation - np.eye(3)).max() < 1e-6

    def test_out_of_overlap_fails(self):
        img_ref, depth_ref, _, _, scene = make_two_view(seed=15)
        # A candidate from a completely different surface region.
        far_pose = scene.trajectory[0].compose(
            se3_exp(np.array([8.0, 8.0, 0.0, 0.0, 0.0, 0.0]))
        )
        far_img, _ = scene.render(far_pose)
        result = relocalize(img_ref, depth_ref, far_img, scene.intrinsics, k=128)
        assert not result.converged

"""Benchmark tests: scene generation, correspondences, evaluation curves."""

import weakref

import numpy as np
import pytest

import featalign.alignment as alignment_mod
import featalign.bench.evaluate as evaluate_mod
from featalign.alignment import (
    align_pose,
    intensity_pyramid,
    map_gradient,
    method_config,
    select_keyframe_points,
    track_pixels,
)
from featalign.bench.dataset_io import read_split
from featalign.bench.evaluate import (
    EvalCurve,
    basin_trials,
    curve_from_errors,
    evaluate_relocalization,
    run_relocalization,
    threshold_grid,
)
import featalign.bench.scene as scene_mod
from featalign.bench.scene import (
    ConditionTransform,
    SceneConfig,
    generate_scene,
    make_correspondences,
    sample_negatives,
    octave_noise,
)
from featalign.cli import main as cli_main
from featalign.errors import DataFault
from featalign.geometry import project_points
from featalign.alignment import TrackResult
from featalign.bench.scene import RelocCandidate
from featalign.geometry import SE3Pose, se3_exp


def forward_backward_error(scene, frame_a, frame_b, pos_a, pos_b):
    """Oracle: exact re-solved depth in b, projected back into a."""
    fa = next(f for f in scene.frames if f.frame_id == frame_a)
    fb = next(f for f in scene.frames if f.frame_id == frame_b)
    rel = fb.pose.inverse().compose(fa.pose)
    tb = scene.ray_depth(fb.pose, pos_b)
    back, _, valid = project_points(
        scene.intrinsics.back_project(pos_b, 1.0 / tb), rel.inverse(), scene.intrinsics, border=-1e9
    )
    assert valid.all()
    return np.linalg.norm(back - pos_a, axis=1)


class TestGenerateScene:
    def test_same_seed_bit_identical(self):
        cfg = SceneConfig(n_frames=3, n_candidates=2)
        s1 = generate_scene(7, cfg)
        s2 = generate_scene(7, cfg)
        assert len(s1.frames) == len(s2.frames)
        for f1, f2 in zip(s1.frames, s2.frames):
            assert f1.image.tobytes() == f2.image.tobytes()
            assert f1.depth.tobytes() == f2.depth.tobytes()
            assert f1.pose.matrix().tobytes() == f2.pose.matrix().tobytes()
        for c1, c2 in zip(s1.candidates, s2.candidates):
            assert c1.relative_pose.matrix().tobytes() == c2.relative_pose.matrix().tobytes()

    def test_zero_motion_trajectory_identical_frames(self):
        cfg = SceneConfig(n_frames=4, step_translation=0.0, step_rotation_deg=0.0)
        scene = generate_scene(8, cfg)
        first = scene.frames[0]
        for frame in scene.frames[1:4]:
            assert frame.image.tobytes() == first.image.tobytes()
            assert frame.depth.tobytes() == first.depth.tobytes()

    def test_rendered_depth_consistency_oracle(self):
        # Project frame-i pixels through GT depth and poses into frame j;
        # the ground-truth reverse projection must return within 1e-6 px.
        scene = generate_scene(9, SceneConfig(n_frames=4))
        fa, fb = scene.frames[0], scene.frames[3]
        rng = np.random.default_rng(1)
        pix = np.stack([rng.uniform(4, 59, 500), rng.uniform(4, 59, 500)], axis=1)
        depth_a = scene.ray_depth(fa.pose, pix)
        rel = fb.pose.inverse().compose(fa.pose)
        proj, _, valid = project_points(
            scene.intrinsics.back_project(pix, 1.0 / depth_a), rel, scene.intrinsics, border=2.0
        )
        assert valid.sum() > 100
        err = forward_backward_error(scene, fa.frame_id, fb.frame_id, pix[valid], proj[valid])
        assert err.max() < 1e-6

    def test_stored_depth_matches_exact_ray_depth(self):
        scene = generate_scene(10, SceneConfig(n_frames=2))
        frame = scene.frames[1]
        ys, xs = np.meshgrid(np.arange(0, 64, 7), np.arange(0, 64, 7), indexing="ij")
        pix = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
        exact = scene.ray_depth(frame.pose, pix)
        stored = frame.depth[pix[:, 1].astype(int), pix[:, 0].astype(int)]
        np.testing.assert_allclose(stored, exact, rtol=1e-12)

    def test_ray_depth_equals_fixed_count_march(self):
        # Rays that stop early, at a fixed point or in a last-bit two-cycle,
        # must end where every ray marched the full 36 iterations would.
        scene = generate_scene(7, SceneConfig(n_frames=4, n_candidates=2))
        us, vs = np.meshgrid(np.arange(64.0), np.arange(64.0))
        pix = np.stack([us.ravel(), vs.ravel()], axis=1)
        rng = np.random.default_rng(3)
        pix = np.concatenate([pix, rng.uniform(0, 63, (500, 2))])
        intr = scene.intrinsics
        poses = [f.pose for f in scene.frames] + [
            f.pose.compose(se3_exp(rng.uniform(-0.05, 0.05, 6))) for f in scene.frames
        ]
        for pose in poses:
            d_cam = np.stack(
                [(pix[:, 0] - intr.cx) / intr.fx, (pix[:, 1] - intr.cy) / intr.fy, np.ones(len(pix))],
                axis=1,
            )
            d_world = d_cam @ pose.rotation.T
            origin = pose.translation
            t = np.full(len(pix), scene.config.depth_base - origin[2])
            for _ in range(36):
                x = origin[0] + t * d_world[:, 0]
                y = origin[1] + t * d_world[:, 1]
                t = (scene.surface_height(x, y) - origin[2]) / d_world[:, 2]
            assert np.array_equal(scene.ray_depth(pose, pix), t)

    def test_sequences_share_depth_per_trajectory_index(self):
        cfg = SceneConfig(n_frames=3, conditions=scene_mod.default_train_conditions())
        scene = generate_scene(12, cfg)
        by_index = {}
        for frame in scene.frames:
            by_index.setdefault(frame.index, []).append(frame)
        assert sorted(by_index) == [0, 1, 2]
        for frames in by_index.values():
            assert len(frames) == 4
            for frame in frames[1:]:
                assert frame.depth.tobytes() == frames[0].depth.tobytes()
                assert frame.image.tobytes() != frames[0].image.tobytes()

    def test_candidates_have_overlap_and_condition(self):
        cfg = SceneConfig(
            n_frames=3,
            n_candidates=6,
            conditions=(ConditionTransform(gamma=1.5, brightness=0.12),),
        )
        scene = generate_scene(11, cfg)
        assert len(scene.candidates) == 6
        by_id = {f.frame_id: f for f in scene.frames}
        for cand in scene.candidates:
            assert by_id[cand.candidate_frame].condition_id == 1
            ref = by_id[cand.reference_frame]
            assert ref.sequence == 0 and ref.index == cand.reference_frame

    def test_candidates_render_under_the_last_condition(self):
        last = ConditionTransform(gamma=0.7, contrast=1.2, noise_sigma=0.01)
        cfg = SceneConfig(n_frames=2, n_candidates=3, conditions=(ConditionTransform(gamma=1.5), last))
        scene = generate_scene(13, cfg)
        by_id = {f.frame_id: f for f in scene.frames}
        for k, cand in enumerate(scene.candidates):
            frame = by_id[cand.candidate_frame]
            assert frame.condition_id == 2
            clean, _ = scene.render(frame.pose)
            expected = last.apply(clean, np.random.default_rng([13, 0xCA2D, k]))
            assert frame.image.tobytes() == expected.tobytes()

    def test_degenerate_config_fault(self):
        with pytest.raises(ValueError):
            SceneConfig(n_frames=0)


def reference_value_noise(x, y, seed):
    """Value noise hashing the four lattice corners of every point."""
    x0, y0 = np.floor(x), np.floor(y)
    tx, ty = scene_mod._fade(x - x0), scene_mod._fade(y - y0)
    v00 = scene_mod._hash01(x0, y0, seed)
    v01 = scene_mod._hash01(x0 + 1, y0, seed)
    v10 = scene_mod._hash01(x0, y0 + 1, seed)
    v11 = scene_mod._hash01(x0 + 1, y0 + 1, seed)
    top = v00 + tx * (v01 - v00)
    bot = v10 + tx * (v11 - v10)
    return top + ty * (bot - top)


def reference_octave_noise(x, y, seed, octaves, base_freq, persistence):
    """Octave value noise, one octave at a time, each point hashing its own corners."""
    total, amp, norm = 0.0, 1.0, 0.0
    for o in range(octaves):
        f = base_freq * 2.0**o
        total = total + amp * reference_value_noise(x * f, y * f, seed * 1031 + o)
        norm += amp
        amp *= persistence
    return total / norm


# (octaves, base frequency, persistence) of a default scene's height and texture noise.
HEIGHT_NOISE = (SceneConfig.height_octaves, SceneConfig.height_base_freq, SceneConfig.height_persistence)
TEXTURE_NOISE = (SceneConfig.texture_octaves, SceneConfig().texture_base_freq, SceneConfig.texture_persistence)


def reference_surface_height(scene, x, y):
    cfg = scene.config
    noise = reference_octave_noise(x, y, scene.seed * 7 + 1, *HEIGHT_NOISE)
    return cfg.depth_base + cfg.height_amplitude * (2.0 * noise - 1.0)


def reference_ray_depth(scene, pose, pixels):
    """The fixed-count march: every ray runs all _RAY_ITERATIONS steps."""
    intr = scene.intrinsics
    d_cam = np.stack(
        [(pixels[:, 0] - intr.cx) / intr.fx, (pixels[:, 1] - intr.cy) / intr.fy,
         np.ones(pixels.shape[0])],
        axis=1,
    )
    d_world = d_cam @ pose.rotation.T
    origin = pose.translation
    t = np.full(pixels.shape[0], scene.config.depth_base - origin[2])
    for _ in range(scene_mod._RAY_ITERATIONS):
        x = origin[0] + t * d_world[:, 0]
        y = origin[1] + t * d_world[:, 1]
        t = (reference_surface_height(scene, x, y) - origin[2]) / d_world[:, 2]
    return t


class TestRayDepth:
    @pytest.mark.parametrize("seed", [0, 7, 12])
    def test_matches_fixed_count_march(self, seed):
        cfg = SceneConfig(n_frames=3, n_candidates=2)
        scene = generate_scene(seed, cfg)
        us, vs = np.meshgrid(np.arange(cfg.width), np.arange(cfg.height))
        full_grid = np.stack([us.ravel(), vs.ravel()], axis=1).astype(np.float64)
        uu, vv = np.meshgrid(np.arange(4, cfg.width - 4, 4.0), np.arange(4, cfg.height - 4, 4.0))
        overlap_grid = np.stack([uu.ravel(), vv.ravel()], axis=1)
        rng = np.random.default_rng(seed)
        subpixel = rng.uniform(0.0, cfg.width - 1.0, (300, 2))
        poses = scene.trajectory + [f.pose for f in scene.frames if f.sequence == -1]
        for pose in poses:
            for pixels in (full_grid, overlap_grid, subpixel):
                expected = reference_ray_depth(scene, pose, pixels)
                assert np.array_equal(scene.ray_depth(pose, pixels), expected)


class TestRenderIdentities:
    """The identities the renderer's shortcuts rest on."""

    @pytest.mark.parametrize("seed", [0, 7, 19, 33])
    def test_overlap_grid_read_from_render_equals_grid_march(self, seed):
        # generate_scene reads the candidate-overlap grid's depth from the
        # reference render instead of marching the grid's rays again.
        cfg = SceneConfig(n_frames=12)
        scene = generate_scene(seed, cfg)
        uu, vv = np.meshgrid(np.arange(4, cfg.width - 4, 4.0), np.arange(4, cfg.height - 4, 4.0))
        grid = np.stack([uu.ravel(), vv.ravel()], axis=1)
        for frame in scene.frames:
            read = frame.depth[4 : cfg.height - 4 : 4, 4 : cfg.width - 4 : 4].ravel()
            assert read.tobytes() == scene.ray_depth(frame.pose, grid).tobytes()

    def test_noise_field_point_outside_box_matches_reference(self, monkeypatch):
        # A call inside the box reads the table; one point outside hashes the whole batch.
        rng = np.random.default_rng(2)
        inside = rng.uniform(-1.0, 2.0, (2, 500)) + np.array([[0.0], [1.5]])
        outside = inside.copy()
        outside[0, 17] = 40.0
        expected = [reference_octave_noise(*points, 36, *HEIGHT_NOISE) for points in (inside, outside)]
        noise = scene_mod._noise_field(36, *HEIGHT_NOISE, (-1.0, 2.0, 0.5, 3.5), 1000)
        hashed = count_hashes(monkeypatch)
        assert np.array_equal(noise(*inside), expected[0])
        assert hashed == []
        assert np.array_equal(noise(*outside), expected[1])
        assert hashed == [500] * 4 * HEIGHT_NOISE[0]

    @pytest.mark.parametrize(
        "box", [(-1e6, 1e6, 0.0, 1.0), (np.nan, 1.0, 0.0, 1.0)], ids=["too_large", "non_finite"]
    )
    def test_noise_field_without_table_matches_reference(self, box, monkeypatch):
        points = np.random.default_rng(4).uniform(0.0, 1.0, (2, 500))
        expected = reference_octave_noise(*points, 36, *HEIGHT_NOISE)
        hashed = count_hashes(monkeypatch)
        noise = scene_mod._noise_field(36, *HEIGHT_NOISE, box, 1000)
        assert hashed == []
        assert np.array_equal(noise(*points), expected)
        assert hashed == [500] * 4 * HEIGHT_NOISE[0]


def count_hashes(monkeypatch) -> list:
    """Records the size of every later ``_hash01`` call in the scene module."""
    hashed = []
    hash01 = scene_mod._hash01
    monkeypatch.setattr(
        scene_mod, "_hash01", lambda ix, iy, seed: hashed.append(ix.size) or hash01(ix, iy, seed)
    )
    return hashed


class TestValueNoise:
    """``octave_noise`` at the height and texture noise parameters, against the per-point reference."""

    @pytest.mark.parametrize(
        "low, high",
        [(-3.0, 9.0), (1e3, 1.02e3), (-1e6, 1e6)],
        ids=["footprint", "offset_footprint", "scattered"],
    )
    def test_matches_per_point_corners(self, low, high):
        rng = np.random.default_rng(3)
        x = rng.uniform(low, high, (40, 50))
        y = rng.uniform(low, high, (40, 50))
        for params in (HEIGHT_NOISE, TEXTURE_NOISE):
            for seed in (0, 5, 7 * 7 + 1):
                out = octave_noise(x, y, seed, *params)
                assert out.shape == x.shape
                assert np.array_equal(out, reference_octave_noise(x, y, seed, *params))

    def test_far_apart_pair(self):
        x = np.array([-5e8, 5e8])
        y = np.array([3.25, -7e8])
        for params in (HEIGHT_NOISE, TEXTURE_NOISE):
            assert np.array_equal(octave_noise(x, y, 1, *params), reference_octave_noise(x, y, 1, *params))

    def test_empty_input(self):
        for shape in ((0,), (0, 3)):
            out = octave_noise(np.empty(shape), np.empty(shape), 3, *TEXTURE_NOISE)
            assert out.shape == shape and out.dtype == np.float64


class TestConditions:
    def test_intensity_changed_geometry_unchanged(self):
        cond = ConditionTransform(gamma=1.4, brightness=0.1, contrast=0.9, noise_sigma=0.01)
        cfg_plain = SceneConfig(n_frames=3)
        cfg_cond = SceneConfig(n_frames=3, conditions=(cond,))
        plain = generate_scene(12, cfg_plain)
        conditioned = generate_scene(12, cfg_cond)
        # Same trajectory: canonical frames identical, conditioned frames
        # share depth/pose but differ in intensities.
        for i in range(3):
            ref = conditioned.frames[i]
            alt = conditioned.frames[3 + i]
            assert ref.depth.tobytes() == alt.depth.tobytes()
            assert ref.pose.matrix().tobytes() == alt.pose.matrix().tobytes()
            assert ref.image.tobytes() != alt.image.tobytes()
        # Correspondences depend only on geometry: identical across the
        # condition change (same frame indices within each scene).
        batch_plain = make_correspondences(plain, 0, 2, 32, 8, seed=5)
        batch_cond = make_correspondences(conditioned, 0, 2, 32, 8, seed=5)
        assert batch_plain.pos_a.tobytes() == batch_cond.pos_a.tobytes()
        assert batch_plain.pos_b.tobytes() == batch_cond.pos_b.tobytes()

    def test_clamped_range(self):
        cond = ConditionTransform(gamma=0.5, brightness=0.5, contrast=2.0, noise_sigma=0.2)
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(16, 16))
        out = cond.apply(img, rng)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestMakeCorrespondences:
    def test_frame_against_itself(self):
        scene = generate_scene(13, SceneConfig(n_frames=2))
        batch = make_correspondences(scene, 0, 0, 24, 0, seed=3)
        np.testing.assert_allclose(batch.pos_a, batch.pos_b, atol=1e-9)

    def test_flat_plane_pure_x_translation_constant_disparity(self):
        # Fronto-parallel plane at constant depth: disparity fx * tx / z for
        # every positive.
        cfg = SceneConfig(n_frames=1, height_amplitude=0.0)
        scene = generate_scene(14, cfg)
        from featalign.bench.scene import Frame

        base = scene.frames[0]
        tx = 0.3
        shifted_pose = base.pose.compose(
            SE3Pose(np.eye(3), np.array([-tx, 0.0, 0.0]))
        )
        image, depth = scene.render(shifted_pose)
        scene.frames.append(Frame(99, image, depth, shifted_pose, 0, 0, 1))
        batch = make_correspondences(scene, base.frame_id, 99, 40, 0, seed=4)
        disparity = batch.pos_b - batch.pos_a
        expected = scene.intrinsics.fx * tx / cfg.depth_base
        np.testing.assert_allclose(disparity[:, 0], expected, atol=1e-9)
        np.testing.assert_allclose(disparity[:, 1], 0.0, atol=1e-9)

    def test_positives_verified_by_projection_oracle(self):
        scene = generate_scene(15, SceneConfig(n_frames=5))
        batch = make_correspondences(scene, 1, 4, 64, 64, seed=5)
        err = forward_backward_error(scene, 1, 4, batch.pos_a, batch.pos_b)
        assert err.max() < 0.1

    def test_occlusion_filter_soundness_property(self):
        # Criterion-7 suite: 10k emitted positives all satisfy the
        # forward-backward check at 0.1 px.
        total = 0
        worst = 0.0
        seed = 0
        while total < 10_000:
            seed += 1
            scene = generate_scene(100 + seed, SceneConfig(n_frames=4))
            ids = [f.frame_id for f in scene.frames[:4]]
            a, b = ids[seed % 3], ids[3]
            batch = make_correspondences(scene, a, b, 400, 0, seed=seed)
            err = forward_backward_error(scene, a, b, batch.pos_a, batch.pos_b)
            worst = max(worst, float(err.max()))
            total += batch.n_pos
        assert worst < 0.1, f"worst forward-backward error {worst:.2e} px over {total} samples"

    def test_insufficient_matches_fault(self):
        scene = generate_scene(16, SceneConfig(n_frames=1))
        from featalign.bench.scene import Frame

        far_pose = scene.trajectory[0].compose(SE3Pose(np.eye(3), np.array([30.0, 0.0, 0.0])))
        image, depth = scene.render(far_pose)
        scene.frames.append(Frame(50, image, depth, far_pose, 0, 0, 1))
        with pytest.raises(DataFault):
            make_correspondences(scene, 0, 50, 32, 0, seed=6)

    def test_negatives_respect_exclusion(self):
        scene = generate_scene(17, SceneConfig(n_frames=2))
        batch = make_correspondences(scene, 0, 1, 32, 64, seed=7)
        assert batch.n_neg == 64
        anchors = np.tile(batch.pos_b, (2, 1))[:64]
        assert np.all(np.linalg.norm(batch.neg_b - anchors, axis=1) > 8.0)


def track_with_translation(t, converged=True):
    pose = SE3Pose(np.eye(3), np.asarray(t, dtype=float))
    return TrackResult(pose, converged, 1, 0.0, 1.0)


def candidate_with_translation(t):
    return RelocCandidate(0, 0, SE3Pose(np.eye(3), np.asarray(t, dtype=float)))


class TestSampleNegatives:
    def test_distance_and_bounds(self):
        rng = np.random.default_rng(18)
        pos_b = rng.uniform(10, 50, (40, 2))
        neg = sample_negatives(rng, pos_b, width=64, height=64)
        assert np.all(neg[:, 0] >= 6.0) and np.all(neg[:, 0] <= 57.0)
        assert np.all(neg[:, 1] >= 6.0) and np.all(neg[:, 1] <= 57.0)
        assert np.all(np.linalg.norm(neg - pos_b, axis=1) > 8.0)


class TestEvalCurve:
    def test_all_zero_errors_curve_is_one(self):
        results = [
            (candidate_with_translation([0, 0, 0]), track_with_translation([0, 0, 0]))
            for _ in range(5)
        ]
        curve, summary = evaluate_relocalization(results)
        np.testing.assert_array_equal(curve.fraction, 1.0)
        assert summary["auc"] == pytest.approx(1.0)

    def test_counting_example(self):
        errors = [0.05, 0.5, 2.0]
        results = [
            (candidate_with_translation([e, 0, 0]), track_with_translation([0, 0, 0]))
            for e in errors
        ]
        curve, _ = evaluate_relocalization(results)
        assert curve.value_at(0.1) == pytest.approx(1 / 3)
        assert curve.value_at(0.6) == pytest.approx(2 / 3)
        assert curve.value_at(1.0) == pytest.approx(2 / 3)

    def test_failures_are_infinite_error(self):
        results = [
            (candidate_with_translation([0, 0, 0]), track_with_translation([0, 0, 0])),
            (candidate_with_translation([0, 0, 0]), track_with_translation([0, 0, 0], converged=False)),
        ]
        curve, summary = evaluate_relocalization(results)
        assert curve.value_at(1.0) == pytest.approx(0.5)
        # Unbounded medians serialize as null rather than JSON-invalid inf.
        assert summary["median_error"] is None

    def test_matches_sort_and_scan_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            errors = rng.uniform(0, 1.5, size=rng.integers(1, 40))
            errors[rng.uniform(size=errors.shape) < 0.2] = np.inf
            curve = curve_from_errors(errors)
            # Brute-force counting oracle.
            sorted_err = np.sort(errors)
            for t, f in zip(curve.thresholds, curve.fraction):
                count = int(np.searchsorted(sorted_err, t, side="right"))
                assert f == count / len(errors)

    def test_monotone_property(self):
        # Criterion-7 suite: monotone nondecreasing for any input multiset.
        rng = np.random.default_rng(19)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            errors = rng.choice(
                [0.0, 0.005, 0.05, 0.5, 0.995, 1.0, 1.5, np.inf], size=n
            ) * rng.uniform(0.5, 1.5, size=n)
            curve = curve_from_errors(errors)
            assert np.all(np.diff(curve.fraction) >= 0)
            assert curve.fraction.min() >= 0 and curve.fraction.max() <= 1

    def test_rejects_nonmonotone(self):
        grid = threshold_grid()
        bad = np.linspace(1, 0, grid.size)
        with pytest.raises(ValueError):
            EvalCurve(grid, bad)


class TestRunRelocalization:
    def test_pyramid_dropped_after_its_last_candidate(self, tmp_path, monkeypatch):
        # 4 frames and 8 candidates: each reference frame is read by two
        # candidates, each candidate frame by one.
        assert cli_main(["generate", "--out", str(tmp_path), "--seed", "4", "--frames", "4",
                         "--candidates", "8", "--val-candidates", "0", "--pairs", "1",
                         "--n-pos", "8", "--n-neg", "8"]) == 0
        split = read_split(tmp_path / "test")
        frame_of_image = {id(frame.image): frame_id for frame_id, frame in split.frames.items()}
        products = {}

        def extractor(image):
            pyramid = intensity_pyramid(image, 3)
            products.setdefault(frame_of_image[id(image)], []).append(weakref.ref(pyramid[0]))
            return pyramid

        selected = []

        def observed_select_keyframe_points(image, *args, **kwargs):
            points = select_keyframe_points(image, *args, **kwargs)
            selected.append(frame_of_image[id(image)])
            products.setdefault(selected[-1], []).extend(weakref.ref(array) for array in points)
            return points

        last_reader = {}
        for index, candidate in enumerate(split.candidates):
            last_reader[candidate.reference_frame] = index
            last_reader[candidate.candidate_frame] = index
        calls = []
        checked = set()

        def observed_align_pose(*args, **kwargs):
            index = len(calls)
            for frame_id, refs in products.items():
                if last_reader[frame_id] < index:
                    assert all(ref() is None for ref in refs), f"frame {frame_id} outlived its last candidate"
                    checked.add(frame_id)
            calls.append(index)
            return align_pose(*args, **kwargs)

        monkeypatch.setattr(evaluate_mod, "align_pose", observed_align_pose)
        monkeypatch.setattr(evaluate_mod, "select_keyframe_points", observed_select_keyframe_points)
        results = run_relocalization(split, extractor, method_config("intensity", 3), point_count=64)
        assert len(results) == len(calls) == 8
        assert len(checked) >= 8
        # Keyframe points are selected once per reference frame, and for no other frame.
        assert sorted(selected) == sorted({c.reference_frame for c in split.candidates})
        assert checked >= set(selected) - {split.candidates[-1].reference_frame}
        assert all(ref() is None for refs in products.values() for ref in refs)


class TestBasinTrials:
    def test_level0_maps_dropped_after_their_last_batch(self, tmp_path, monkeypatch):
        assert cli_main(["generate", "--out", str(tmp_path), "--seed", "4", "--frames", "4",
                         "--candidates", "0", "--val-candidates", "0", "--pairs", "8",
                         "--n-pos", "8", "--n-neg", "8"]) == 0
        split = read_split(tmp_path / "train")
        batches = split.correspondences
        frame_of_image = {id(frame.image): frame_id for frame_id, frame in split.frames.items()}
        frame_of_map = {}
        maps = {}

        def extractor(image):
            pyramid = intensity_pyramid(image, 3)
            frame_id = frame_of_image[id(image)]
            frame_of_map[id(pyramid[0])] = frame_id
            maps[frame_id] = [weakref.ref(pyramid[0])]
            return pyramid

        derived = []
        derivatives = []

        def observed_map_gradient(feat):
            derivative = map_gradient(feat)
            derived.append(frame_of_map[id(feat)])
            derivatives.append(weakref.ref(derivative.data))
            return derivative

        last_reader = {}
        for index, batch in enumerate(batches):
            last_reader[batch.frame_a] = index
            last_reader[batch.frame_b] = index
        calls = []
        checked = set()

        def observed_track_pixels(*args, **kwargs):
            index = len(calls)
            for frame_id, refs in maps.items():
                if last_reader[frame_id] < index:
                    assert all(ref() is None for ref in refs), f"frame {frame_id} outlived its last batch"
                    checked.add(frame_id)
            calls.append(index)
            result = track_pixels(*args, **kwargs)
            assert all(ref() is None for ref in derivatives), f"batch {index}'s derivative map outlived it"
            return result

        monkeypatch.setattr(alignment_mod, "map_gradient", observed_map_gradient)
        monkeypatch.setattr(evaluate_mod, "track_pixels", observed_track_pixels)
        outcomes = basin_trials(split, extractor, batches, radius=4.0, eps=1e-3, seed=909)
        assert len(calls) == len(batches) == 8
        assert outcomes.shape == (sum(len(batch.pos_a) for batch in batches),)
        assert len(checked) >= 4
        # One derivative map per batch, of the frame it tracks on.
        assert derived == [batch.frame_b for batch in batches]

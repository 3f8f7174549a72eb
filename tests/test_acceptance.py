"""Acceptance gate: the eight contractual criteria, one test each.

Each test prints a single PASS line with its measured numbers; tolerances
are frozen here and never tuned at runtime. The statistical criteria (5, 6)
share the session-scoped trained-model benchmark from conftest.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.stats import multivariate_normal

from featalign import tensor as T
from featalign.alignment import (
    AlignmentConfig,
    align_pose,
    build_pose_system,
    intensity_extractor,
    intensity_pyramid,
    method_config,
    network_extractor,
    select_keyframe_points,
)
from featalign.bench.dataset_io import read_split, write_depth, read_depth, write_pgm, read_pgm
from featalign.bench.evaluate import (
    basin_trials,
    curve_from_errors,
    evaluate_relocalization,
    run_relocalization,
)
from featalign.bench.scene import SceneConfig, generate_scene, make_correspondences
from featalign.geometry import SE3Pose, se3_exp, se3_log
from featalign.losses import (
    LossConfig,
    contrastive_loss,
    gauss_newton_loss,
    gaussian_nll_terms,
)
from featalign.network import NetworkConfig, build_network, forward_pyramid, load_network

from helpers import max_relative_error
from reference_alignment import ScalarCamera, scalar_align, scalar_assemble, scalar_pyramid


def announce(number: int, message: str) -> None:
    import conftest

    line = f"ACCEPTANCE {number}: PASS - {message}"
    conftest.ACCEPTANCE_LINES.append(line)
    print("\n" + line)


# ---------------------------------------------------------------------------
# 1. gradient integrity


class TestCriterion1GradientIntegrity:
    def test_all_losses_match_finite_differences(self):
        start = time.monotonic()
        net_cfg = NetworkConfig(
            descriptor_dim=4, pyramid_levels=2, base_width=6, seed=20
        )
        weights = build_network(net_cfg)
        scene = generate_scene(31, SceneConfig(width=32, height=32, cx=15.5, cy=15.5,
                                               fx=22.5, fy=22.5, n_frames=2))
        batch = make_correspondences(scene, 0, 1, n_pos=20, n_neg=20, seed=3)
        img_a = scene.frames[0].image[:, :, None]
        img_b = scene.frames[1].image[:, :, None]
        loss_cfg = LossConfig(gn_weight=0.1, vicinity_radius=2.0, epsilon=1e-3)
        rng_seed = 424242

        def three_losses(params):
            pyr_a = forward_pyramid(params, img_a, net_cfg)
            pyr_b = forward_pyramid(params, img_b, net_cfg)
            rng = np.random.default_rng(rng_seed)
            contrastive = None
            gauss = None
            for level in (1, 0):
                scaled = batch.scaled(1.0 / 2.0**level)
                c = contrastive_loss(pyr_a[level], pyr_b[level], scaled, loss_cfg.margin)
                g = gauss_newton_loss(
                    pyr_a[level], pyr_b[level], scaled, loss_cfg, rng,
                    vicinity=loss_cfg.vicinity_at(level),
                )
                contrastive = c if contrastive is None else T.add(contrastive, c)
                gauss = g if gauss is None else T.add(gauss, g)
            total = T.add(contrastive, T.mul(gauss, loss_cfg.gn_weight))
            return contrastive, gauss, total

        # Analytic gradients: one tape per loss kind.
        analytic = {}
        for kind in range(3):
            tape = T.Tape()
            taped = {n: tape.leaf(p) for n, p in weights.params.items()}
            tape.backward(three_losses(taped)[kind])
            analytic[kind] = {n: tape.grad(t) for n, t in taped.items()}

        # Numeric gradients: one perturbation sweep serves all three losses.
        names = list(weights.params)
        numeric = {kind: {n: np.zeros_like(weights.params[n]) for n in names} for kind in range(3)}
        h = 1e-5
        for name in names:
            arr = weights.params[name]
            flat = arr.reshape(-1)
            grads = [numeric[kind][name].reshape(-1) for kind in range(3)]
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + h
                plus = [float(t.data) for t in three_losses(weights.params)]
                flat[i] = saved - h
                minus = [float(t.data) for t in three_losses(weights.params)]
                flat[i] = saved
                for kind in range(3):
                    grads[kind][i] = (plus[kind] - minus[kind]) / (2 * h)

        worst = {0: 0.0, 1: 0.0, 2: 0.0}
        for kind in range(3):
            for name in names:
                worst[kind] = max(
                    worst[kind], max_relative_error(analytic[kind][name], numeric[kind][name])
                )
        elapsed = time.monotonic() - start
        labels = {0: "contrastive", 1: "gauss-newton", 2: "total"}
        for kind in range(3):
            assert worst[kind] < 1e-4, f"{labels[kind]} max rel err {worst[kind]:.3e}"
        assert elapsed < 300.0, f"gradient integrity took {elapsed:.0f}s (budget 300s)"
        announce(
            1,
            f"gradient integrity: rel err contrastive {worst[0]:.2e}, "
            f"gauss-newton {worst[1]:.2e}, total {worst[2]:.2e} "
            f"({weights.parameter_count()} weights, {elapsed:.0f}s)",
        )


# ---------------------------------------------------------------------------
# 2. Gaussian negative-log-likelihood oracle


class TestCriterion2GaussianNLL:
    def test_algorithm_arithmetic_matches_generic_density(self):
        rng = np.random.default_rng(77)
        n = 1000
        roots = rng.standard_normal((n, 2, 2))
        hessians = roots @ np.swapaxes(roots, 1, 2) + 0.15 * np.eye(2)
        means = rng.uniform(-4, 4, (n, 2))
        xs = rng.uniform(-4, 4, (n, 2))
        e1, e2 = gaussian_nll_terms(T.Tensor(means), T.Tensor(hessians), xs)
        ours = e1.data + e2.data
        worst = 0.0
        for i in range(n):
            ref = -multivariate_normal(mean=means[i], cov=np.linalg.inv(hessians[i])).logpdf(xs[i])
            worst = max(worst, abs(float(ours[i]) - float(ref)))
        assert worst < 1e-10, f"max |nll - oracle| = {worst:.3e}"
        announce(2, f"Gaussian-NLL oracle over {n} triples: max abs dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. recombination identity


class TestCriterion3Recombination:
    def test_direct_assembly_equals_per_pixel_route(self):
        rng = np.random.default_rng(55)
        worst_h = worst_b = 0.0
        for trial in range(100):
            scene = generate_scene(500 + trial, SceneConfig(n_frames=1))
            pose_ref = scene.trajectory[0]
            rel = se3_exp(
                np.concatenate([rng.uniform(-0.08, 0.08, 3), rng.uniform(-0.02, 0.02, 3)])
            )
            img_ref, depth_ref = scene.render(pose_ref)
            img_tgt, _ = scene.render(pose_ref.compose(rel.inverse()))
            pixels, inv_depths = select_keyframe_points(img_ref, depth_ref, k=160, spacing=4)
            config = AlignmentConfig(
                huber_delta=float(rng.uniform(0.02, 5.0)),
                use_gradient_weight=bool(trial % 2),
                gradient_weight_const=float(rng.uniform(0.02, 0.3)),
            )
            perturbed = se3_exp(rng.uniform(-0.01, 0.01, 6)).compose(rel)
            args = (
                img_ref[:, :, None], img_tgt[:, :, None], pixels, inv_depths,
                perturbed, scene.intrinsics, config,
            )
            direct = build_pose_system(*args)
            recombined = build_pose_system(*args, recombined=True)
            assert direct.n_valid >= 6
            scale_h = np.abs(direct.h).max()
            scale_b = max(np.abs(direct.b).max(), 1e-30)
            worst_h = max(worst_h, np.abs(direct.h - recombined.h).max() / scale_h)
            worst_b = max(worst_b, np.abs(direct.b - recombined.b).max() / scale_b)
        assert worst_h < 1e-10, f"H relative deviation {worst_h:.3e}"
        assert worst_b < 1e-10, f"b relative deviation {worst_b:.3e}"
        announce(
            3,
            f"recombination identity over 100 scenes: max rel dev H {worst_h:.2e}, b {worst_b:.2e}",
        )


# ---------------------------------------------------------------------------
# 4. classic-alignment equivalence


class TestCriterion4ClassicEquivalence:
    def test_vectorized_path_matches_scalar_reference(self):
        config = AlignmentConfig(
            levels=(2, 1, 0),
            step_norm_tol=3e-5,
            huber_delta=0.07,
            use_gradient_weight=True,
            gradient_weight_const=0.05,
        )
        cfg_dict = {
            "levels": config.levels,
            "step_norm_tol": config.step_norm_tol,
            "huber_delta": config.huber_delta,
            "use_gradient_weight": config.use_gradient_weight,
            "gradient_weight_const": config.gradient_weight_const,
            "eps_pose": config.eps_pose,
            "border_margin": config.border_margin,
            "min_valid_points": config.min_valid_points,
            "max_damping": config.max_damping,
            "max_iterations": config.max_iterations,
        }
        rng = np.random.default_rng(66)
        worst_h = worst_b = worst_pose = 0.0
        for trial in range(20):
            scene = generate_scene(800 + trial, SceneConfig(n_frames=1))
            pose_ref = scene.trajectory[0]
            rel = se3_exp(
                np.concatenate([rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.01, 0.01, 3)])
            )
            img_ref, depth_ref = scene.render(pose_ref)
            img_tgt, _ = scene.render(pose_ref.compose(rel.inverse()))
            pixels, inv_depths = select_keyframe_points(img_ref, depth_ref, k=128, spacing=4)
            pyr = intensity_pyramid(img_ref, 3)
            pyr_t = intensity_pyramid(img_tgt, 3)
            cam = ScalarCamera(
                scene.intrinsics.fx, scene.intrinsics.fy, scene.intrinsics.cx,
                scene.intrinsics.cy, scene.intrinsics.width, scene.intrinsics.height,
            )
            spyr = scalar_pyramid(img_ref, 3)
            spyr_t = scalar_pyramid(img_tgt, 3)
            # (a) one-shot system at a perturbed pose
            probe_pose = se3_exp(rng.uniform(-0.02, 0.02, 6)).compose(rel)
            system = build_pose_system(
                pyr[0], pyr_t[0], pixels, inv_depths, probe_pose, scene.intrinsics, config
            )
            from reference_alignment import scalar_interp

            f_ref = [scalar_interp(spyr[0], u, v) for u, v in pixels]
            h_ref, b_ref, _, _, _, _ = scalar_assemble(
                spyr[0], spyr_t[0], [(u, v) for u, v in pixels], f_ref, inv_depths,
                probe_pose.rotation, probe_pose.translation, cam, cfg_dict,
            )
            scale_h = max(np.abs(h_ref).max(), 1.0)
            scale_b = max(np.abs(b_ref).max(), 1e-12)
            worst_h = max(worst_h, np.abs(system.h - h_ref).max() / scale_h)
            worst_b = max(worst_b, np.abs(system.b - b_ref).max() / scale_b)
            # (b) full alignment from identity
            result = align_pose(
                pyr, pyr_t, pixels, inv_depths, SE3Pose.identity(), scene.intrinsics, config
            )
            rot_ref, trans_ref, conv_ref = scalar_align(
                spyr, spyr_t, [(u, v) for u, v in pixels], inv_depths,
                np.eye(3), np.zeros(3), cam, cfg_dict,
            )
            assert result.converged == conv_ref
            worst_pose = max(
                worst_pose,
                np.abs(result.pose.rotation - rot_ref).max(),
                np.abs(result.pose.translation - trans_ref).max(),
            )
        assert worst_h < 1e-9, f"H deviation {worst_h:.3e}"
        assert worst_b < 1e-9, f"b deviation {worst_b:.3e}"
        assert worst_pose < 1e-9, f"pose deviation {worst_pose:.3e}"
        announce(
            4,
            f"classic-alignment equivalence over 20 scenes: dev H {worst_h:.2e}, "
            f"b {worst_b:.2e}, pose {worst_pose:.2e}",
        )


# ---------------------------------------------------------------------------
# 5. convergence-basin enlargement (statistical)


class TestCriterion5BasinEnlargement:
    def test_trained_features_enlarge_convergence_basin(self, benchmark_models):
        start = time.monotonic()
        split = read_split(benchmark_models.dataset / "test")
        # The split's frames and intrinsics, which are all make_correspondences reads of a scene.
        scene = SimpleNamespace(frames=list(split.frames.values()), intrinsics=split.intrinsics)
        batches = []
        for cand in split.candidates[:60]:
            batches.append(
                make_correspondences(
                    scene, cand.reference_frame, cand.candidate_frame, 90, 0, seed=cand.candidate_frame
                )
            )
        n_trials = sum(b.n_pos for b in batches)
        assert n_trials >= 5000
        extractors = {
            "intensity": (intensity_extractor(3), method_config("intensity").eps_pixel),
            "gauss-newton": (
                network_extractor(load_network(benchmark_models.gn_weights)),
                method_config("features").eps_pixel,
            ),
            "contrastive": (
                network_extractor(load_network(benchmark_models.contrastive_weights)),
                method_config("features").eps_pixel,
            ),
        }
        rates = {}
        for name, (extractor, eps) in extractors.items():
            outcomes = basin_trials(split, extractor, batches, radius=4.0, eps=eps, seed=909)
            rates[name] = float(outcomes.mean())
        elapsed = time.monotonic() - start + benchmark_models.build_seconds
        assert rates["gauss-newton"] >= rates["intensity"] + 0.05, rates
        assert rates["gauss-newton"] >= rates["contrastive"] + 0.05, rates
        assert elapsed < 1800.0, f"basin experiment took {elapsed:.0f}s including training"
        announce(
            5,
            f"basin enlargement over {n_trials} trials: gauss-newton {rates['gauss-newton']:.3f} "
            f"vs contrastive {rates['contrastive']:.3f} vs intensity {rates['intensity']:.3f} "
            f"({elapsed:.0f}s incl. training)",
        )


# ---------------------------------------------------------------------------
# 6. relocalization ordering (statistical)


class TestCriterion6RelocOrdering:
    def test_auc_ordering_with_margins(self, benchmark_models):
        split = read_split(benchmark_models.dataset / "test")
        assert len(split.candidates) >= 200
        aucs = {}
        for name, extractor, cfg in (
            ("intensity", intensity_extractor(3), method_config("intensity")),
            (
                "gauss-newton",
                network_extractor(load_network(benchmark_models.gn_weights)),
                method_config("features"),
            ),
            (
                "contrastive",
                network_extractor(load_network(benchmark_models.contrastive_weights)),
                method_config("features"),
            ),
        ):
            results = run_relocalization(split, extractor, cfg, point_count=384)
            curve, summary = evaluate_relocalization(results)
            aucs[name] = summary["auc"]
        assert aucs["gauss-newton"] >= aucs["contrastive"] + 0.03, aucs
        assert aucs["contrastive"] >= aucs["intensity"] + 0.03, aucs
        announce(
            6,
            f"relocalization ordering over {len(split.candidates)} candidates: "
            f"AUC gauss-newton {aucs['gauss-newton']:.3f} > contrastive "
            f"{aucs['contrastive']:.3f} > intensity {aucs['intensity']:.3f}",
        )


# ---------------------------------------------------------------------------
# 7. invariant suites


class TestCriterion7InvariantSuites:
    def test_eval_curve_monotone_1000(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            errors = rng.uniform(0, 2, size=int(rng.integers(1, 25)))
            errors[rng.uniform(size=errors.shape) < 0.25] = np.inf
            curve = curve_from_errors(errors)
            assert np.all(np.diff(curve.fraction) >= 0)
            assert 0 <= curve.fraction.min() and curve.fraction.max() <= 1

    def test_se3_roundtrip_1000(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            w = rng.uniform(-1, 1, 3)
            w = w / np.linalg.norm(w) * rng.uniform(1e-9, np.pi - 1e-3)
            twist = np.concatenate([rng.uniform(-3, 3, 3), w])
            assert np.abs(se3_log(se3_exp(twist)) - twist).max() < 1e-9

    def test_system_symmetry_1000(self):
        rng = np.random.default_rng(3)
        config = AlignmentConfig(min_valid_points=4)
        intr = generate_scene(1, SceneConfig(n_frames=1)).intrinsics
        for trial in range(1000):
            fref = rng.standard_normal((32, 32, 2))
            ftgt = rng.standard_normal((32, 32, 2))
            pixels = np.stack([rng.uniform(4, 27, 12), rng.uniform(4, 27, 12)], axis=1)
            inv_depths = rng.uniform(0.2, 0.5, 12)
            pose = se3_exp(rng.uniform(-0.02, 0.02, 6))
            intr_small = type(intr)(intr.fx / 2, intr.fy / 2, 15.5, 15.5, 32, 32)
            system = build_pose_system(
                fref, ftgt, pixels, inv_depths, pose, intr_small, config
            )
            assert np.array_equal(system.h, system.h.T)

    def test_occlusion_filter_soundness_10000(self):
        from featalign.geometry import project_points

        total = 0
        worst = 0.0
        seed = 0
        while total < 10_000:
            seed += 1
            scene = generate_scene(900 + seed, SceneConfig(n_frames=4))
            a, b = (seed % 3), 3
            batch = make_correspondences(scene, a, b, 400, 0, seed=seed)
            fa = scene.frames[a]
            fb = scene.frames[b]
            rel = fb.pose.inverse().compose(fa.pose)
            tb = scene.ray_depth(fb.pose, batch.pos_b)
            back, _, valid = project_points(
                scene.intrinsics.back_project(batch.pos_b, 1.0 / tb), rel.inverse(),
                scene.intrinsics, border=-1e9,
            )
            assert valid.all()
            worst = max(worst, float(np.linalg.norm(back - batch.pos_a, axis=1).max()))
            total += batch.n_pos
        assert worst < 0.1, f"worst forward-backward error {worst:.2e}px"

    def test_dataset_roundtrip_1000(self, tmp_path):
        rng = np.random.default_rng(4)
        for case in range(1000):
            if case % 2:
                depth = rng.uniform(0.01, 500.0, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
                path = tmp_path / "x.depth"
                write_depth(path, depth)
                assert read_depth(path).tobytes() == depth.tobytes()
            else:
                img = rng.uniform(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
                path = tmp_path / "x.pgm"
                write_pgm(path, img)
                first = path.read_bytes()
                write_pgm(path, read_pgm(path))
                assert path.read_bytes() == first

    def test_summary_line(self):
        announce(7, "invariant suites green (curve monotonicity, SE3 round-trip, "
                    "system symmetry, occlusion soundness, dataset round-trip; >=1000 cases each)")


# ---------------------------------------------------------------------------
# 8. end-to-end determinism


class TestCriterion8Determinism:
    def run_pipeline(self, root: Path) -> dict:
        env = dict(os.environ)
        env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def run(args):
            proc = subprocess.run(
                [sys.executable, "-m", "featalign", *args],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            return proc

        dataset = root / "dataset"
        run([
            "generate", "--out", str(dataset), "--seed", "11", "--frames", "4",
            "--candidates", "6", "--val-candidates", "2", "--pairs", "4",
            "--n-pos", "48", "--n-neg", "48", "--size", "32",
        ])
        run([
            "train", "--dataset", str(dataset), "--out", str(root / "w.gnnw"),
            "--epochs", "2", "--base-width", "6", "--descriptor-dim", "4",
            "--val-candidates", "0",
        ])
        run([
            "evaluate", "--dataset", str(dataset), "--out", str(root / "eval"),
            "--methods", "intensity,features", "--weights", str(root / "w.gnnw"),
            "--points", "128",
        ])
        artifacts = {}
        for rel in (
            "eval/curve_intensity.csv", "eval/curve_features.csv", "eval/summary.json",
            "w.log.csv", "w.gnnw", "dataset/train/correspondences.txt",
        ):
            artifacts[rel] = (root / rel).read_bytes()
        # Manifests echo the output path itself (which differs between the
        # two runs by design), so compare the raw frame payloads instead.
        for frame_file in sorted((root / "dataset" / "test" / "frames").iterdir()):
            artifacts[f"test_frames/{frame_file.name}"] = frame_file.read_bytes()
        return artifacts

    def test_pipeline_byte_identical(self, tmp_path):
        first = self.run_pipeline(tmp_path / "run1")
        second = self.run_pipeline(tmp_path / "run2")
        assert set(first) == set(second)
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between runs"
        announce(8, f"determinism: {len(first)} pipeline artifacts byte-identical across reruns")

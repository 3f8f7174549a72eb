"""Geometry tests: exp/log, projection, and the pose Jacobian vs oracles."""

import numpy as np
import pytest

from featalign.geometry import (
    SMALL_ANGLE,
    CameraIntrinsics,
    SE3Pose,
    project_points,
    projection_jacobian,
    se3_exp,
    se3_log,
)


def series_exp_oracle(twist, terms=20):
    """Truncated matrix-exponential series of the 4x4 twist matrix."""
    v, w = np.asarray(twist[:3]), np.asarray(twist[3:])
    a = np.zeros((4, 4))
    a[:3, :3] = np.array(
        [[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]], dtype=float
    )
    a[:3, 3] = v
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def homogeneous_projection_oracle(pixel, inv_depth, pose_matrix, ks, kd):
    """Explicit 4x4 homogeneous-coordinate projection chain."""
    ks_inv4 = np.eye(4)
    ks_inv4[:3, :3] = np.linalg.inv(ks)
    p_h = np.array([pixel[0], pixel[1], 1.0, inv_depth]) / inv_depth
    cam = ks_inv4 @ p_h
    dst = pose_matrix @ cam
    kd4 = np.eye(4)
    kd4[:3, :3] = kd
    img = kd4 @ dst
    return img[:2] / img[2], dst[2]


def k_matrix(intr):
    return np.array([[intr.fx, 0, intr.cx], [0, intr.fy, intr.cy], [0, 0, 1.0]])


def random_pose(rng, angle_scale=0.5, trans_scale=0.5):
    twist = np.concatenate(
        [rng.uniform(-trans_scale, trans_scale, 3), rng.uniform(-angle_scale, angle_scale, 3)]
    )
    return se3_exp(twist)


INTR = CameraIntrinsics(fx=60.0, fy=55.0, cx=31.5, cy=31.5, width=64, height=64)


def per_component_projection(points, pose, intr, border):
    """Camera-frame points projected into ``intr``, u and v as separate arrays.

    ``project_points`` must reproduce it bit for bit: (projected,
    destination camera-frame points, valid).
    """
    p_cam = pose.apply(points)
    z = p_cam[:, 2]
    safe_z = np.where(z > 0, z, 1.0)
    u = intr.fx * p_cam[:, 0] / safe_z + intr.cx
    v = intr.fy * p_cam[:, 1] / safe_z + intr.cy
    valid = (
        (z > 0)
        & (u >= border)
        & (u <= intr.width - 1 - border)
        & (v >= border)
        & (v <= intr.height - 1 - border)
    )
    return np.stack([u, v], axis=1), p_cam, valid


def two_camera_projection(pixels, inverse_depths, pose, intr_src, intr_dst, border):
    """Pixels with inverse depths in ``intr_src`` projected into ``intr_dst`` in one pass.

    The formula ``back_project`` plus ``project_points`` must reproduce bit
    for bit.
    """
    points = intr_src.rays(pixels) * (1.0 / inverse_depths)[:, None]
    return per_component_projection(points, pose, intr_dst, border)


def rodrigues_exp(twist):
    """exp of ``[v, w]`` with rotation and SO(3) left Jacobian built separately.

    Both have a series branch below ``SMALL_ANGLE``; ``se3_exp`` shares
    their terms and must give the same bits.
    """
    v, w = twist[:3], twist[3:]
    theta = float(np.linalg.norm(w))
    wx = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    if theta < SMALL_ANGLE:
        rotation = np.eye(3) + wx + 0.5 * (wx @ wx)
        left = np.eye(3) + 0.5 * wx + (wx @ wx) / 6.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta**2
        rotation = np.eye(3) + a * wx + b * (wx @ wx)
        c = (theta - np.sin(theta)) / theta**3
        left = np.eye(3) + b * wx + c * (wx @ wx)
    return rotation, left @ v


def project_one(pixel, inv_depth, pose, intr_dst=INTR, border=2.0):
    """One-row :func:`project_points` from INTR: the pixel, or None when invalid."""
    points = INTR.back_project(np.array([pixel], dtype=float), np.array([inv_depth]))
    projected, _, valid = project_points(points, pose, intr_dst, border)
    return projected[0] if valid[0] else None


def jacobian_one(pixel, inv_depth, pose, intr_dst=INTR):
    """2x6 projection Jacobian of one pixel from INTR, and its camera-frame point."""
    points = INTR.back_project(np.array([pixel], dtype=float), np.array([inv_depth]))
    _, p_cam, _ = project_points(points, pose, intr_dst)
    return projection_jacobian(p_cam, intr_dst)[0], p_cam[0]


class TestSE3Exp:
    def test_zero_twist_is_identity(self):
        pose = se3_exp(np.zeros(6))
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))

    def test_pure_translation(self):
        pose = se3_exp(np.array([0.7, 0, 0, 0, 0, 0]))
        np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(pose.translation, [0.7, 0, 0], atol=1e-15)

    def test_matches_series_oracle(self):
        twist = np.array([0.1, -0.2, 0.05, 0.3, 0.1, -0.2])
        expected = series_exp_oracle(twist)
        got = se3_exp(twist).matrix()
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_matches_series_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            twist = rng.uniform(-1.0, 1.0, 6)
            np.testing.assert_allclose(
                se3_exp(twist).matrix(), series_exp_oracle(twist, terms=25), atol=1e-12
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            se3_exp(np.array([np.nan, 0, 0, 0, 0, 0]))


class TestSE3Properties:
    def test_log_exp_roundtrip_property(self):
        # Criterion-7 suite: >= 1000 cases, rotation norm < pi.
        rng = np.random.default_rng(11)
        for _ in range(1200):
            w = rng.uniform(-1, 1, 3)
            w = w / np.linalg.norm(w) * rng.uniform(1e-10, np.pi - 1e-3)
            twist = np.concatenate([rng.uniform(-2, 2, 3), w])
            np.testing.assert_allclose(se3_log(se3_exp(twist)), twist, atol=1e-9)

    def test_rotation_orthonormal_and_det_one(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            pose = se3_exp(rng.uniform(-2, 2, 6))
            r = pose.rotation
            assert np.abs(r @ r.T - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_compose_inverse_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            pose = random_pose(rng, angle_scale=1.2, trans_scale=2.0)
            back = pose.compose(pose.inverse())
            assert np.abs(back.rotation - np.eye(3)).max() < 1e-9
            assert np.abs(back.translation).max() < 1e-9


class TestProject:
    def test_identity_pose_same_intrinsics(self):
        got = project_one([20.0, 30.0], 0.25, SE3Pose.identity())
        np.testing.assert_allclose(got, [20.0, 30.0], atol=1e-12)

    def test_halving_depth_doubles_offset(self):
        # Move the camera toward the surface so that depth halves: the
        # pixel offset from the principal point doubles (pinhole similarity).
        pose = SE3Pose(np.eye(3), np.array([0.0, 0.0, -1.0]))
        got = project_one([35.5, 27.5], 0.5, pose, border=0.0)
        offset0 = np.array([35.5 - INTR.cx, 27.5 - INTR.cy])
        np.testing.assert_allclose(got, [INTR.cx, INTR.cy] + 2 * offset0, atol=1e-10)

    def test_matches_homogeneous_oracle(self):
        rng = np.random.default_rng(21)
        intr_dst = CameraIntrinsics(52.0, 49.0, 30.0, 33.0, 64, 64)
        checked = 0
        while checked < 200:
            pixel = rng.uniform(5, 58, 2)
            inv_depth = rng.uniform(0.1, 2.0)
            pose = random_pose(rng, angle_scale=0.2, trans_scale=0.4)
            expected, z = homogeneous_projection_oracle(
                pixel, inv_depth, pose.matrix(), k_matrix(INTR), k_matrix(intr_dst)
            )
            got = project_one(pixel, inv_depth, pose, intr_dst, border=0.0)
            if got is None:
                assert z <= 0 or not (
                    0 <= expected[0] <= 63 and 0 <= expected[1] <= 63
                )
                continue
            np.testing.assert_allclose(got, expected, atol=1e-10)
            checked += 1

    def test_out_of_view_is_none(self):
        # Pushed far behind the camera plane after a big z move off-axis.
        got = project_one([2.0, 30.0], 2.0, SE3Pose(np.eye(3), np.array([0.0, 0.0, -0.6])))
        assert got is None or isinstance(got, np.ndarray)
        behind = project_one([2.0, 30.0], 1.0, SE3Pose(np.eye(3), np.array([0, 0, -2.0])))
        assert behind is None

    def test_equivariance_property(self):
        # project through T2 o T1 equals projecting through T1 (recovering
        # intermediate depth) then through T2, when intermediate depth > 0.
        rng = np.random.default_rng(31)
        done = 0
        while done < 1000:
            pixel = rng.uniform(8, 55, 2)
            inv_depth = rng.uniform(0.15, 1.5)
            t1 = random_pose(rng, 0.1, 0.2)
            t2 = random_pose(rng, 0.1, 0.2)
            p_cam1 = t1.apply(
                np.array(
                    [
                        (pixel[0] - INTR.cx) / INTR.fx / inv_depth,
                        (pixel[1] - INTR.cy) / INTR.fy / inv_depth,
                        1.0 / inv_depth,
                    ]
                )
            )
            if p_cam1[2] <= 0.05:
                continue
            mid = project_one(pixel, inv_depth, t1, border=-1e9)
            direct = project_one(pixel, inv_depth, t2.compose(t1), border=-1e9)
            stepped = project_one(mid, 1.0 / p_cam1[2], t2, border=-1e9)
            if direct is None or stepped is None:
                continue
            np.testing.assert_allclose(stepped, direct, atol=1e-9)
            done += 1


class TestSharedTermOracles:
    """Back-projection once and the shared exp-map terms keep every bit."""

    @pytest.mark.parametrize("border", [2.0, -1e9])
    def test_back_project_then_project_matches_two_camera_formula(self, border):
        rng = np.random.default_rng(51)
        intr_dst = CameraIntrinsics(52.0, 49.0, 30.0, 33.0, 48, 40)
        pixels = rng.uniform(0, 63, (400, 2))
        inverse_depths = rng.uniform(0.1, 2.0, 400)
        points = INTR.back_project(pixels, inverse_depths)
        assert np.array_equal(points, INTR.rays(pixels) * (1.0 / inverse_depths)[:, None])
        behind = 0
        for _ in range(20):
            pose = random_pose(rng, angle_scale=0.4, trans_scale=1.5)
            got = project_points(points, pose, intr_dst, border)
            want = two_camera_projection(pixels, inverse_depths, pose, INTR, intr_dst, border)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            behind += int(np.sum(want[1][:, 2] <= 0))
        assert behind > 0, "no point landed behind the camera"

    @pytest.mark.parametrize("border", [2.0, 0.5])
    def test_projection_at_zero_depth_and_on_each_border(self, border):
        # fx = 32, cx = 31.5, fy = 16 and cy = 23.5 put every border at a
        # dyadic x or y, and z = 1 under the identity pose divides exactly,
        # so these points land on the borders without rounding.
        intr = CameraIntrinsics(32.0, 16.0, 31.5, 23.5, 64, 48)
        x_lo, x_hi = (border - 31.5) / 32.0, (63.0 - border - 31.5) / 32.0
        y_lo, y_hi = (border - 23.5) / 16.0, (47.0 - border - 23.5) / 16.0
        on = [(x_lo, 0.0), (x_hi, 0.0), (0.0, y_lo), (0.0, y_hi), (x_lo, y_lo), (x_hi, y_hi)]
        # 1e-9 px outside each border.
        step_x, step_y = 1e-9 / 32.0, 1e-9 / 16.0
        outward = [(x_lo - step_x, 0.0), (x_hi + step_x, 0.0), (0.0, y_lo - step_y), (0.0, y_hi + step_y)]
        points = np.array([(x, y, 1.0) for x, y in on + outward]
                          + [(0.1, 0.2, 0.0), (0.1, 0.2, -0.0), (0.1, -0.2, -1.5), (-3.0, 2.0, -1e-300)])
        got = project_points(points, SE3Pose.identity(), intr, border)
        want = per_component_projection(points, SE3Pose.identity(), intr, border)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert got[2].tolist() == [True] * len(on) + [False] * (len(outward) + 4)
        assert np.array_equal(got[0][: len(on)], [
            [border, 23.5], [63.0 - border, 23.5], [31.5, border], [31.5, 47.0 - border],
            [border, border], [63.0 - border, 47.0 - border],
        ])
        rng = np.random.default_rng(53)
        for _ in range(10):
            pose = random_pose(rng, angle_scale=0.3, trans_scale=1.0)
            got = project_points(points, pose, intr, border)
            for g, w in zip(got, per_component_projection(points, pose, intr, border)):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("angle", [0.0, 1e-10, 3e-9, 1e-3, 0.4, 2.5])
    def test_se3_exp_matches_separate_rotation_and_left_jacobian(self, angle):
        rng = np.random.default_rng(52)
        for trial in range(50):
            axis = rng.standard_normal(3)
            v = rng.uniform(-1, 1, 3)
            if trial % 2:
                # With w_k = 0 and v = e_j, translation entry i (i, j, k
                # distinct) is the [w]x^2 term alone, so its last bits show
                # below SMALL_ANGLE too.
                k = trial % 3
                axis[k] = 0.0
                v = np.eye(3)[(k + 1) % 3]
            twist = np.concatenate([v, angle * axis / np.linalg.norm(axis)])
            rotation, translation = rodrigues_exp(twist)
            pose = se3_exp(twist)
            assert pose.rotation.tobytes() == rotation.tobytes()
            assert pose.translation.tobytes() == translation.tobytes()


class TestPoseJacobian:
    def numeric_jacobian(self, pixel, inv_depth, pose, intr_dst, h=1e-6):
        jac = np.zeros((2, 6))
        for k in range(6):
            delta = np.zeros(6)
            delta[k] = h
            plus = project_one(pixel, inv_depth, se3_exp(delta).compose(pose), intr_dst, border=-1e9)
            minus = project_one(pixel, inv_depth, se3_exp(-delta).compose(pose), intr_dst, border=-1e9)
            jac[:, k] = (plus - minus) / (2 * h)
        return jac

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 100:
            intr_dst = CameraIntrinsics(
                rng.uniform(40, 80), rng.uniform(40, 80), 31.5, 31.5, 64, 64
            )
            pixel, inv_depth = rng.uniform(6, 57, 2), rng.uniform(0.2, 1.5)
            pose = random_pose(rng, 0.2, 0.3)
            analytic, p_cam = jacobian_one(pixel, inv_depth, pose, intr_dst)
            if p_cam[2] < 0.3:
                continue
            numeric = self.numeric_jacobian(pixel, inv_depth, pose, intr_dst)
            denom = np.maximum(np.abs(numeric), 1.0)
            assert np.abs(analytic - numeric).max() / denom.max() < 1e-5
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-3)
            assert rel.max() < 1e-5
            checked += 1

    def test_principal_point_translation_columns(self):
        jac, _ = jacobian_one([INTR.cx, INTR.cy], 1.0, SE3Pose.identity())
        assert jac[0, 0] == pytest.approx(INTR.fx)
        assert jac[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert jac[1, 1] == pytest.approx(INTR.fy)
        assert jac[1, 2] == pytest.approx(0.0, abs=1e-12)

    def test_rotation_columns_depth_scale_invariant(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            pixel = rng.uniform(10, 53, 2)
            q = rng.uniform(0.2, 1.0)
            pose = random_pose(rng, 0.15, 0.3)
            s = rng.uniform(0.5, 3.0)
            scaled_pose = SE3Pose(pose.rotation, pose.translation / s)
            j1, _ = jacobian_one(pixel, q, pose)
            j2, _ = jacobian_one(pixel, q * s, scaled_pose)
            np.testing.assert_allclose(j1[:, 3:], j2[:, 3:], rtol=1e-9, atol=1e-9)

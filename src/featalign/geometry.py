"""SE(3) arithmetic, pinhole projection, and the analytic pose Jacobian.

Conventions used throughout the package:

* Poses are rigid transforms ``X_dst = R @ X_src + t`` mapping camera
  coordinates of a source frame into a destination frame.
* Twists are 6-vectors ``[v, w]`` (translation part first), and pose
  increments are applied on the left: ``T <- exp(delta) @ T``.
* Pixel coordinates are ``(u, v) = (column, row)``; integer coordinates sit
  on pixel centers. Depth is the camera-frame z coordinate; points carry
  inverse depth ``q = 1/z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Rotation angles below this norm take the series branch of exp/log.
SMALL_ANGLE = 1e-8
# A pose matrix's rotation is rigid when RᵀR and det R match I and 1 this closely.
RIGID_TOLERANCE = 1e-9
# Read-only identity for the exp map's sums, which make new arrays.
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def _skew(w: np.ndarray) -> np.ndarray:
    x, y, z = w.tolist()
    return np.array(
        [
            [0.0, -z, y],
            [z, 0.0, -x],
            [-y, x, 0.0],
        ]
    )


@dataclass(frozen=True)
class SE3Pose:
    """Rigid transform with a 3x3 rotation and a 3-vector translation."""

    rotation: np.ndarray
    translation: np.ndarray

    @staticmethod
    def identity() -> "SE3Pose":
        return SE3Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "SE3Pose") -> "SE3Pose":
        """Returns self @ other (other applied first)."""
        return SE3Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "SE3Pose":
        rt = self.rotation.T
        return SE3Pose(rt, -rt @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transforms one (3,) point or a batch (N, 3)."""
        return points @ self.rotation.T + self.translation

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @staticmethod
    def from_matrix(m: np.ndarray) -> "SE3Pose":
        """The pose of a finite rigid 4x4 matrix; anything else raises ``ValueError``."""
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 pose matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("pose matrix holds a non-finite entry")
        if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValueError("pose matrix's last row is not [0, 0, 0, 1]")
        rotation = m[:3, :3]
        orthonormal = np.abs(rotation.T @ rotation - np.eye(3)).max() <= RIGID_TOLERANCE
        if not (orthonormal and abs(np.linalg.det(rotation) - 1.0) <= RIGID_TOLERANCE):
            raise ValueError("pose rotation is not orthonormal with det +1")
        return SE3Pose(rotation.copy(), m[:3, 3].copy())


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model: focal lengths, principal point, image size in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be finite and positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def scaled(self, level: int) -> "CameraIntrinsics":
        """Intrinsics of pyramid level ``level`` (coordinates divided by 2^level)."""
        s = 2.0**level
        return CameraIntrinsics(
            self.fx / s,
            self.fy / s,
            self.cx / s,
            self.cy / s,
            self.width // int(s),
            self.height // int(s),
        )

    def rays(self, pixels: np.ndarray) -> np.ndarray:
        """Camera-frame ray directions (N, 3) of pixels (N, 2), scaled to z = 1."""
        return np.stack(
            [
                (pixels[:, 0] - self.cx) / self.fx,
                (pixels[:, 1] - self.cy) / self.fy,
                np.ones(pixels.shape[0]),
            ],
            axis=1,
        )

    def back_project(self, pixels: np.ndarray, inverse_depths: np.ndarray) -> np.ndarray:
        """Camera-frame points (N, 3) of pixels (N, 2) at inverse depths (N,)."""
        return self.rays(pixels) * (1.0 / inverse_depths)[:, None]


def so3_log(rotation: np.ndarray) -> np.ndarray:
    cos_theta = np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    off = np.array(
        [
            rotation[2, 1] - rotation[1, 2],
            rotation[0, 2] - rotation[2, 0],
            rotation[1, 0] - rotation[0, 1],
        ]
    )
    if theta < SMALL_ANGLE:
        return 0.5 * off
    if np.pi - theta < 1e-6:
        # Near pi the off-diagonal form degenerates; recover the axis from
        # the dominant diagonal entry of R + I.
        m = rotation + np.eye(3)
        k = int(np.argmax(np.diag(m)))
        axis = m[:, k] / np.sqrt(2.0 * (1.0 + rotation[k, k]))
        axis = axis / np.linalg.norm(axis)
        # Fix the sign so that it matches the skew-symmetric part.
        if np.dot(axis, off) < 0:
            axis = -axis
        return theta * axis
    return theta / (2.0 * np.sin(theta)) * off


def _so3_left_jacobian_inv(w: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(w))
    wx = _skew(w)
    if theta < SMALL_ANGLE:
        return np.eye(3) - 0.5 * wx + (wx @ wx) / 12.0
    half = 0.5 * theta
    cot = half / np.tan(half)
    coeff = (1.0 - cot) / theta**2
    return np.eye(3) - 0.5 * wx + coeff * (wx @ wx)


def se3_exp(twist: np.ndarray) -> SE3Pose:
    """Exponential map from a twist ``[v, w]`` to a pose. exp(0) = identity."""
    twist = np.asarray(twist, dtype=float)
    if twist.shape != (6,):
        raise ValueError(f"twist must be a 6-vector, got shape {twist.shape}")
    if not all(map(math.isfinite, twist.tolist())):
        raise ValueError("twist must be finite")
    v, w = twist[:3], twist[3:]
    # Rodrigues for the rotation and the SO(3) left Jacobian for the
    # translation share theta, [w]x and [w]x^2; both take a series branch
    # near zero.
    # The bits np.linalg.norm(w) gives.
    theta = math.sqrt(w.dot(w))
    wx = _skew(w)
    wx2 = wx @ wx
    if theta < SMALL_ANGLE:
        rotation = _EYE3 + wx + 0.5 * wx2
        left_jacobian = _EYE3 + 0.5 * wx + wx2 / 6.0
    else:
        sin, cos = np.sin(theta), np.cos(theta)
        b = (1.0 - cos) / theta**2
        rotation = _EYE3 + sin / theta * wx + b * wx2
        left_jacobian = _EYE3 + b * wx + (theta - sin) / theta**3 * wx2
    return SE3Pose(rotation, left_jacobian @ v)


def se3_log(pose: SE3Pose) -> np.ndarray:
    """Inverse of :func:`se3_exp` for rotation angles below pi."""
    w = so3_log(pose.rotation)
    v = _so3_left_jacobian_inv(w) @ pose.translation
    return np.concatenate([v, w])


def project_points(
    points: np.ndarray,
    pose: SE3Pose,
    intr: CameraIntrinsics,
    border: float = 2.0,
):
    """Projects N source camera-frame points (N, 3) into the camera ``intr``.

    Source points come from :meth:`CameraIntrinsics.back_project` of the
    source camera, which may differ from ``intr``. Returns (projected
    (N,2), destination camera-frame points (N,3), valid mask (N,)). A point
    is invalid when it lands at non-positive depth or outside the image
    minus ``border`` pixels; its entries are left in place but must not be
    used.
    """
    p_cam = pose.apply(points)
    z = p_cam[:, 2]
    in_front = z > 0
    safe_z = np.where(in_front, z, 1.0)
    # u = fx x / z + cx and v = fy y / z + cy, each computed in place in its
    # column of the result: numpy runs (N, 2)-by-(2,) broadcasts row by row,
    # which is slower than six 1-D operations.
    projected = np.empty((len(z), 2))
    u, v = projected[:, 0], projected[:, 1]
    for col, f, c, xy in ((u, intr.fx, intr.cx, p_cam[:, 0]), (v, intr.fy, intr.cy, p_cam[:, 1])):
        np.multiply(f, xy, out=col)
        np.divide(col, safe_z, out=col)
        np.add(col, c, out=col)
    valid = (
        in_front
        & (u >= border)
        & (u <= intr.width - 1 - border)
        & (v >= border)
        & (v <= intr.height - 1 - border)
    )
    return projected, p_cam, valid


def projection_jacobian(p_cam: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Batched 2x6 pixel-vs-twist Jacobian for camera-frame points (N, 3).

    Columns are ordered [v, w] to match :func:`se3_exp`; points must lie in
    front of the camera.

    For a left increment, d(exp(d)X)/dd = [I | -skew(X)], composed with the
    pinhole derivative [[fx/z, 0, -fx x/z^2], [0, fy/z, -fy y/z^2]].
    """
    x, y, z = p_cam[:, 0], p_cam[:, 1], p_cam[:, 2]
    inv_z = 1.0 / z
    inv_z2 = inv_z**2
    n = p_cam.shape[0]
    jac = np.empty((n, 2, 6))
    fx, fy = intr.fx, intr.fy
    jac[:, 0, 0] = fx * inv_z
    jac[:, 0, 1] = 0.0
    jac[:, 0, 2] = -fx * x * inv_z2
    jac[:, 1, 0] = 0.0
    jac[:, 1, 1] = fy * inv_z
    jac[:, 1, 2] = -fy * y * inv_z2
    # Rotation columns: -d(pi)/dX @ skew(X), written out per entry.
    jac[:, 0, 3] = -fx * x * y * inv_z2
    jac[:, 0, 4] = fx * (1.0 + x**2 * inv_z2)
    jac[:, 0, 5] = -fx * y * inv_z
    jac[:, 1, 3] = -fy * (1.0 + y**2 * inv_z2)
    jac[:, 1, 4] = fy * x * y * inv_z2
    jac[:, 1, 5] = fy * x * inv_z
    return jac

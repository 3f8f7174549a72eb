#!/usr/bin/env python3
"""Rigid-motion arithmetic and pinhole projection, checked numerically.

Walks through the geometric toolbox: twist exponentials, pose composition,
back-projecting depth-carrying pixels once and projecting them into moved
cameras, and the analytic 2x6 pose Jacobian compared against finite
differences.
"""

import numpy as np

from featalign.geometry import (
    CameraIntrinsics,
    SE3Pose,
    project_points,
    projection_jacobian,
    se3_exp,
    se3_log,
)

intr = CameraIntrinsics(fx=60.0, fy=60.0, cx=31.5, cy=31.5, width=64, height=64)

print("== twist exponential ==")
twist = np.array([0.1, -0.2, 0.05, 0.3, 0.1, -0.2])
pose = se3_exp(twist)
print("exp(twist) rotation:\n", np.round(pose.rotation, 6))
print("log(exp(twist)) - twist:", np.abs(se3_log(pose) - twist).max())

print("\n== projection ==")
pixels = np.array([[20.0, 30.0], [5.0, 40.0]])
inv_depths = np.array([0.25, 0.5])
points = intr.back_project(pixels, inv_depths)  # camera-frame points, once
moved = se3_exp(np.array([0.3, 0.0, 0.1, 0.0, 0.02, 0.0]))
projected, p_cam, valid = project_points(points, moved, intr)
for pixel, depth, out, ok in zip(pixels, 1.0 / inv_depths, projected, valid):
    print(f"pixel {pixel} at depth {depth:g} lands at", np.round(out, 3), "" if ok else "(out of view)")

behind = SE3Pose(np.eye(3), np.array([0, 0, -9.0]))
print("points pushed behind the camera -> valid:", project_points(points, behind, intr)[2])

print("\n== pose Jacobian vs finite differences ==")
jac = projection_jacobian(p_cam, intr)
h = 1e-6
numeric = np.zeros_like(jac)
for k in range(6):
    d = np.zeros(6)
    d[k] = h
    plus = project_points(points, se3_exp(d).compose(moved), intr, border=-1e9)[0]
    minus = project_points(points, se3_exp(-d).compose(moved), intr, border=-1e9)[0]
    numeric[:, :, k] = (plus - minus) / (2 * h)
print("max |analytic - numeric| over both points:", np.abs(jac - numeric).max())

"""Synthetic scenes with exact ground-truth depth, poses, and matches.

The world is a procedurally textured heightfield z = Z0 + h(x, y) seen by
pinhole cameras looking roughly down +z. Height slopes are kept well below
the ray-steepness bound, so every ray crosses the surface exactly once and
the ray/surface intersection solves by fixed-point iteration to within the
last bit of float64. That keeps depth, occlusion reasoning, and ground-truth
correspondences closed-form while still exercising parallax.

Photometric "condition" transforms stand in for weather and lighting
variation; they never touch geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from ..alignment import interp
from ..errors import DataFault
from ..geometry import CameraIntrinsics, SE3Pose, project_points, se3_exp
from ..losses import CorrespondenceBatch

_RAY_ITERATIONS = 36

# Coordinate margin (px) for exported level-0 correspondences: bilinear
# sampling, the derivative stencil, and the training jitter must all fit.
CORRESPONDENCE_MARGIN = 6.0

# A non-match lies farther than this (px) from the true match, so
# near-misses are not punished. On a small image no point of the inset
# square may lie that far, so each non-match gets at most this many draws.
NEGATIVE_MIN_DIST = 8.0
NEGATIVE_MAX_DRAWS = 1000


# splitmix64-style mixing constants for the lattice hash.
_UA = np.uint64(0x9E3779B97F4A7C15)
_UB = np.uint64(0xC2B2AE3D27D4EB4F)
_UD = np.uint64(0xBF58476D1CE4E5B9)
_UE = np.uint64(0x94D049BB133111EB)


def _hash01(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic lattice values in [0, 1) on an unbounded integer grid."""
    seed_term = np.uint64((seed * 0x165667B19E3779F9) & 0xFFFFFFFFFFFFFFFF)
    h = (
        ix.astype(np.int64).astype(np.uint64) * _UA
        ^ iy.astype(np.int64).astype(np.uint64) * _UB
        ^ seed_term
    )
    h ^= h >> np.uint64(30)
    h *= _UD
    h ^= h >> np.uint64(27)
    h *= _UE
    h ^= h >> np.uint64(31)
    return h.astype(np.float64) / float(2**64)


def _fade(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def _noise_field(seed: int, octaves: int, base_freq: float, persistence: float, box, n_points: int):
    """Octave value noise in [0, 1), for calls that mostly query ``box``.

    Octave o bilinearly interpolates, with ``_fade`` weights, the lattice
    values ``_hash01(., ., seed * 1031 + o)`` at frequency
    ``base_freq * 2**o``; the octaves are weighted 1, p, p^2, ...
    (p = ``persistence``), summed in order and normalized.

    Each octave's lattice corners over ``box`` = (x_lo, x_hi, y_lo, y_hi) are
    hashed once, as one table, and a call evaluates every octave in one pass
    over (octaves, n) arrays. A call with a point outside the box, and every
    call when the box is not finite or an octave's table would hold more
    than four corners per point of ``n_points``, hashes each point's four
    corners instead. ``_hash01`` is elementwise, so the values never depend
    on the box. Returns the function of (x, y), each an (n,) array.
    """
    freqs = base_freq * 2.0 ** np.arange(octaves)[:, None]
    seeds = [seed * 1031 + o for o in range(octaves)]
    x_lo, x_hi, y_lo, y_hi = box
    table = None
    if np.isfinite(box).all():
        lattice_x, lattice_y = np.floor(freqs * x_lo), np.floor(freqs * y_lo)
        nx = np.floor(freqs * x_hi) - lattice_x + 2.0
        ny = np.floor(freqs * y_hi) - lattice_y + 2.0
        if np.all(nx * ny <= 4.0 * n_points):
            nx, ny = nx.astype(np.int64), ny.astype(np.int64)
            tables = [
                _hash01(lx + np.arange(w), ly + np.arange(h)[:, None], s).ravel()
                for lx, ly, w, h, s in zip(lattice_x[:, 0], lattice_y[:, 0], nx[:, 0], ny[:, 0], seeds)
            ]
            # Where each octave's row-major table starts in the one flat table.
            start = np.cumsum([0] + [t.size for t in tables[:-1]])[:, None]
            table = np.concatenate(tables)

    def noise(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Lattice coordinates, then, in place, the offsets in the cell, then
        # the fade weights. Each (octaves, n) array is freed once it has been
        # read: heap that ``generate`` leaves behind stays resident.
        tx = freqs * x
        ty = freqs * y
        x0 = np.floor(tx)
        y0 = np.floor(ty)
        if table is not None and x_lo <= x.min() and x.max() <= x_hi and y_lo <= y.min() and y.max() <= y_hi:
            cell = start + (y0 - lattice_y).astype(np.int64) * nx + (x0 - lattice_x).astype(np.int64)
            v00, v01, v10, v11 = table[cell], table[cell + 1], table[cell + nx], table[cell + nx + 1]
            del cell
        else:
            v00, v01, v10, v11 = (
                np.array([_hash01(x0[o] + dx, y0[o] + dy, s) for o, s in enumerate(seeds)])
                for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1))
            )
        tx -= x0
        ty -= y0
        del x0, y0
        tx = _fade(tx)
        ty = _fade(ty)
        top = v00 + tx * (v01 - v00)
        bot = v10 + tx * (v11 - v10)
        total = 0.0
        amp = 1.0
        norm = 0.0
        for layer in top + ty * (bot - top):
            total = total + amp * layer
            norm += amp
            amp *= persistence
        return total / norm

    return noise


def octave_noise(
    x: np.ndarray,
    y: np.ndarray,
    seed: int,
    octaves: int,
    base_freq: float,
    persistence: float,
) -> np.ndarray:
    """Multi-octave value noise in [0, 1) (see ``_noise_field``), shaped like ``x``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    box = (x.min(), x.max(), y.min(), y.max()) if x.size else (np.nan,) * 4
    noise = _noise_field(seed, octaves, base_freq, persistence, box, x.size)
    return noise(x.ravel(), y.ravel()).reshape(x.shape)


@dataclass(frozen=True)
class ConditionTransform:
    """Photometric perturbation standing in for a weather/lighting change.

    Applied as contrast * img^gamma + brightness, then additive Gaussian
    noise, clamped to [0, 1].
    """

    gamma: float = 1.0
    brightness: float = 0.0
    contrast: float = 1.0
    noise_sigma: float = 0.0

    def apply(self, image: np.ndarray, rng) -> np.ndarray:
        out = np.power(np.clip(image, 0.0, 1.0), self.gamma)
        out = self.contrast * out + self.brightness
        if self.noise_sigma > 0.0:
            out = out + rng.normal(0.0, self.noise_sigma, out.shape)
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class SceneConfig:
    # The surface's mean depth and noise shape, and the range of candidate
    # offsets and their minimum image overlap; no scene varies them.
    depth_base: ClassVar[float] = 4.0
    height_octaves: ClassVar[int] = 2
    height_base_freq: ClassVar[float] = 0.25
    height_persistence: ClassVar[float] = 0.5
    texture_octaves: ClassVar[int] = 3
    texture_persistence: ClassVar[float] = 0.55
    baseline_min: ClassVar[float] = 0.08
    baseline_max: ClassVar[float] = 0.5
    candidate_rotation_deg: ClassVar[float] = 2.0
    overlap_threshold: ClassVar[float] = 0.6

    width: int = 64
    height: int = 64
    fx: float = 45.0
    fy: float = 45.0
    cx: float = 31.5
    cy: float = 31.5
    # Height slopes must stay below the ray-steepness bound so the
    # ray/surface intersection is unique: |grad h| <= 2A * 1.875 * 0.5/1.5
    # = 0.625 A per axis at these octaves, times |d_xy/d_z| <= 1.02 at the
    # widest corner, keeps the fixed point a contraction for A <= 0.5.
    height_amplitude: float = 0.5
    texture_base_freq: float = 0.4
    n_frames: int = 8
    step_translation: float = 0.12
    step_rotation_deg: float = 1.5
    conditions: tuple = ()
    n_candidates: int = 0

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError("trajectory needs at least one frame")
        if self.width < 8 or self.height < 8:
            raise ValueError("image too small")


@dataclass
class Frame:
    """One view: ``image`` is an (H, W) float array in [0, 1], ``depth`` (H, W)."""

    frame_id: int
    image: np.ndarray
    depth: np.ndarray
    pose: SE3Pose
    condition_id: int
    sequence: int
    index: int


@dataclass
class RelocCandidate:
    candidate_frame: int
    reference_frame: int
    relative_pose: SE3Pose


@dataclass
class SyntheticScene:
    config: SceneConfig
    seed: int
    frames: list
    candidates: list
    trajectory: list

    @property
    def intrinsics(self) -> CameraIntrinsics:
        cfg = self.config
        return CameraIntrinsics(cfg.fx, cfg.fy, cfg.cx, cfg.cy, cfg.width, cfg.height)

    @property
    def _height_noise(self) -> tuple:
        """(seed, octaves, base frequency, persistence) of the height noise."""
        cfg = self.config
        return self.seed * 7 + 1, cfg.height_octaves, cfg.height_base_freq, cfg.height_persistence

    def _height(self, noise: np.ndarray) -> np.ndarray:
        """Surface height at height noise ``noise``."""
        cfg = self.config
        return cfg.depth_base + cfg.height_amplitude * (2.0 * noise - 1.0)

    def surface_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._height(octave_noise(x, y, *self._height_noise))

    def texture(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        cfg = self.config
        return octave_noise(
            x, y, self.seed * 13 + 2, cfg.texture_octaves, cfg.texture_base_freq,
            cfg.texture_persistence,
        )

    def ray_depth(self, pose: SE3Pose, pixels: np.ndarray) -> np.ndarray:
        """Exact camera z-depth along the rays of (possibly subpixel) pixels.

        ``pose`` is camera-to-world. Fixed-point iteration on the ray
        parameter ``t``; the height slopes make it a contraction, so the
        intersection is unique (no self-occlusion). Most rays reach an exact
        fixed point (``f(t) == t``); a few percent end oscillating in the
        last bit between two values. A ray's update depends only on its own
        ``t``, so each iteration updates only the rays still moving: a ray
        stops at a fixed point, or once it is back at its value of two
        iterations ago, taking the value of the pair that the parity of the
        iterations left selects. Rays in a longer last-bit cycle (period 3
        or 6) run all ``_RAY_ITERATIONS`` steps. The march stops when no ray
        moves or after ``_RAY_ITERATIONS``; every ray ends where the full
        fixed-count iteration would leave it.

        Every point of a march lies between the ray's start and the two
        ``t`` where it meets the lowest and highest surface, so the height
        noise is evaluated over that box, widened by one cell of the finest
        octave, and its lattice is hashed once per march (``_noise_field``).
        The moving rays are kept in compacted arrays that shrink when rays
        retire.
        """
        cfg = self.config
        pixels = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
        d_world = self.intrinsics.rays(pixels) @ pose.rotation.T
        d_x, d_y, d_z = (np.ascontiguousarray(c) for c in d_world.T)
        o_x, o_y, o_z = pose.translation
        depth = np.full(pixels.shape[0], cfg.depth_base - o_z)
        if not depth.size:
            return depth
        lowest = cfg.depth_base - cfg.height_amplitude
        highest = cfg.depth_base + cfg.height_amplitude
        reach = np.stack([depth, (lowest - o_z) / d_z, (highest - o_z) / d_z])
        x_reach = o_x + reach * d_x
        y_reach = o_y + reach * d_y
        margin = 1.0 / (cfg.height_base_freq * 2.0 ** (cfg.height_octaves - 1))
        box = (x_reach.min() - margin, x_reach.max() + margin, y_reach.min() - margin, y_reach.max() + margin)
        noise = _noise_field(*self._height_noise, box, depth.size)
        del d_world, reach, x_reach, y_reach  # the march needs only the box
        ray = np.arange(depth.size)
        t = depth.copy()
        t_prev = np.full(depth.size, np.nan)
        for i in range(_RAY_ITERATIONS):
            t_next = (self._height(noise(o_x + t * d_x, o_y + t * d_y)) - o_z) / d_z
            cycled = t_next == t_prev
            moving = (t_next != t) & ~cycled
            if not moving.all():
                # A ray back at its value of two iterations ago alternates
                # between t and t_next; an odd number of iterations left
                # would end it on t.
                done = ~moving
                odd_left = (_RAY_ITERATIONS - 1 - i) % 2 == 1
                depth[ray[done]] = np.where(cycled[done] & odd_left, t[done], t_next[done])
                ray, t, t_next, d_x, d_y, d_z = (
                    a[moving] for a in (ray, t, t_next, d_x, d_y, d_z)
                )
                if not ray.size:
                    return depth
            t_prev, t = t, t_next
        depth[ray] = t
        return depth

    def render(self, pose: SE3Pose):
        """Renders (clean image in [0, 1], z-depth map) at a pose."""
        cfg = self.config
        us, vs = np.meshgrid(np.arange(cfg.width), np.arange(cfg.height))
        pixels = np.stack([us.ravel(), vs.ravel()], axis=1).astype(np.float64)
        t = self.ray_depth(pose, pixels)
        points = pose.translation + (self.intrinsics.rays(pixels) * t[:, None]) @ pose.rotation.T
        image = self.texture(points[:, 0], points[:, 1]).reshape(cfg.height, cfg.width)
        depth = t.reshape(cfg.height, cfg.width)
        if not np.all(depth > 0):
            raise ValueError("camera pose renders non-positive depth (behind surface?)")
        return image, depth


def _random_walk(rng, config: SceneConfig):
    poses = [SE3Pose.identity()]
    rot = math.radians(config.step_rotation_deg)
    for _ in range(config.n_frames - 1):
        step = np.zeros(6)
        step[0:2] = rng.uniform(-config.step_translation, config.step_translation, 2)
        step[2] = rng.uniform(-config.step_translation / 3.0, config.step_translation / 3.0)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        step[3:] = axis * rng.uniform(0.0, rot)
        poses.append(poses[-1].compose(se3_exp(step)))
    return poses


def _overlap_fraction(scene: SyntheticScene, ref_depth: np.ndarray, rel: SE3Pose) -> float:
    """Fraction of a coarse grid of the reference render that stays in view under rel.

    The grid's depths are read from the render: a ray's depth does not depend
    on the other rays of its march.
    """
    cfg = scene.config
    us = np.arange(4, cfg.width - 4, 4, dtype=np.float64)
    vs = np.arange(4, cfg.height - 4, 4, dtype=np.float64)
    uu, vv = np.meshgrid(us, vs)
    pixels = np.stack([uu.ravel(), vv.ravel()], axis=1)
    depth = ref_depth[4 : cfg.height - 4 : 4, 4 : cfg.width - 4 : 4].ravel()
    intr = scene.intrinsics
    _, _, valid = project_points(intr.back_project(pixels, 1.0 / depth), rel, intr, border=2.0)
    return float(valid.mean())


def _sample_candidate_offset(rng, scene: SyntheticScene, ref_depth: np.ndarray) -> SE3Pose:
    """Relative pose (candidate <- reference) with enforced image overlap."""
    cfg = scene.config
    rot = math.radians(cfg.candidate_rotation_deg)
    for scale in (1.0, 0.7, 0.5, 0.35, 0.2):
        for _ in range(40):
            direction = rng.normal(size=3)
            direction[2] *= 0.3
            direction /= np.linalg.norm(direction)
            magnitude = rng.uniform(cfg.baseline_min, cfg.baseline_max) * scale
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            twist = np.concatenate([direction * magnitude, axis * rng.uniform(0.0, rot)])
            rel = se3_exp(twist)
            if _overlap_fraction(scene, ref_depth, rel) >= cfg.overlap_threshold:
                return rel
    raise DataFault("could not sample an overlapping relocalization candidate")


def generate_scene(seed: int, config: SceneConfig) -> SyntheticScene:
    """Deterministic scene: trajectory sequences per condition + candidates.

    Sequence 0 is the canonical (unperturbed) odometry stream; each entry of
    config.conditions is its own sequence of the same trajectory. Each pose
    is rendered once: every sequence applies its condition to that clean
    image and shares its depth array, so no frame's arrays may be written
    in place.
    Candidates are extra frames at offset poses, rendered under the last
    condition (the canonical one when there is none), each tracked against
    its reference frame from the canonical stream.
    """
    rng = np.random.default_rng([seed, 0xBE7C])
    scene = SyntheticScene(config, seed, [], [], [])
    scene.trajectory = _random_walk(rng, config)
    conditions = (ConditionTransform(),) + tuple(config.conditions)
    renders = [scene.render(pose) for pose in scene.trajectory]
    frame_id = 0
    for seq, condition in enumerate(conditions):
        for index, (pose, (clean, depth)) in enumerate(zip(scene.trajectory, renders)):
            cond_rng = np.random.default_rng([seed, seq, index, 0x51DE])
            image = condition.apply(clean, cond_rng)
            scene.frames.append(Frame(frame_id, image, depth, pose, seq, seq, index))
            frame_id += 1
    cand_id = len(conditions) - 1
    for k in range(config.n_candidates):
        ref_index = k % config.n_frames
        ref_pose = scene.trajectory[ref_index]
        rel = _sample_candidate_offset(rng, scene, renders[ref_index][1])
        # rel maps reference-camera coords to candidate-camera coords.
        cand_pose = ref_pose.compose(rel.inverse())
        clean, depth = scene.render(cand_pose)
        cond_rng = np.random.default_rng([seed, 0xCA2D, k])
        image = conditions[cand_id].apply(clean, cond_rng)
        scene.frames.append(Frame(frame_id, image, depth, cand_pose, cand_id, -1, -1))
        scene.candidates.append(RelocCandidate(frame_id, ref_index, rel))
        frame_id += 1
    return scene


def make_correspondences(
    scene_or_frames,
    frame_a: int,
    frame_b: int,
    n_pos: int,
    n_neg: int,
    seed: int,
    intrinsics: Optional[CameraIntrinsics] = None,
) -> CorrespondenceBatch:
    """Ground-truth matches between two overlapping frames.

    Positives start at integer pixels of frame a, carried through its depth
    map and the relative ground-truth pose; landing points are kept only if
    they respect the margins and agree with frame b's depth within 2%
    (occlusion / numeric guard). Negatives follow the training-loss rule:
    one far-away wrong location in b per positive.
    """
    frames = scene_or_frames.frames if isinstance(scene_or_frames, SyntheticScene) else scene_or_frames
    if intrinsics is None:
        intrinsics = scene_or_frames.intrinsics
    fa = next(f for f in frames if f.frame_id == frame_a)
    fb = next(f for f in frames if f.frame_id == frame_b)
    rel = fb.pose.inverse().compose(fa.pose)
    rng = np.random.default_rng([seed, frame_a, frame_b])
    height, width = fa.depth.shape
    m = CORRESPONDENCE_MARGIN
    pos_a = np.empty((0, 2))
    pos_b = np.empty((0, 2))
    attempts = 0
    while pos_a.shape[0] < n_pos and attempts < 12:
        attempts += 1
        draw = max(4 * n_pos, 64)
        ua = np.stack(
            [
                rng.integers(int(m), int(width - m), draw),
                rng.integers(int(m), int(height - m), draw),
            ],
            axis=1,
        ).astype(np.float64)
        depth_a = fa.depth[ua[:, 1].astype(int), ua[:, 0].astype(int)]
        projected, p_cam, valid = project_points(
            intrinsics.back_project(ua, 1.0 / depth_a), rel, intrinsics, border=m
        )
        if valid.any():
            ub = projected[valid]
            z_pred = p_cam[valid, 2]
            z_map = interp(fb.depth[:, :, None], ub)[:, 0]
            consistent = np.abs(z_map - z_pred) / z_pred <= 0.02
            pos_a = np.concatenate([pos_a, ua[valid][consistent]])
            pos_b = np.concatenate([pos_b, ub[consistent]])
    if pos_a.shape[0] < n_pos:
        raise DataFault(
            f"frames {frame_a}/{frame_b}: only {pos_a.shape[0]} of {n_pos} valid matches "
            f"(low overlap or occlusion)"
        )
    pos_a, pos_b = pos_a[:n_pos], pos_b[:n_pos]
    if n_neg > 0:
        reps = int(np.ceil(n_neg / n_pos))
        neg_a = np.tile(pos_a, (reps, 1))[:n_neg]
        anchors = np.tile(pos_b, (reps, 1))[:n_neg]
        neg_b = sample_negatives(rng, anchors, width, height)
    else:
        neg_a = np.empty((0, 2))
        neg_b = np.empty((0, 2))
    return CorrespondenceBatch(pos_a, pos_b, neg_a, neg_b, frame_a, frame_b)


def sample_negatives(rng, pos_b: np.ndarray, width: int, height: int):
    """Draws one non-match location in image b per positive.

    Uniform over the image inset by ``CORRESPONDENCE_MARGIN``, rejecting
    points within ``NEGATIVE_MIN_DIST`` px of the true match. Raises
    ``DataFault`` when ``NEGATIVE_MAX_DRAWS`` draws all land that close.
    """
    m = CORRESPONDENCE_MARGIN
    n = pos_b.shape[0]
    out = np.empty((n, 2))
    for i in range(n):
        for _ in range(NEGATIVE_MAX_DRAWS):
            cand = np.array([rng.uniform(m, width - 1 - m), rng.uniform(m, height - 1 - m)])
            if np.linalg.norm(cand - pos_b[i]) > NEGATIVE_MIN_DIST:
                out[i] = cand
                break
        else:
            raise DataFault(
                f"no non-match farther than {NEGATIVE_MIN_DIST:g} px from {pos_b[i]} "
                f"in {NEGATIVE_MAX_DRAWS} draws on a {width}x{height} image"
            )
    return out


def default_train_conditions() -> tuple:
    """Photometric variety for training sequences (frozen)."""
    return (
        ConditionTransform(gamma=1.4, brightness=0.08, contrast=0.9, noise_sigma=0.01),
        ConditionTransform(gamma=0.72, brightness=-0.08, contrast=1.1, noise_sigma=0.015),
        ConditionTransform(gamma=1.15, brightness=-0.04, contrast=0.8, noise_sigma=0.02),
    )


def default_eval_condition() -> ConditionTransform:
    """Held-out perturbation for val/test candidates (frozen, harder)."""
    return ConditionTransform(gamma=1.5, brightness=0.12, contrast=0.85, noise_sigma=0.02)

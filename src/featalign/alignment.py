"""Runtime solvers: per-pixel Gauss-Newton tracking and 6-DOF alignment.

The residual of a point is the target-map descriptor at its projected
location minus the reference descriptor. Per-pixel systems are 2x2 in the
point position; the pose system is 6x6 in a left-multiplied twist. A
coarse-to-fine schedule plus a Levenberg fallback (diagonal damping,
accept-on-decrease) keeps the plain Gauss-Newton fixed points intact while
surviving bad initializations.

All solvers are pure numpy over already-extracted feature pyramids and are
deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from . import network
from . import tensor as T
from .geometry import CameraIntrinsics, SE3Pose, project_points, projection_jacobian, se3_exp

# Central differences at p' +- 1 px must stay inside the map at every pyramid
# level. A point this far inside reads its derivative from the four corners
# around it, none on the zero border of the derivative map.
STENCIL_MARGIN = 1.0 + 1e-9

# Step length (px) below which per-pixel tracking counts a point as settled,
# and the number of steps it takes at most.
PIXEL_STEP_TOL = 0.01
PIXEL_MAX_ITERATIONS = 25

# Keyframe points are never selected within this many px of the border.
KEYFRAME_MARGIN = 3


@dataclass(frozen=True)
class AlignmentConfig:
    # Per-level iteration cap, baseline Levenberg damping, projection border
    # (px) and the damping at which a level gives up; no method varies them.
    max_iterations: ClassVar[int] = 50
    eps_pose: ClassVar[float] = 1e-4
    border_margin: ClassVar[float] = 2.0
    max_damping: ClassVar[float] = 1e6

    step_norm_tol: float = 1e-6
    huber_delta: float = 2.0
    gradient_weight_const: float = 0.05
    use_gradient_weight: bool = False
    levels: tuple = (2, 1, 0)
    eps_pixel: float = 1e-3
    min_valid_points: int = 6

    def __post_init__(self):
        if self.step_norm_tol <= 0 or self.huber_delta <= 0:
            raise ValueError("tolerances must be positive")
        if list(self.levels) != sorted(self.levels, reverse=True):
            raise ValueError("levels must be ordered coarse to fine")


@dataclass
class PoseCost:
    """The robust cost at one pose, and its linearization once built.

    ``valid`` and ``point_cost`` hold, per input point, whether it projected
    inside the map and its weighted robust cost (0 where invalid); the
    solver's accept test compares them over the points valid at two poses
    and reads nothing else of a trial pose. The arrays the evaluation made
    on the way stay referenced, so ``_linearize`` builds the system without
    projecting or sampling again: every point's camera-frame position
    ``p_cam``, the indices ``idx`` of the valid points and, over those, the
    stacked ``[F | dF]`` ``samples``, the residuals ``r``, their ``norms``
    and the gradient weights ``grad_w`` (None when the method does not
    weight by gradient). They are None when too few points are valid
    (``cost`` is then inf). ``_linearize`` sets the inlier count and the
    normal equations H delta = b (``h``, ``b``, and ``h_diag`` =
    diag(diag(H)), which the damping reads).
    """

    n_valid: int
    cost: float
    valid: np.ndarray
    point_cost: np.ndarray
    p_cam: Optional[np.ndarray] = None
    idx: Optional[np.ndarray] = None
    samples: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None
    norms: Optional[np.ndarray] = None
    grad_w: Optional[np.ndarray] = None
    inlier_count: int = 0
    h: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    h_diag: Optional[np.ndarray] = None


@dataclass
class TrackResult:
    pose: SE3Pose
    converged: bool
    iterations: int
    final_residual: float
    inlier_fraction: float


def interp(feature_map: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Bilinear samples (N, D); same arithmetic as the differentiable op."""
    return T.bilinear_sample(T.Tensor(feature_map), T.Tensor(coords)).data


def map_gradient(feature_map) -> T.Tensor:
    """The map's central-difference derivative map (H, W, 2D), h = 1 px.

    Built once per map; ``pixel_gauss_newton`` samples it at the points.
    Taped when ``feature_map`` is, so training differentiates through it.
    """
    return T.central_difference(feature_map)


def _stencil_highs(map_shape):
    """The highest x and y whose +-1 px stencil stays inside the map; the lowest is ``STENCIL_MARGIN``."""
    height, width = map_shape[:2]
    return width - 1 - STENCIL_MARGIN, height - 1 - STENCIL_MARGIN


def stencil_valid(coords: np.ndarray, map_shape) -> np.ndarray:
    """Per coord (N, 2), whether its +-1 px stencil lies inside the map; NaN fails."""
    high_x, high_y = _stencil_highs(map_shape)
    xs, ys = coords[:, 0], coords[:, 1]
    return (xs >= STENCIL_MARGIN) & (xs <= high_x) & (ys >= STENCIL_MARGIN) & (ys <= high_y)


def _check_stencil(coords: np.ndarray, map_shape) -> None:
    if not stencil_valid(coords, map_shape).all():
        raise ValueError("stencil outside the map")


def draw_start_points(rng, pos_b: np.ndarray, vicinity: float, map_shape) -> np.ndarray:
    """u_b plus a uniform square jitter, clamped to the stencil-valid region."""
    offsets = rng.uniform(-vicinity, vicinity, size=pos_b.shape)
    return np.clip(pos_b + offsets, STENCIL_MARGIN, _stencil_highs(map_shape))


def pixel_gauss_newton(feature_map, grad_map, xs: np.ndarray, f_t, eps: float):
    """The per-pixel Gauss-Newton step from each start point toward f_t.

    Builds H = J^T J + eps I and b = J^T r from the residual r = F(x) - f_t
    and the central-difference derivative J (N, D, 2) at x, sampled from
    ``grad_map = map_gradient(feature_map)``, and returns the tensors
    (mu = x - H^-1 b (N, 2), H (N, 2, 2)). Taped when ``feature_map`` or
    ``f_t`` is: the training loss differentiates it, the trackers use its
    data. Raises ``ValueError`` when a start's stencil leaves the map, so
    the zero border of the derivative map is never read.
    """
    _check_stencil(xs, grad_map.shape)
    n = xs.shape[0]
    r = T.sub(T.bilinear_sample(feature_map, T.Tensor(xs)), f_t)
    jac = T.reshape(T.bilinear_sample(grad_map, T.Tensor(xs)), (n, grad_map.shape[2] // 2, 2))
    jac_t = T.transpose_last2(jac)
    eps_eye = np.broadcast_to(np.eye(2) * eps, (n, 2, 2)).copy()
    hess = T.add(T.matmul(jac_t, jac), T.Tensor(eps_eye))
    b = T.matmul(jac_t, T.reshape(r, (n, r.data.shape[1], 1)))
    mu = T.sub(T.Tensor(xs), T.reshape(T.matmul(T.inv2x2(hess), b), (n, 2)))
    return mu, hess


def huber_weight(norms: np.ndarray, delta: float) -> np.ndarray:
    """IRLS weight of the Huber cost: 1 inside delta, delta/|r| outside."""
    safe = np.maximum(norms, 1e-300)
    return np.where(norms <= delta, 1.0, delta / safe)


def huber_cost(norms: np.ndarray, delta: float) -> np.ndarray:
    return np.where(norms <= delta, norms**2, delta * (2.0 * norms - delta))


def gradient_weight(jac: np.ndarray, const: float) -> np.ndarray:
    """Down-weights high-gradient points, c^2 / (c^2 + |grad|^2)."""
    g2 = np.einsum("ndk,ndk->n", jac, jac)
    return const**2 / (const**2 + g2)


def track_pixels(feat_tgt: np.ndarray, starts: np.ndarray, f_t: np.ndarray, eps: float):
    """Batched per-pixel GN tracking on ``feat_tgt``, whose derivative map it builds once.

    Returns (final positions (N, 2), active-and-settled mask). A point
    settles once its step is shorter than ``PIXEL_STEP_TOL``, within
    ``PIXEL_MAX_ITERATIONS`` steps; points whose stencil leaves the map
    freeze where they were and report failure.
    """
    grad_tgt = map_gradient(feat_tgt).data
    x = np.asarray(starts, dtype=np.float64).copy()
    n = x.shape[0]
    alive = stencil_valid(x, feat_tgt.shape)
    settled = np.zeros(n, dtype=bool)
    for _ in range(PIXEL_MAX_ITERATIONS):
        work = alive & ~settled
        if not np.any(work):
            break
        idx = np.nonzero(work)[0]
        mu, _ = pixel_gauss_newton(feat_tgt, grad_tgt, x[idx], f_t[idx], eps)
        x_new = mu.data
        small = np.linalg.norm(x_new - x[idx], axis=1) < PIXEL_STEP_TOL
        ok = stencil_valid(x_new, feat_tgt.shape)
        x[idx[ok]] = x_new[ok]
        alive[idx[~ok]] = False
        settled[idx[ok & small]] = True
    return x, alive & settled


def _target_map(feat_tgt: np.ndarray) -> np.ndarray:
    """The stacked ``[F | dF]`` map (H, W, 3D) a pose evaluation samples.

    One gather reads a point's residual and its derivative.
    """
    return np.concatenate([feat_tgt, map_gradient(feat_tgt).data], axis=2)


def _jac_map(samples: np.ndarray, dim: int) -> np.ndarray:
    """The map derivative (N, D, 2) from stacked ``[F | dF]`` samples.

    Contiguous, as ``pixel_gauss_newton`` reads it, so the einsum and
    matmul reading it run the same kernels and give the same bits.
    """
    return np.ascontiguousarray(samples[:, dim:]).reshape(samples.shape[0], dim, 2)


def _pose_cost(target, points, f_ref, pose, intr, config: AlignmentConfig) -> PoseCost:
    """The weighted robust cost at ``pose``: one projection, one gather.

    ``target`` comes from ``_target_map``, ``points`` are the keyframe
    points back-projected in the keyframe camera and ``f_ref`` holds their
    reference descriptors.
    """
    n_points, dim = f_ref.shape
    projected, p_cam, valid = project_points(points, pose, intr, border=config.border_margin)
    point_cost = np.zeros(n_points)
    idx = valid.nonzero()[0]
    n_valid = len(idx)
    if n_valid < config.min_valid_points:
        return PoseCost(n_valid, np.inf, valid, point_cost)
    coords = projected[idx]
    _check_stencil(coords, target.shape)
    samples = T.bilinear_forward(target, coords)[0]
    r = samples[:, :dim] - f_ref[idx]
    # The bits np.linalg.norm(r, axis=1) gives.
    norms = np.sqrt(np.add.reduce(r * r, axis=1))
    costs = huber_cost(norms, config.huber_delta)
    grad_w = None
    if config.use_gradient_weight:
        grad_w = gradient_weight(_jac_map(samples, dim), config.gradient_weight_const)
        costs = grad_w * costs
    point_cost[idx] = costs
    return PoseCost(
        n_valid=n_valid,
        cost=float(costs.sum() / n_valid),
        valid=valid,
        point_cost=point_cost,
        p_cam=p_cam,
        idx=idx,
        samples=samples,
        r=r,
        norms=norms,
        grad_w=grad_w,
    )


def _linearize(at: PoseCost, intr, config: AlignmentConfig, recombined: bool = False) -> PoseCost:
    """Sets ``at.h`` and ``at.b`` to the 6x6 pose system over its valid points.

    Forms what only a linearization reads: the IRLS weights, the valid
    points' ``p_cam`` and the map derivative. Direct route: J_i = J'_i @
    dp'/dxi stacked as an (N*D, 6) matrix, then one GEMM H = J^T W J and
    one product b = -J^T W r, with each point's weight broadcast over its D
    channels. Recombined route (``recombined=True``): build each 2x2
    per-pixel system first and map it through dp'/dxi with einsum;
    algebraically identical, and the reference the direct route is tested
    against. Returns ``at``.
    """
    if not math.isfinite(at.cost):
        at.h, at.b, at.h_diag = np.zeros((6, 6)), np.zeros(6), np.zeros((6, 6))
        return at
    r = at.r
    jac_map = _jac_map(at.samples, r.shape[1])
    weights = huber_weight(at.norms, config.huber_delta)
    if at.grad_w is not None:
        weights = weights * at.grad_w
    jac_pose = projection_jacobian(at.p_cam[at.idx], intr)
    if recombined:
        h_pix = np.einsum("ndi,ndj->nij", jac_map, jac_map)
        b_pix = np.einsum("ndi,nd->ni", jac_map, r)
        h = np.einsum("n,nki,nkl,nlj->ij", weights, jac_pose, h_pix, jac_pose)
        b = -np.einsum("n,nki,nk->i", weights, jac_pose, b_pix)
    else:
        jac = jac_map @ jac_pose
        weighted = (jac * weights[:, None, None]).reshape(-1, 6)
        h = weighted.T @ jac.reshape(-1, 6)
        b = -(weighted.T @ r.ravel())
    at.inlier_count = int(np.count_nonzero(at.norms <= config.huber_delta))
    at.h, at.b = 0.5 * (h + h.T), b
    at.h_diag = np.diag(np.diag(at.h))
    return at


def build_pose_system(
    feat_ref,
    feat_tgt,
    pixels,
    inv_depths,
    pose,
    intr,
    config: AlignmentConfig,
    recombined: bool = False,
) -> PoseCost:
    """The cost record at the given pose with its 6x6 normal equations (reference sampled here)."""
    f_ref = interp(feat_ref, pixels)
    points = intr.back_project(pixels, inv_depths)
    at = _pose_cost(_target_map(feat_tgt), points, f_ref, pose, intr, config)
    return _linearize(at, intr, config, recombined)


_EYE6 = np.eye(6)


def _damped_step(system: PoseCost, lam: float):
    h = system.h + lam * system.h_diag + lam * 1e-12 * _EYE6
    try:
        return np.linalg.solve(h, system.b)
    except np.linalg.LinAlgError:
        return None


def align_pose(
    pyr_ref: Sequence[np.ndarray],
    pyr_tgt: Sequence[np.ndarray],
    pixels: np.ndarray,
    inv_depths: np.ndarray,
    init_pose: SE3Pose,
    intrinsics: CameraIntrinsics,
    config: AlignmentConfig,
) -> TrackResult:
    """Coarse-to-fine 6-DOF feature-metric alignment.

    Per level, iterate: solve (H + damping diag(H)) delta = b, propose
    exp(delta) @ pose, accept only if the weighted residual decreases
    (halving damping), otherwise raise damping tenfold. A trial pose only
    evaluates the cost; the system is linearized at the level start and at
    each accepted pose, from that pose's cost evaluation. The keyframe
    points are back-projected and their reference descriptors sampled once
    per level. Level solutions seed the next finer level.
    """
    pose = init_pose
    total_iterations = 0
    converged = False
    current: Optional[PoseCost] = None

    def probe_step(system: PoseCost):
        """The baseline-damped step of ``system`` and whether it is small enough to stop."""
        step = _damped_step(system, config.eps_pose)
        # The bits np.linalg.norm(step) gives.
        return step, step is not None and math.sqrt(step.dot(step)) < config.step_norm_tol

    for level in config.levels:
        scale = 1.0 / (2.0**level)
        level_pixels = pixels * scale
        intr = intrinsics.scaled(level)
        f_ref = interp(pyr_ref[level], level_pixels)
        points = intr.back_project(level_pixels, inv_depths)
        target = _target_map(pyr_tgt[level])
        damping = config.eps_pose
        at = _pose_cost(target, points, f_ref, pose, intr, config)
        converged = False
        if not math.isfinite(at.cost):
            continue
        # Convergence is judged on the baseline-damped ``probe`` step of
        # ``current``; escalated damping only shapes the trust step (a
        # heavily damped step is small by construction and must not fake
        # convergence).
        current = _linearize(at, intr, config)
        probe, probe_small = probe_step(current)
        for _ in range(config.max_iterations):
            total_iterations += 1
            if probe_small:
                converged = True
                break
            delta = probe if damping == config.eps_pose else _damped_step(current, damping)
            if delta is not None:
                candidate_pose = se3_exp(delta).compose(pose)
                candidate = _pose_cost(target, points, f_ref, candidate_pose, intr, config)
                # Compare weighted residuals over the points valid at BOTH
                # poses so composition changes of the valid set cannot mask
                # a genuine improvement (or fake one).
                # (Means written as sum / count, the bits np.mean gives.)
                common = (current.valid & candidate.valid).nonzero()[0]
                n_common = len(common)
                if (
                    math.isfinite(candidate.cost)
                    and n_common >= config.min_valid_points
                    and candidate.point_cost[common].sum() / n_common
                    < current.point_cost[common].sum() / n_common
                ):
                    pose = candidate_pose
                    current = _linearize(candidate, intr, config)
                    probe, probe_small = probe_step(current)
                    damping = max(damping * 0.5, config.eps_pose)
                    continue
            # A cost increase and a singular solve are both rejected steps.
            damping *= 10.0
            if damping > config.max_damping:
                break
    if current is None:
        return TrackResult(init_pose, False, total_iterations, np.inf, 0.0)
    inlier_fraction = current.inlier_count / max(1, pixels.shape[0])
    return TrackResult(
        pose=pose,
        converged=converged,
        iterations=total_iterations,
        final_residual=current.cost,
        inlier_fraction=float(inlier_fraction),
    )


def intensity_pyramid(image: np.ndarray, levels: int) -> list:
    """Pyramid of an (H, W) image by 2x2 averaging, 1-channel feature maps."""
    out = [np.asarray(image, dtype=np.float64)[:, :, None]]
    for _ in range(1, levels):
        h, w, c = out[-1].shape
        out.append(out[-1].reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3)))
    return out


def select_keyframe_points(
    image: np.ndarray,
    depth: np.ndarray,
    k: int = 512,
    spacing: int = 4,
):
    """Gradient-magnitude top-K pixel selection on an (H, W) image, with a spacing grid.

    Returns (pixels (N, 2) float, inverse depths (N,)); ``k <= 0`` selects
    none. Selection runs on the image so every tracking method sees the
    same points.
    """
    width = image.shape[1]
    grad = T.central_difference(image[:, :, None]).data
    mag = np.hypot(grad[:, :, 0], grad[:, :, 1])
    mag[:KEYFRAME_MARGIN, :] = -1.0
    mag[-KEYFRAME_MARGIN:, :] = -1.0
    mag[:, :KEYFRAME_MARGIN] = -1.0
    mag[:, -KEYFRAME_MARGIN:] = -1.0
    # Strongest first; the first pixel of each spacing cell wins.
    order = np.argsort(mag, axis=None)[::-1]
    order = order[mag.ravel()[order] > 0]
    ys, xs = np.divmod(order, width)
    cells = (ys // spacing) * (width // spacing + 1) + xs // spacing
    first = np.sort(np.unique(cells, return_index=True)[1])[: max(k, 0)]
    ys, xs = ys[first], xs[first]
    return np.stack([xs, ys], axis=1).astype(np.float64), 1.0 / depth[ys, xs]


def network_extractor(weights) -> Callable[[np.ndarray], list]:
    """Feature-pyramid closure over trained network weights.

    ``network.extract_pyramid`` is looked up at each call, so a wrapper
    installed on that module attribute sees every extraction.
    """

    def run(image: np.ndarray):
        return network.extract_pyramid(weights, image)

    return run


def intensity_extractor(levels: int) -> Callable[[np.ndarray], list]:
    def run(image: np.ndarray):
        return intensity_pyramid(image, levels)

    return run


def method_config(method: str, levels: int = 3) -> AlignmentConfig:
    """Frozen per-method solver settings.

    Intensity tracking keeps the gradient-dependent weight (image-space
    practice); learned descriptors do not need it. Scales follow the
    residual units: intensities live in [0, 1], descriptors are unbounded.
    The step tolerance sits at the measured noise floor of bilinear costs
    on the benchmark scenes; below it, probe steps stall on interpolation
    micro-structure and the flag would underreport genuine convergence.
    """
    intensity = dict(huber_delta=0.07, use_gradient_weight=True, eps_pixel=1e-6)
    return AlignmentConfig(
        levels=tuple(range(levels - 1, -1, -1)),
        step_norm_tol=3e-5,
        **(intensity if method == "intensity" else {}),
    )

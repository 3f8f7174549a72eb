"""Relocalization metrics: cumulative error curves, AUC, basin trials.

The headline metric is the cumulative distribution of the relocalization
error (translation norm between estimated and true relative pose) over a
fixed threshold grid [0, 1] in steps of 0.01 scene units (one scene unit is
declared to be one meter). Tracking failures count as infinite error, so
robustness and accuracy share one curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..alignment import AlignmentConfig, align_pose, draw_start_points, interp, select_keyframe_points, track_pixels
from ..geometry import SE3Pose
from ..losses import CorrespondenceBatch
from .dataset_io import DatasetSplit

THRESHOLD_STEP = 0.01
THRESHOLD_MAX = 1.0

# A basin trial succeeds when tracking settles this close (px) to the truth.
BASIN_SUCCESS_PX = 0.5


@dataclass
class EvalCurve:
    """Cumulative fraction of candidates within each error threshold."""

    thresholds: np.ndarray
    fraction: np.ndarray

    def __post_init__(self):
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        self.fraction = np.asarray(self.fraction, dtype=np.float64)
        if self.thresholds.shape != self.fraction.shape:
            raise ValueError("threshold/fraction grids differ")
        if np.any(np.diff(self.fraction) < 0):
            raise ValueError("cumulative curve must be nondecreasing")
        if np.any((self.fraction < 0) | (self.fraction > 1)):
            raise ValueError("fractions must lie in [0, 1]")

    def auc(self) -> float:
        """Area under the curve over the threshold range (in [0, 1])."""
        return float(np.trapezoid(self.fraction, self.thresholds) / THRESHOLD_MAX)

    def value_at(self, threshold: float) -> float:
        idx = int(round(threshold / THRESHOLD_STEP))
        return float(self.fraction[idx])


def threshold_grid() -> np.ndarray:
    n = int(round(THRESHOLD_MAX / THRESHOLD_STEP)) + 1
    return np.round(np.arange(n) * THRESHOLD_STEP, 10)


def relocalization_errors(results: Sequence) -> np.ndarray:
    """Translation-norm error per (candidate, track) pair; failures are inf."""
    errors = np.empty(len(results))
    for i, (candidate, track) in enumerate(results):
        if not track.converged:
            errors[i] = np.inf
            continue
        errors[i] = np.linalg.norm(track.pose.translation - candidate.relative_pose.translation)
    return errors


def curve_from_errors(errors: np.ndarray) -> EvalCurve:
    thresholds = threshold_grid()
    errors = np.asarray(errors, dtype=np.float64)
    fraction = np.array([(errors <= t).mean() for t in thresholds]) if errors.size else np.zeros_like(thresholds)
    return EvalCurve(thresholds, fraction)


def evaluate_relocalization(results: Sequence):
    """Builds the cumulative curve plus a scalar summary from track results."""
    if not results:
        raise ValueError("evaluate_relocalization needs at least one result")
    errors = relocalization_errors(results)
    curve = curve_from_errors(errors)
    median = float(np.median(errors))
    summary = {
        "n": len(results),
        "auc": curve.auc(),
        "success_at_0.1": curve.value_at(0.1),
        "success_at_0.5": curve.value_at(0.5),
        "success_at_1.0": curve.value_at(1.0),
        "median_error": median if np.isfinite(median) else None,
    }
    return curve, summary


def write_curve_csv(path, curve: EvalCurve) -> None:
    lines = ["threshold,fraction"]
    for t, f in zip(curve.thresholds, curve.fraction):
        lines.append(f"{t:.2f},{f:.8f}")
    Path(path).write_text("\n".join(lines) + "\n")


_SVG_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#8e44ad", "#b7950b")


def write_curves_svg(path, curves: dict) -> None:
    """Self-contained SVG line plot of one or more cumulative curves."""
    width, height = 640, 460
    ml, mr, mt, mb = 60, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    def sx(t):
        return ml + t / THRESHOLD_MAX * pw

    def sy(f):
        return mt + (1.0 - f) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        'font-family="sans-serif">relocalization accuracy</text>',
    ]
    for k in range(11):
        t = k / 10.0
        parts.append(
            f'<line x1="{sx(t):.1f}" y1="{mt}" x2="{sx(t):.1f}" y2="{mt + ph}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{ml}" y1="{sy(t):.1f}" x2="{ml + pw}" y2="{sy(t):.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{sx(t):.1f}" y="{mt + ph + 18}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{t:.1f}</text>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{sy(t) + 4:.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{t:.1f}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">relocalization error threshold (scene units)</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})" text-anchor="middle">fraction tracked</text>'
    )
    for i, (name, curve) in enumerate(curves.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points = " ".join(
            f"{sx(t):.2f},{sy(f):.2f}" for t, f in zip(curve.thresholds, curve.fraction)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = mt + 18 + 18 * i
        parts.append(
            f'<line x1="{ml + pw - 150}" y1="{ly}" x2="{ml + pw - 120}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + pw - 114}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{name} (auc {curve.auc():.3f})</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _per_frame(jobs: Sequence, frames_of: Callable, build: Callable, step: Callable) -> list:
    """``step(job, *products)`` for each job in order, one product per frame in ``frames_of(job)``.

    A frame's product is ``build(frame)``, made at the frame's first job and
    dropped after its last, so once a step returns nothing holds a product
    that no later job reads.
    """
    last = {frame: index for index, job in enumerate(jobs) for frame in frames_of(job)}
    store: dict = {}
    results = []
    for index, job in enumerate(jobs):
        frames = frames_of(job)
        for frame in frames:
            if frame not in store:
                store[frame] = build(frame)
        results.append(step(job, *[store[frame] for frame in frames]))
        for frame in frames:
            if last[frame] == index:
                store.pop(frame, None)
    return results


def run_relocalization(
    split: DatasetSplit,
    extractor: Callable[[np.ndarray], Sequence[np.ndarray]],
    config: AlignmentConfig,
    point_count: int = 512,
) -> list:
    """Tracks every candidate of a split against its reference keyframe.

    A frame's feature pyramid, and a reference frame's keyframe points, are
    computed once and dropped after the last candidate that reads them.
    Tracking always starts from identity.
    """
    references = {c.reference_frame for c in split.candidates}

    def build(frame_id):
        frame = split.frames[frame_id]
        points = select_keyframe_points(frame.image, frame.depth, k=point_count) if frame_id in references else None
        return extractor(frame.image), points

    def track(candidate, reference, target):
        pyramid, (pixels, inv_depths) = reference
        pose = SE3Pose.identity()
        return candidate, align_pose(pyramid, target[0], pixels, inv_depths, pose, split.intrinsics, config)

    return _per_frame(split.candidates, lambda c: (c.reference_frame, c.candidate_frame), build, track)


def basin_trials(
    split: DatasetSplit,
    extractor: Callable[[np.ndarray], Sequence[np.ndarray]],
    batches: Sequence[CorrespondenceBatch],
    radius: float,
    eps: float,
    seed: int,
) -> np.ndarray:
    """Per-pixel convergence-basin trials on level-0 feature maps.

    For every ground-truth match, start per-pixel GN tracking at a uniform
    square offset of the given radius around the true location and report
    per-trial success: settled within ``BASIN_SUCCESS_PX`` of the truth.
    The rng seed fixes the offsets, so different feature extractors see
    identical trials. A frame's level-0 map is dropped after the last batch
    that reads it.
    """
    rng = np.random.default_rng(seed)

    def build(frame_id):
        return extractor(split.frames[frame_id].image)[0]

    def trial(batch, feat_a, feat_b):
        f_t = interp(feat_a, batch.pos_a)
        starts = draw_start_points(rng, batch.pos_b, radius, feat_b.shape)
        final, converged = track_pixels(feat_b, starts, f_t, eps)
        err = np.linalg.norm(final - batch.pos_b, axis=1)
        return converged & (err < BASIN_SUCCESS_PX)

    outcomes = _per_frame(batches, lambda batch: (batch.frame_a, batch.frame_b), build, trial)
    return np.concatenate(outcomes) if outcomes else np.zeros(0, dtype=bool)

"""Command-line driver: generate, train, align, evaluate, gradcheck.

Exit codes: 0 ok, 1 usage error, 2 data fault, 3 numerical fault. A learned
method without its weights flag is a usage error, found before any split is
read. Path flags are read as given, relative to the working directory.
Each command echoes the full argument set and package version, so any
artifact can be reproduced byte-for-byte: ``generate`` into
``run_config.json`` in its output directory, ``evaluate`` into
``evaluate.run_config.json`` in its (an ``evaluate --out`` of the dataset
keeps ``generate``'s echo), ``train`` into ``<stem>.run_config.json`` beside
its weights.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import intensity_extractor, method_config, network_extractor
from .bench.dataset_io import read_split, write_split
from .bench.evaluate import evaluate_relocalization, run_relocalization, write_curve_csv, write_curves_svg
from .bench.scene import (
    ConditionTransform,
    SceneConfig,
    default_eval_condition,
    default_train_conditions,
    generate_scene,
    make_correspondences,
)
from .errors import DataFault, NumericalFault
from .gradcheck import run_gradcheck
from .losses import LossConfig
from .network import NetworkConfig, load_network, save_network
from .training import TrainConfig, history_csv, train_network


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _create_dir(directory: Path, flag: str) -> None:
    """Creates an output directory and its parents; failing that is a usage error of ``flag``."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"{flag}: cannot create directory {directory} ({exc.strerror or exc})") from exc


def _create_file_dir(path: Path, flag: str) -> None:
    """Creates the directory of output file ``path``; a directory at ``path`` is a usage error."""
    if path.is_dir():
        raise UsageError(f"{flag}: {path} is a directory")
    _create_dir(path.parent, flag)


def _arguments(args: argparse.Namespace) -> dict:
    """The parsed arguments as manifests and ``run_config.json`` echo them."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "command"}


def _echo_config(path: Path, args: argparse.Namespace) -> None:
    payload = {"version": __version__, "command": args.command, "arguments": _arguments(args)}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# The tracking methods ``evaluate`` compares, in report order.
METHODS = ("intensity", "features", "contrastive")

POINTS_HELP = "keyframe points per candidate; at most one per 4x4-pixel cell, so at most 256 on 64-px frames"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="featalign", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write train/val/test benchmark splits")
    gen.add_argument("--out", required=True, help="dataset root directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--frames", type=int, default=8, help="trajectory length per split")
    gen.add_argument("--size", type=int, default=64, help="image side length")
    gen.add_argument("--candidates", type=int, default=40, help="test-split candidates")
    gen.add_argument("--val-candidates", type=int, default=16)
    gen.add_argument("--pairs", type=int, default=16, help="training correspondence pairs")
    gen.add_argument("--n-pos", type=int, default=128)
    gen.add_argument("--n-neg", type=int, default=128)
    gen.add_argument("--max-frame-gap", type=int, default=5,
                     help="max trajectory-index gap between paired frames")

    tr = sub.add_parser("train", help="train descriptor network on a dataset")
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--out", required=True, help="weights file path (.gnnw)")
    tr.add_argument("--log", default=None, help="loss log CSV path (default: alongside weights)")
    tr.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    tr.add_argument("--lr", type=float, default=TrainConfig.lr,
                    help="ADAM learning rate (desk-scale default 1e-4; 1e-6 suits "
                         "much larger runs and is accepted unchanged)")
    tr.add_argument("--gn-weight", type=float, default=LossConfig.gn_weight,
                    help="weight of the Gauss-Newton loss term (0 = contrastive only)")
    tr.add_argument("--seed", type=int, default=NetworkConfig.seed)
    tr.add_argument("--descriptor-dim", type=int, default=NetworkConfig.descriptor_dim)
    tr.add_argument("--levels", type=int, default=NetworkConfig.pyramid_levels)
    tr.add_argument("--base-width", type=int, default=NetworkConfig.base_width)
    tr.add_argument("--vicinity", type=float, default=LossConfig.vicinity_radius)
    tr.add_argument("--epsilon", type=float, default=LossConfig.epsilon)
    tr.add_argument("--val-candidates", type=int, default=12,
                    help="val-split candidates relocalized once with the final weights; their "
                         "AUC is logged in the last row only; 0 disables")

    ev = sub.add_parser("evaluate", help="relocalization curves per method")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--out", required=True, help="output directory")
    ev.add_argument("--split", default="test")
    ev.add_argument("--methods", default=",".join(METHODS), help="comma list of: " + ", ".join(METHODS))
    ev.add_argument("--weights", default=None, help="trained weights (features method)")
    ev.add_argument("--contrastive-weights", default=None)
    ev.add_argument("--points", type=int, default=512, help=POINTS_HELP)
    ev.add_argument("--candidates", type=int, default=0, help="limit candidates (0 = all)")

    al = sub.add_parser("align", help="track one candidate and print the result")
    al.add_argument("--dataset", required=True)
    al.add_argument("--split", default="test")
    al.add_argument("--candidate", type=int, default=0)
    al.add_argument("--method", default="intensity", choices=("intensity", "features"))
    al.add_argument("--weights", default=None)
    al.add_argument("--points", type=int, default=512, help=POINTS_HELP)

    gc = sub.add_parser("gradcheck", help="finite-difference check of every backward rule")
    gc.add_argument("--seed", type=int, default=0)
    return parser


def cmd_generate(args) -> int:
    if args.size < 16 or args.size % 4:
        raise UsageError("--size must be >= 16 and divisible by 4")
    for flag, minimum in (("frames", 1), ("pairs", 1), ("n_pos", 1), ("seed", 0), ("candidates", 0),
                          ("val_candidates", 0), ("n_neg", 0), ("max_frame_gap", 0)):
        if getattr(args, flag) < minimum:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= {minimum}")
    root = Path(args.out)
    _create_dir(root, "--out")
    half = (args.size - 1) / 2.0
    base = dict(
        width=args.size, height=args.size, cx=half, cy=half,
        fx=45.0 * args.size / 64.0, fy=45.0 * args.size / 64.0,
        n_frames=args.frames,
    )
    val_condition = ConditionTransform(gamma=1.4, brightness=0.1, contrast=0.9, noise_sigma=0.015)
    split_configs = {
        "train": SceneConfig(**base, conditions=default_train_conditions()),
        "val": SceneConfig(**base, conditions=(val_condition,), n_candidates=args.val_candidates),
        "test": SceneConfig(**base, conditions=(default_eval_condition(),), n_candidates=args.candidates),
    }
    echo = _arguments(args)
    for index, (name, cfg) in enumerate(split_configs.items()):
        scene = generate_scene(args.seed * 10 + index, cfg)
        correspondences = None
        if name == "train":
            correspondences = _training_pairs(scene, args)
        write_split(root / name, scene, correspondences, config_echo=echo)
    _echo_config(root / "run_config.json", args)
    return 0


def _training_pairs(scene, args):
    """Deterministic pair plan: nearby indices, conditions mixed freely."""
    cfg = scene.config
    n_seq = 1 + len(cfg.conditions)
    rng = np.random.default_rng([args.seed, 99])
    batches = []
    for _ in range(args.pairs):
        fault = None
        for _attempt in range(50):
            i = int(rng.integers(0, cfg.n_frames))
            gap = int(rng.integers(0, args.max_frame_gap + 1))
            j = min(i + gap, cfg.n_frames - 1)
            seq_a = int(rng.integers(0, n_seq))
            seq_b = int(rng.integers(0, n_seq))
            frame_a = seq_a * cfg.n_frames + i
            frame_b = seq_b * cfg.n_frames + j
            if frame_a == frame_b:
                continue
            try:
                batches.append(
                    make_correspondences(
                        scene, frame_a, frame_b, args.n_pos, args.n_neg,
                        seed=int(rng.integers(0, 2**31)),
                    )
                )
                break
            except DataFault as exc:
                fault = exc
        else:
            raise DataFault(f"could not build a valid training pair plan: {fault or 'no two distinct frames drawn'}")
    return batches


def _check_tiling(split, levels: int, owner: str, fault) -> None:
    """Raises ``fault`` naming ``owner`` unless ``levels`` pyramid levels tile the images."""
    div = 2 ** (levels - 1)
    width, height = split.intrinsics.width, split.intrinsics.height
    if width % div or height % div:
        raise fault(f"{owner}: {levels} pyramid levels need image sides divisible by {div}, got {width}x{height}")


def _check_levels(split, levels: int) -> None:
    """The coarsest level must tile the image and hold every stored match.

    Level n (from 1) holds a level-0 coordinate c when c <= W - 2^(n-1):
    scaling by a power of two is exact, and ``read_split`` has rejected
    negative coordinates, so level 1 holds every match.
    """
    _check_tiling(split, levels, f"--levels {levels}", UsageError)
    width, height = split.intrinsics.width, split.intrinsics.height
    high = np.concatenate([c for b in split.correspondences for c in (b.pos_a, b.pos_b, b.neg_a, b.neg_b)]).max(axis=0)

    def holds(n):
        return np.all(high <= [width - 2 ** (n - 1), height - 2 ** (n - 1)])

    if not holds(levels):
        div = 2 ** (levels - 1)
        raise UsageError(
            f"--levels {levels}: a training match lies outside the {width // div}x{height // div} "
            f"coarsest level; the stored matches allow at most --levels {max(filter(holds, range(1, levels)))}"
        )


def cmd_train(args) -> int:
    if args.val_candidates < 0:
        raise UsageError("--val-candidates must be >= 0")
    try:
        config = TrainConfig(
            epochs=args.epochs,
            lr=args.lr,
            network=NetworkConfig(
                descriptor_dim=args.descriptor_dim,
                pyramid_levels=args.levels,
                base_width=args.base_width,
                seed=args.seed,
            ),
            loss=LossConfig(
                gn_weight=args.gn_weight,
                vicinity_radius=args.vicinity,
                epsilon=args.epsilon,
            ),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dataset = Path(args.dataset)
    train_split = read_split(dataset / "train")
    if not train_split.correspondences:
        raise DataFault(f"{dataset / 'train'}: split carries no correspondences")
    _check_levels(train_split, args.levels)
    val_split = None
    if args.val_candidates > 0 and (dataset / "val" / "manifest.json").exists():
        val_split = read_split(dataset / "val")
        _check_tiling(val_split, args.levels, dataset / "val", DataFault)
        val_split.candidates = val_split.candidates[: args.val_candidates]
    # Training takes minutes, so the outputs' place is made first.
    out = Path(args.out)
    log_path = Path(args.log) if args.log else out.with_suffix(".log.csv")
    _create_file_dir(out, "--out")
    _create_file_dir(log_path, "--log" if args.log else "--out")
    weights, history = train_network(train_split, val_split, config)
    save_network(out, weights)
    log_path.write_text(history_csv(history))
    _echo_config(out.with_suffix(".run_config.json"), args)
    return 0


# Pyramid levels of the intensity method, which has no weights file to say.
INTENSITY_LEVELS = 3


def _weights_path(method: str, args):
    """The weights file of ``method``, None for intensity; a missing weights flag is a usage error."""
    if method == "intensity":
        return None
    flag = "--weights" if method == "features" else "--contrastive-weights"
    path = getattr(args, flag[2:].replace("-", "_"))
    if not path:
        raise UsageError(f"method '{method}' needs {flag}")
    return path


def _method(method: str, path, split):
    """The pyramid extractor and solver settings of ``method`` (weights file ``path``), once they fit the split."""
    if method == "intensity":
        _check_tiling(split, INTENSITY_LEVELS, "intensity method", DataFault)
        return intensity_extractor(INTENSITY_LEVELS), method_config(method, INTENSITY_LEVELS)
    weights = load_network(path)
    _check_tiling(split, weights.config.pyramid_levels, path, DataFault)
    return network_extractor(weights), method_config("features", weights.config.pyramid_levels)


def cmd_evaluate(args) -> int:
    if args.points < 1:
        raise UsageError("--points must be >= 1")
    if args.candidates < 0:
        raise UsageError("--candidates must be >= 0")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods names no method")
    if len(set(methods)) < len(methods):
        raise UsageError(f"--methods names a method twice: {args.methods}")
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise UsageError(f"unknown methods: {sorted(unknown)}")
    paths = {method: _weights_path(method, args) for method in methods}
    split = read_split(Path(args.dataset) / args.split)
    if args.candidates > 0:
        split.candidates = split.candidates[: args.candidates]
    if not split.candidates:
        raise DataFault(f"split '{args.split}' has no relocalization candidates")
    resolved = {method: _method(method, path, split) for method, path in paths.items()}
    out = Path(args.out)
    _create_dir(out, "--out")
    curves = {}
    summaries = {}
    for method, (extractor, config) in resolved.items():
        results = run_relocalization(split, extractor, config, point_count=args.points)
        curve, summary = evaluate_relocalization(results)
        curves[method] = curve
        summaries[method] = summary
        write_curve_csv(out / f"curve_{method}.csv", curve)
    write_curves_svg(out / "curves.svg", curves)
    (out / "summary.json").write_text(json.dumps(summaries, indent=1, sort_keys=True) + "\n")
    _echo_config(out / "evaluate.run_config.json", args)
    return 0


def cmd_align(args) -> int:
    if args.points < 1:
        raise UsageError("--points must be >= 1")
    path = _weights_path(args.method, args)
    split = read_split(Path(args.dataset) / args.split)
    if not split.candidates:
        raise DataFault(f"split '{args.split}' has no relocalization candidates")
    if not (0 <= args.candidate < len(split.candidates)):
        raise UsageError(f"--candidate must be in [0, {len(split.candidates)})")
    candidate = split.candidates[args.candidate]
    split.candidates = [candidate]
    extractor, config = _method(args.method, path, split)
    [(_, result)] = run_relocalization(split, extractor, config, point_count=args.points)
    err = float(np.linalg.norm(result.pose.translation - candidate.relative_pose.translation))
    print(
        json.dumps(
            {
                "candidate": args.candidate,
                "method": args.method,
                "converged": result.converged,
                "iterations": result.iterations,
                "final_residual": result.final_residual if np.isfinite(result.final_residual) else None,
                "inlier_fraction": result.inlier_fraction,
                "pose": [float(v) for v in result.pose.matrix().reshape(-1)],
                "translation_error": err,
            },
            indent=1,
            sort_keys=True,
            allow_nan=False,
        )
    )
    return 0


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    reports = run_gradcheck(args.seed)
    width = max(len(r.name) for r in reports)
    failed = False
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max rel err {r.max_relative_error:.3e}  {status}")
        failed |= not r.passed
    if failed:
        raise NumericalFault("gradient check failed; see per-block report above")
    print("all gradient checks passed")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "align": cmd_align,
    "gradcheck": cmd_gradcheck,
}


# glibc's mallopt parameters (malloc.h) and the values ``main`` sets.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 1 << 30


def keep_freed_heap() -> None:
    """Keeps freed memory in the process instead of handing it back to the kernel.

    Every candidate and training step frees its large temporaries (pyramid
    levels, conv work matrices, tape activations) and allocates them again
    at once; glibc would trim them off the heap top or unmap them, and the
    next allocation would fault every page in again. Both thresholds are set
    because setting either turns off glibc's dynamic ones: a trim threshold
    alone would put every array above 128 KiB on a fresh mmap. The
    ``MALLOC_*_`` environment variables are read only at process start, so
    the command line sets the values itself; programs that import the
    library keep their allocator. A C library without ``mallopt`` is left
    as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no dlopen(NULL), or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataFault as exc:
        print(f"data fault: {exc}", file=sys.stderr)
        return 2
    except NumericalFault as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""featalign: learned dense descriptors for direct feature-metric alignment.

The package trains a small Siamese encoder-decoder with a pixelwise
contrastive loss plus a probabilistic Gauss-Newton loss, then uses the
resulting multi-channel feature pyramids for per-pixel and 6-DOF direct
alignment, evaluated on a self-generated synthetic relocalization-tracking
benchmark.
"""

__version__ = "0.1.0"

from .errors import ChecksumFault, DataFault, FormatVersionFault, NumericalFault, TruncatedFileFault
from .geometry import CameraIntrinsics, SE3Pose, se3_exp, se3_log

__all__ = [
    "CameraIntrinsics",
    "ChecksumFault",
    "DataFault",
    "FormatVersionFault",
    "NumericalFault",
    "SE3Pose",
    "TruncatedFileFault",
    "se3_exp",
    "se3_log",
    "__version__",
]


def __getattr__(name):
    # Heavier surfaces import lazily so `import featalign` stays light.
    if name in ("NetworkConfig", "NetworkWeights", "build_network", "extract_pyramid"):
        from . import network

        return getattr(network, name)
    if name in ("LossConfig", "CorrespondenceBatch", "contrastive_loss", "gauss_newton_loss", "total_loss"):
        from . import losses

        return getattr(losses, name)
    if name in ("AlignmentConfig", "TrackResult", "align_pose"):
        from . import alignment

        return getattr(alignment, name)
    raise AttributeError(f"module 'featalign' has no attribute {name!r}")

"""featalign: learned dense descriptors for direct feature-metric alignment.

The package trains a small Siamese encoder-decoder with a pixelwise
contrastive loss plus a probabilistic Gauss-Newton loss, then uses the
resulting multi-channel feature pyramids for per-pixel and 6-DOF direct
alignment, evaluated on a self-generated synthetic relocalization-tracking
benchmark.
"""

__version__ = "0.1.0"

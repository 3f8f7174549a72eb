"""Fault taxonomy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, DataFault exits 2,
NumericalFault exits 3; one type per code.
"""


class DataFault(Exception):
    """A dataset or file on disk is missing, malformed, truncated, or inconsistent."""


class NumericalFault(Exception):
    """A numerical invariant was violated (NaN loss, singular system, ...)."""

"""Fault taxonomy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, DataFault exits 2,
NumericalFault exits 3; one type per code.
"""

from pathlib import Path


class DataFault(Exception):
    """A dataset or file on disk is missing, malformed, truncated, or inconsistent."""


class NumericalFault(Exception):
    """A numerical invariant was violated (NaN loss, singular system, ...)."""


def read_input(path) -> bytes:
    """The bytes of an input file; one that cannot be read is a DataFault naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataFault(f"{path}: cannot read ({exc.strerror or exc})") from exc

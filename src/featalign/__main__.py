"""``python -m featalign`` and the ``featalign`` console script.

``main`` pins BLAS and OpenMP to one thread before numpy is imported: the
solver's small GEMMs and the training convolutions run slower with more (a
training step takes about 180 ms with two OpenBLAS threads against 120 ms
with one). A count the caller set is kept.
"""

import os

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main() -> None:
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import entry  # numpy loads here, after the pins

    entry()


if __name__ == "__main__":
    main()

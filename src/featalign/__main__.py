"""``python -m featalign`` and the ``featalign`` console script.

``main`` pins BLAS and OpenMP to one thread before numpy is imported: neither
the solver's small GEMMs nor training gain anything reliable from more (on a
2-vCPU Xeon VM with OpenBLAS 0.3.31, a relocalization with 8-D features takes
21-33 ms per candidate with one thread against 22-40 ms with two, medians 28
and 26 ms over 16 alternating runs each, and a training step 44-49 ms
against 37-58 ms). A count the caller set is kept.
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

"""The command line, as `python -m antfis` and the `antfis` script.

BLAS starts its threads when numpy loads, one per CPU by default, and the
forked workers of a train or a sweep would then over-subscribe the CPUs.
So unless the user set them, the thread counts of OpenBLAS, OpenMP and
MKL are set to 1 before the command, and with it numpy, is imported.
"""

import os

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _main() -> None:
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main
    main()


if __name__ == "__main__":
    _main()

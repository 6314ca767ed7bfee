"""Thread-count control. Must be imported before numpy so the BLAS layer
sees the environment variables at load time."""

import os


def configure_threads():
    n = os.environ.get("MESHWAVE_THREADS")
    if not n:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        # explicit user settings win over the umbrella variable
        os.environ.setdefault(var, n)


configure_threads()

"""Pin the BLAS thread pools to one thread before numpy loads them.

The matrix-model sampler's LAPACK calls stall under OpenBLAS's default
thread count on a small shared machine.  setdefault keeps a value the
caller set in the environment."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

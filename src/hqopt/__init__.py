"""Homogeneous quadratic optimization via semidefinite relaxation and rounding."""

import os

# One BLAS thread per process unless the caller sets otherwise: the
# relaxations are too small to gain from BLAS threads, a sweep's forked
# workers would oversubscribe the cores, and a threaded BLAS may round a
# product differently.  Set before any submodule imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

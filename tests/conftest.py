"""Test-session set-up: one BLAS thread unless the caller chose otherwise.

The oracle runs many small eigensolves, which a multithreaded BLAS only
slows down, and badly so on a loaded machine.  The thread count is read
when numpy first loads, so it is set here, before any test module imports
numpy.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

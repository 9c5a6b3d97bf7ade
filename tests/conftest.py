"""Runs each test's BLAS on one thread.

Two test runs side by side, or a test beside other BLAS work, otherwise
oversubscribe the cores with OpenBLAS threads: on a 2-core machine,
test_cayley_angles_match_eigvals_at_large_n took 34 s beside a second run
with the library's default threads and 3.5 s with one.  OpenBLAS reads the
variables when numpy loads, which is after this file; a value already set
is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

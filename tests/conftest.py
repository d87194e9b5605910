"""Test-session set-up.

One BLAS thread, set before numpy is first imported: on a two-core host
OpenBLAS's second thread adds CPU time without shortening the small matrix
products these tests run. An explicit setting in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

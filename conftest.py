"""Pins BLAS to one thread for the whole suite, before numpy loads.

The README's result table and every recorded hash are stated for one BLAS
thread, and two OpenBLAS pools on a small machine contend for its cores. A
test that needs another count starts a process with its own environment.
"""

import os
import sys

if "numpy" in sys.modules:  # a plugin loaded it first: the pool is sized, the pin would not hold
    raise RuntimeError("numpy was imported before the root conftest could pin BLAS threads")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

"""Test configuration: one BLAS thread unless the environment sets one.

Set here, before any test module imports numpy, as ``pappa/__init__.py``
does for the package.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

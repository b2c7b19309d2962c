"""Test-session setup.

Pin BLAS to one thread before numpy is first imported: the suite's small
dense matrices run faster on one thread than split across cores. A
value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

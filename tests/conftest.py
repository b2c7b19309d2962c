"""Test-session setup.

Pin BLAS to one thread before numpy is first imported: the suite's small
dense matrices run faster on one thread than split across cores. A
value already set in the environment wins. Every test starts with an
empty ``expm`` memo, so no test sees another test's exponentials.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from nhdyn.linalg import _expm_exact  # noqa: E402  (imports numpy: after the pins)


@pytest.fixture(autouse=True)
def _fresh_expm_memo():
    _expm_exact.cache_clear()

"""Test-session setup.

Pin BLAS to one thread before numpy is first imported: the suite's small
dense matrices run faster on one thread than split across cores. A
value already set in the environment wins. Every test starts with empty
``expm`` and ``eig_general`` memos, so no test sees another test's
exponentials or eigensolves.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the pins)

from nhdyn.linalg import _eig_exact, _expm_exact  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_memos():
    _expm_exact.cache_clear()
    _eig_exact.cache_clear()


@pytest.fixture
def failing_eigensolver(monkeypatch):
    """LAPACK's eigensolver fails from here on, so ``eig_general`` raises
    ``EigensolverError`` (and its memo keeps that) and ``exact_trajectory`` on a bare
    matrix takes ``expm`` anchors: the route a test of those anchors pins."""

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)

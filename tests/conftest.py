"""Test-session setup.

Pin BLAS to one thread before numpy is first imported: the suite's small
dense matrices run faster on one thread than split across cores. A
value already set in the environment wins. Every test starts with empty
``expm`` and ``eig_general`` memos, so no test sees another test's
exponentials or eigensolves.
"""

import contextlib
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


@contextlib.contextmanager
def eigensolver_fails():
    """Within the block LAPACK's eigensolver fails and the ``eig_general`` memo starts and
    ends empty, so ``eig_general`` raises ``EigensolverError`` on every H. The one way to
    pin the fallback routes on a well-conditioned H, since every route is picked from H
    alone: ``exact_trajectory`` takes ``expm`` anchors, ``gamma_series`` the term route
    and ``gamma_symmetry_basis`` the Schur route. A ``@given`` example enters it itself."""

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    _eig_exact.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eig", fail)
        yield
    _eig_exact.cache_clear()


@pytest.fixture
def failing_eigensolver():
    """``eigensolver_fails`` from here on: taken as an argument, for the whole test; through
    ``request.getfixturevalue``, from that line on, after the eigensolves the test needs."""
    with eigensolver_fails():
        yield


def _route(request, fallback: str) -> str:
    if request.param == fallback:
        request.getfixturevalue("failing_eigensolver")
    return request.param


@pytest.fixture(params=["eig", "terms"])
def series_route(request):
    """Each route of ``gamma_series`` on a well-conditioned H: "eig" as H gives it, "terms"
    under ``failing_eigensolver``. The test asserts that the route it names is taken."""
    return _route(request, "terms")


@pytest.fixture(params=["eig", "schur"])
def basis_route(request):
    """Each route of ``gamma_symmetry_basis`` on a well-conditioned H, as ``series_route``."""
    return _route(request, "schur")

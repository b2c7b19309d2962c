"""Seeded random matrices with controlled spectra and conditioning.

Test Hamiltonians come in three regimes: Hermitian, non-Hermitian with a
real spectrum, and non-Hermitian with genuinely complex eigenvalues.
All are built as V diag(spectrum) V^{-1} where V mixes a Haar-random
unitary with a diagonal stretch, so the eigenvector condition number is
set explicitly instead of left to chance.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericRangeError
from .linalg import check_integer, check_tolerance


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (1.0 / np.sqrt(2 * dim)) * m


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _distinct_reals(dim: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    # uniform with a guaranteed gap of scale/(4 dim), over a span 2 scale that must be finite
    if not 2.0 * scale < np.inf:
        raise NumericRangeError(f"scale {scale:.3e} puts the spectrum past the float range")
    base = np.linspace(-scale, scale, dim)
    jitter = rng.uniform(-0.1, 0.1, size=dim) * (2 * scale / max(dim - 1, 1))
    return np.sort(base + jitter)


def random_hamiltonian(
    dim: int,
    rng: np.random.Generator,
    kind: str = "real_spectrum",
    scale: float = 1.0,
    basis_stretch: float = 2.0,
) -> np.ndarray:
    """Random Hamiltonian of one of the three spectral regimes.

    ``dim`` is an integer >= 2. ``kind`` is one of ``hermitian``,
    ``real_spectrum`` (non-Hermitian with distinct real eigenvalues) or
    ``complex_spectrum``. ``scale`` bounds the eigenvalues' parts and
    ``basis_stretch`` sets the diagonal stretch of the eigenbasis, hence
    roughly its condition number (a stretch s < 1 spreads as 1/s does); it
    is ignored for ``hermitian``. Both are finite numbers > 0 (``check_tolerance``); an H
    they put past the float range raises ``NumericRangeError``.
    """
    dim = check_integer(dim, "dim", 2)
    scale = check_tolerance(scale, "scale")
    basis_stretch = check_tolerance(basis_stretch, "basis_stretch")
    if kind == "hermitian":
        values = _distinct_reals(dim, rng, scale)
        u = haar_unitary(dim, rng)
        return u @ np.diag(values).astype(complex) @ u.conj().T

    if kind == "real_spectrum":
        values = _distinct_reals(dim, rng, scale).astype(complex)
    elif kind == "complex_spectrum":
        values = _distinct_reals(dim, rng, scale) + 1j * rng.uniform(
            -scale, scale, size=dim
        )
    else:
        raise ConfigError(f"unknown Hamiltonian kind {kind!r}")

    # log s * U rather than uniform(0, log s), which refuses s < 1; same bits for s >= 1
    stretch = np.exp(np.log(basis_stretch) * rng.uniform(0.0, 1.0, size=dim))
    v = haar_unitary(dim, rng) @ np.diag(stretch) @ haar_unitary(dim, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite H raises below
        h = v @ np.diag(values) @ np.linalg.inv(v)
    if not np.isfinite(h).all():
        raise NumericRangeError(f"scale {scale:.3e} and basis_stretch put H past the float range")
    return h

"""Seeded inputs for the nhdyn benchmark.

Everything here uses numpy only and never imports nhdyn, so a change to
the library cannot change what the benchmark feeds it. Each job draws
from its own generator, seeded by ``(workload seed, job index)``, so job
``j`` of a run gets the same inputs whatever ran before it.

Hamiltonians are built as ``V J V^{-1}`` from a known Jordan form ``J``.
The construction records the eigenvalues and Jordan block sizes, which
fix the dimension of the gamma-symmetry space exactly: the solutions of
``H^† X = X H`` number ``sum min(p_i, p_j)`` over block pairs with
``conj(l_i) = l_j`` (the Frobenius count for ``A X = X B``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DENSE_KINDS = ("hermitian", "real_spectrum", "complex_spectrum")
SCAN_SPECTRA = ("hermitian", "real", "conj_closed", "generic_complex", "jordan")


def job_rng(seed: int, job: int) -> np.random.Generator:
    return np.random.default_rng([seed, job])


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def distinct_reals(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted values in [-1, 1] with neighbours at least 1.6/(n-1) apart."""
    base = np.linspace(-1.0, 1.0, n)
    return np.sort(base + rng.uniform(-0.2, 0.2, size=n) / max(n - 1, 1))


@dataclass(frozen=True)
class Built:
    """A Hamiltonian with the Jordan data it was built from."""

    h: np.ndarray
    eigenvalues: np.ndarray  # one entry per Jordan block
    blocks: tuple[int, ...]
    real_spectrum: bool

    @property
    def diagonalizable(self) -> bool:
        return all(p == 1 for p in self.blocks)

    @property
    def symmetry_dimension(self) -> int:
        return symmetry_dimension(self.eigenvalues, self.blocks)


def symmetry_dimension(eigenvalues, blocks, tol: float = 1e-9) -> int:
    """Dimension of {X : H^† X = X H} for H with the given Jordan data."""
    lam = np.asarray(eigenvalues, dtype=complex)
    size = np.asarray(blocks)
    match = np.abs(lam.conj()[:, None] - lam[None, :]) <= tol
    return int(np.minimum(size[:, None], size[None, :])[match].sum())


def _similar(values: np.ndarray, rng: np.random.Generator, stretch: float) -> np.ndarray:
    n = values.size
    scales = np.exp(rng.uniform(0.0, np.log(stretch), size=n))
    v = haar_unitary(n, rng) @ np.diag(scales) @ haar_unitary(n, rng)
    return v @ np.diag(values) @ np.linalg.inv(v)


def build_hamiltonian(
    kind: str, n: int, rng: np.random.Generator, stretch: float = 2.0
) -> Built:
    """One Hamiltonian of the named spectral kind.

    ``hermitian``, ``real_spectrum``/``real`` and ``complex_spectrum``
    follow the library's ensembles (distinct eigenvalues, eigenbasis
    stretch set by ``stretch``). ``conj_closed`` pairs every eigenvalue
    with its conjugate, ``generic_complex`` keeps all imaginary parts
    positive so no conjugate pair exists, and ``jordan`` is built from
    n/2 Jordan blocks of size 2 on distinct real eigenvalues.
    """
    if kind == "hermitian":
        values = distinct_reals(n, rng)
        u = haar_unitary(n, rng)
        h = (u * values) @ u.conj().T
        return Built(h, values.astype(complex), (1,) * n, True)
    if kind in ("real_spectrum", "real"):
        values = distinct_reals(n, rng).astype(complex)
        return Built(_similar(values, rng, stretch), values, (1,) * n, True)
    if kind == "complex_spectrum":
        values = distinct_reals(n, rng) + 1j * rng.uniform(-1.0, 1.0, size=n)
        return Built(_similar(values, rng, stretch), values, (1,) * n, False)
    if kind == "conj_closed":
        half = distinct_reals(n // 2, rng) + 1j * rng.uniform(0.2, 1.0, size=n // 2)
        values = np.concatenate([half, half.conj()])
        return Built(_similar(values, rng, stretch), values, (1,) * n, False)
    if kind == "generic_complex":
        values = distinct_reals(n, rng) + 1j * rng.uniform(0.2, 1.0, size=n)
        return Built(_similar(values, rng, stretch), values, (1,) * n, False)
    if kind == "jordan":
        mu = distinct_reals(n // 2, rng)
        j = np.diag(np.repeat(mu, 2)).astype(complex)
        j[np.arange(0, n - 1, 2), np.arange(1, n, 2)] = 0.5
        scales = np.exp(rng.uniform(0.0, np.log(stretch), size=n))
        v = haar_unitary(n, rng) @ np.diag(scales) @ haar_unitary(n, rng)
        h = v @ j @ np.linalg.inv(v)
        return Built(h, mu.astype(complex), (2,) * (n // 2), True)
    raise ValueError(f"unknown kind {kind!r}")


def fermion_symmetry_dimension() -> int:
    """Symmetry dimension of the fermion_dm Hamiltonian, for any couplings.

    With c = (lam b2 + mu b3)/g and g = sqrt(lam^2 + mu^2), H = g b1^† c
    moves one particle from mode c into mode 1. It is nonzero on exactly
    the two basis states with mode 1 empty and c filled (mode d, the
    partner of c, free), and H^2 = 0. So its Jordan form on the
    8-dimensional space is two 2-blocks and four 1-blocks at eigenvalue 0.
    """
    return symmetry_dimension(np.zeros(6), (2, 2, 1, 1, 1, 1))


def fermion_occupations(lam: float, mu: float, label: str, t: np.ndarray):
    """Closed-form (n1, n2, n3) on the two analytically solved labels.

    psi(t) = (1 - iHt) psi0 because H^2 = 0. From |011>, H moves the
    mode-2 particle (amplitude lam) or the mode-3 particle (amplitude mu)
    into mode 1; from |010> only the lam branch exists.
    """
    l2, m2 = lam * lam, mu * mu
    if label == "011":
        den = 1.0 + (l2 + m2) * t**2
        return (l2 + m2) * t**2 / den, (1.0 + m2 * t**2) / den, (1.0 + l2 * t**2) / den
    if label == "010":
        den = 1.0 + l2 * t**2
        return l2 * t**2 / den, 1.0 / den, np.zeros_like(t)
    raise ValueError(f"no closed form for label {label!r}")


def matrix_json(m: np.ndarray) -> list:
    """A complex matrix as nested [re, im] pairs, the scenario format."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def vector_json(v: np.ndarray) -> list:
    return np.stack([v.real, v.imag], axis=-1).tolist()

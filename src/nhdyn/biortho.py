"""Biorthogonal eigensystems and metric operators.

For a Hamiltonian H with N distinct eigenvalues the right eigenvectors
phi_k of H (the columns of Phi) have a unique dual family psi_k with
<phi_k, psi_l> = delta_kl, the columns of inv(Phi)^†. Each psi_k is a
right eigenvector of H-dagger with eigenvalue conj(E_k), so one
eigensolve of H yields both families. The rank-one sums

    S_phi = sum_k |phi_k><phi_k|      S_psi = sum_k |psi_k><psi_k|

are Hermitian, positive definite, mutually inverse, map one family onto
the other, and intertwine H with its adjoint:

    S_psi H = H^† S_psi           S_phi H^† = H S_phi

Gauge convention: each phi_k keeps unit Euclidean norm and psi_k absorbs
the normalization scale, which pins the one free parameter per pair and
makes results reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BiorthogonalityError, DegenerateSpectrumError
from .linalg import Spectrum, as_square_matrix, eig_general

DEFAULT_TOL_DISTINCT = 1e-8
DEFAULT_TOL_BIORTHO = 1e-10


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Paired eigenvector families of H and H-dagger with metric operators.

    ``phi`` and ``psi`` hold the eigenvector families as columns, ordered
    to match ``eigenvalues``. ``real_spectrum`` is False when some
    eigenvalue has a non-negligible imaginary part (psi_k is then an
    eigenvector of H-dagger for conj(E_k)).
    """

    dim: int
    eigenvalues: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    s_phi: np.ndarray
    s_psi: np.ndarray
    real_spectrum: bool
    condition_estimate: float
    biortho_residual: float


def build_biorthogonal(h, tol_distinct: float = DEFAULT_TOL_DISTINCT) -> BiorthogonalSystem:
    """Construct the biorthogonal eigensystem and metric operators of ``h``, a
    Hamiltonian or its ``Spectrum``, whose eigensolve and 2-norm |H| are reused.

    Eigenvalues must be pairwise separated by ``tol_distinct * |H|``;
    collisions raise ``DegenerateSpectrumError`` naming the first pair
    (nilpotent Hamiltonians land here by design). A spectrum with complex
    eigenvalues is accepted and recorded as ``real_spectrum = False``, since
    the dual family still exists (psi_k then carries conj(E_k) as an
    eigenvector of H^†).

    Raises ``BiorthogonalityError`` when the eigenvector matrix cannot be
    inverted or the assembled system violates the defining identities
    beyond ``DEFAULT_TOL_BIORTHO`` (or by a non-finite amount), which
    happens only for severely ill-conditioned eigenbases.
    """
    decomp = h if isinstance(h, Spectrum) else eig_general(as_square_matrix(h, "hamiltonian"))
    n = decomp.matrix.shape[0]
    scale = max(decomp.norm, np.finfo(float).tiny)
    values, phi = decomp.eigenvalues, decomp.right_vectors

    gaps = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(gaps, np.inf)
    j, k = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[j, k] <= tol_distinct * scale:
        raise DegenerateSpectrumError(
            f"eigenvalues E_{j + 1}={values[j]:.6g} and E_{k + 1}={values[k]:.6g} "
            f"collide within {tol_distinct:.1e} * |H|"
        )

    real_spectrum = bool(np.max(np.abs(values.imag)) <= tol_distinct * scale)

    # the dual family is unique once phi is fixed: psi^† phi = 1
    try:
        psi = np.linalg.inv(phi).conj().T
    except np.linalg.LinAlgError as exc:
        raise BiorthogonalityError(
            f"eigenvector matrix is singular; eigenbasis condition "
            f"{decomp.condition_estimate:.3e}"
        ) from exc

    s_phi = phi @ phi.conj().T
    s_psi = psi @ psi.conj().T

    gram = phi.conj().T @ psi
    residual = float(
        max(
            np.abs(gram - np.eye(n)).max(),
            np.abs(phi @ psi.conj().T - np.eye(n)).max(),
            np.abs(s_phi @ s_psi - np.eye(n)).max(),
        )
    )
    if not residual <= DEFAULT_TOL_BIORTHO:  # also rejects NaN
        raise BiorthogonalityError(
            f"biorthogonality residual {residual:.3e} exceeds "
            f"{DEFAULT_TOL_BIORTHO:.1e}; eigenbasis condition "
            f"{decomp.condition_estimate:.3e}"
        )

    return BiorthogonalSystem(
        dim=n,
        eigenvalues=values,
        phi=phi,
        psi=psi,
        s_phi=s_phi,
        s_psi=s_psi,
        real_spectrum=real_spectrum,
        condition_estimate=decomp.condition_estimate,
        biortho_residual=residual,
    )


def verify_intertwining(system: BiorthogonalSystem, h) -> tuple[float, float]:
    """Residuals of the two metric intertwining relations.

    Returns ``(|S_psi H - H^† S_psi|_F, |S_phi H^† - H S_phi|_F)``, each
    divided by ``|H|_F * |S|_F``. Both stay below ~1e-9 for
    well-conditioned systems.
    """
    hm = as_square_matrix(h, "hamiltonian", system.dim)
    hd = hm.conj().T
    h_scale = max(float(np.linalg.norm(hm)), np.finfo(float).tiny)

    r_psi = np.linalg.norm(system.s_psi @ hm - hd @ system.s_psi) / (
        h_scale * np.linalg.norm(system.s_psi)
    )
    r_phi = np.linalg.norm(system.s_phi @ hd - hm @ system.s_phi) / (
        h_scale * np.linalg.norm(system.s_phi)
    )
    return float(r_psi), float(r_phi)

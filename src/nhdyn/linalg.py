"""Dense complex linear-algebra kernels used by every other module.

All operations work on plain ``numpy.ndarray`` values with dtype
``complex128``; validation helpers promote and check inputs once at the
boundary. Matrices are desk-scale (N <= 64), so everything is dense and
the heavy lifting is delegated to LAPACK via numpy/scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConfigError,
    DimensionError,
    EigensolverError,
    NumericRangeError,
)

DEFAULT_RANK_TOL = 1e-10
DEFAULT_EIG_TOL = 1e-10


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and promote ``a`` to a 2-D complex128 array.

    Raises ``DimensionError`` for non-2-D input and ``NumericRangeError``
    if any entry is NaN or infinite.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise NumericRangeError(f"{name} contains non-finite entries")
    return m


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def as_state_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and promote ``v`` to a 1-D complex128 array."""
    w = np.asarray(v, dtype=complex).reshape(-1)
    if w.size == 0:
        raise DimensionError(f"{name} is empty")
    if not np.isfinite(w).all():
        raise NumericRangeError(f"{name} contains non-finite entries")
    if dim is not None and w.size != dim:
        raise DimensionError(f"{name} has length {w.size}, expected {dim}")
    return w


def op_norm(a) -> float:
    """Induced 2-norm (largest singular value)."""
    m = as_complex_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def mean_values(op: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<v, op v> for every row v of ``states``, as one BLAS product."""
    return ((states.conj() @ op) * states).sum(axis=1)


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def expm(a) -> np.ndarray:
    """Matrix exponential of a square complex matrix.

    Scaling-and-squaring with a Pade approximant (LAPACK-backed), good to
    ~1e-13 relative backward error over the norms used in this package.
    """
    m = as_square_matrix(a, "expm argument")
    with np.errstate(over="ignore", invalid="ignore"):
        e = scipy.linalg.expm(m)
    if not np.isfinite(e).all():
        raise NumericRangeError(
            f"expm overflowed for input with op norm {op_norm(m):.3e}"
        )
    return e


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``(T, Q)``: a = Q T Q^† with T upper triangular, Q unitary."""
    return scipy.linalg.schur(as_square_matrix(a, "schur argument"), output="complex")


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of a general complex matrix.

    ``right_vectors`` holds unit-norm eigenvectors as columns, ordered to
    match ``eigenvalues`` (sorted by real part, then imaginary part).
    ``condition_estimate`` is the condition number of the eigenvector
    matrix; a large value signals a defective or near-defective input.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    condition_estimate: float


def eig_general(a, tol_eig: float = DEFAULT_EIG_TOL) -> Spectrum:
    """Eigenvalues and unit right eigenvectors of a general complex matrix.

    Each pair satisfies ``|A v - l v| <= tol_eig * |A| * |v|``; violations
    raise ``EigensolverError`` with the worst residual. Defective inputs
    are not rejected, they surface through ``condition_estimate``.
    """
    m = as_square_matrix(a, "eig_general argument")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}") from exc

    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)

    scale = op_norm(m)
    residuals = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > tol_eig * max(scale, 1e-300):
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds {tol_eig:.1e} * |A| = "
            f"{tol_eig * scale:.3e}"
        )

    try:
        cond = float(np.linalg.cond(vectors))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond):
        cond = float(1.0 / np.finfo(float).eps)
    return Spectrum(eigenvalues=values, right_vectors=vectors, condition_estimate=cond)


def nullspace(l, rank_tol_rel: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of a rectangular matrix.

    Returns the right singular vectors whose singular values fall below
    ``rank_tol_rel * sigma_max``, as columns; a full-rank input yields a
    matrix with zero columns.
    """
    m = as_complex_matrix(l, "nullspace argument")
    if not 0.0 < rank_tol_rel < 1.0:
        raise ConfigError(f"rank_tol_rel must lie in (0, 1), got {rank_tol_rel}")
    cols = m.shape[1]
    _, sigma, vh = np.linalg.svd(m, full_matrices=True)
    # pad so every right singular vector has a singular value (0 beyond rank)
    sigma = np.concatenate([sigma, np.zeros(cols - sigma.size)])
    if sigma[0] == 0.0:
        return np.eye(cols, dtype=complex)
    keep = sigma <= rank_tol_rel * sigma[0]
    return vh[keep, :].conj().T.reshape(cols, -1)


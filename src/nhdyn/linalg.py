"""Dense complex linear-algebra kernels used by every other module.

All operations work on plain ``numpy.ndarray`` values with dtype
``complex128``; validation helpers promote and check inputs once at the
boundary. Matrices are desk-scale (N <= 64), so everything is dense. The
exponential is scaling and squaring with Pade approximants (Al-Mohy &
Higham 2009) written in numpy; eigen- and singular-value problems go to
LAPACK through numpy. The complex Schur form, which numpy lacks, is
imported inside ``schur`` on first use, so no other route loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    EigensolverError,
    NumericRangeError,
)

DEFAULT_RANK_TOL = 1e-10
DEFAULT_EIG_TOL = 1e-10
MAX_DIM = 64  # the desk scale: the largest scenario H and the largest memoized expm


def as_complex_matrix(a, name: str = "matrix", cols: int | None = None) -> np.ndarray:
    """Validate and promote ``a`` to a 2-D complex128 array.

    Raises ``DimensionError`` for non-2-D input or, given ``cols``, another
    column count, and ``NumericRangeError`` if any entry is NaN or infinite.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise NumericRangeError(f"{name} contains non-finite entries")
    if cols is not None and m.shape[1] != cols:
        raise DimensionError(f"{name} has dim {m.shape[1]}, expected {cols}")
    return m


def as_square_matrix(a, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    m = as_complex_matrix(a, name, dim)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def as_state_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate ``v`` as a 1-D complex128 array; a stack or a column is not one state."""
    w = np.asarray(v, dtype=complex)
    if w.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got ndim={w.ndim}")
    if w.size == 0:
        raise DimensionError(f"{name} is empty")
    if not np.isfinite(w).all():
        raise NumericRangeError(f"{name} contains non-finite entries")
    if dim is not None and w.size != dim:
        raise DimensionError(f"{name} has dim {w.size}, expected {dim}")
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


# theta_m: the largest eta at which the [m/m] Pade approximant of exp meets
# unit roundoff in backward error (Al-Mohy & Higham 2009, Table 3.1)
_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}
# p_m(x) = sum_j b_j x^j with b_j = (2m - j)! / (j! (m - j)!); q_m(x) = p_m(-x)
_PADE = {
    m: [math.factorial(2 * m - j) / (math.factorial(j) * math.factorial(m - j))
        for j in range(m + 1)]
    for m in _THETA
}
# -log2 |c_{2m+1}| = log2 (2m)! (2m+1)! / (m!)^2, c_{2m+1} the leading
# coefficient of the backward error of the [m/m] approximant
_LOG2_C_RECIP = {
    m: math.log2(math.factorial(2 * m) * math.factorial(2 * m + 1) // math.factorial(m) ** 2)
    for m in _THETA
}


def _root_norm(x: np.ndarray, k: int) -> float:
    """|X|_1^(1/k) for X = A^k, +inf when the power overflowed."""
    v = float(np.abs(x).sum(axis=0).max(initial=0.0))
    return v ** (1.0 / k) if math.isfinite(v) else math.inf


def _pade(a: np.ndarray, pw: list[np.ndarray], m: int) -> np.ndarray:
    """r_m(A) = q_m(A)^{-1} p_m(A) = (V - U)^{-1} (V + U), with U and V the
    odd and even parts of p_m(A), from the even powers ``pw`` = [A^2, A^4, ...]."""
    b = _PADE[m]
    if m == 13:  # A^6 as a factor (Higham 2005, (2.1)): two products, not four
        a2, a4, a6 = pw[:3]
        u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    else:
        u, v = b[3] * pw[0], b[2] * pw[0]
        for k in range(1, m // 2):
            u += b[2 * k + 3] * pw[k]
            v += b[2 * k + 2] * pw[k]
    diag = slice(None, None, a.shape[0] + 1)
    u.reshape(-1)[diag] += b[1]
    v.reshape(-1)[diag] += b[0]
    u = a @ u
    return np.linalg.solve(v - u, v + u)


def _expm(a: np.ndarray) -> np.ndarray:
    """Algorithm 5.1 of Al-Mohy & Higham (SIMAX 31(3), 2009) with exact 1-norms.

    The degree and the scaling 2^-s follow from eta, built from the
    exact |A^k|_1^(1/k) for k = 4, 6, 8, 10, which can lie far below
    |A|_1 on non-normal input, so fewer squarings are taken. ``ell``
    adds squarings where |A|^(2m+1) shows that eta alone would leave
    the backward error above unit roundoff. The powers are kept as
    separate N x N arrays: at N = 64 one stack of them costs more in
    page faults than the arithmetic saves.
    """
    n = a.shape[0]
    b = np.abs(a)
    col = b.sum(axis=0)
    n1 = float(col.max(initial=0.0))
    if not math.isfinite(n1):
        raise NumericRangeError("expm argument has an infinite 1-norm")
    if not n1:  # exp(0) = I, exactly and without a Pade step
        return np.eye(a.shape[0], dtype=complex)
    # chain[i]: column sums of B^(4i+3), B = |A| / |A|_1 so that nothing
    # overflows; grown by vector products with B^4 as degrees are tried
    b, col = b / n1, col / n1
    b2 = b @ b
    chain, b4 = [col @ b2], b2 @ b2

    def ell(m: int) -> int:
        while len(chain) <= m // 2:
            chain.append(chain[-1] @ b4)
        alpha = float(chain[m // 2].max(initial=0.0))  # |B^(2m+1)|_1
        if alpha == 0.0:
            return 0
        log2_alpha_u = math.log2(alpha) + 2 * m * math.log2(n1) - _LOG2_C_RECIP[m] + 53
        return max(math.ceil(log2_alpha_u / (2 * m)), 0)

    a2 = a @ a
    pw = [a2, a2 @ a2]  # A^2, A^4, A^6, A^8
    pw.append(a2 @ pw[1])
    d6 = _root_norm(pw[2], 6)
    eta = max(_root_norm(pw[1], 4), d6)
    for m in (3, 5):
        if eta <= _THETA[m] and ell(m) == 0:
            return _pade(a, pw, m)
    pw.append(pw[1] @ pw[1])
    d8 = _root_norm(pw[3], 8)
    eta = max(d6, d8)
    for m in (7, 9):
        if eta <= _THETA[m] and ell(m) == 0:
            return _pade(a, pw, m)
    eta = min(eta, max(d8, _root_norm(pw[1] @ pw[2], 10)), n1)
    s = max(math.ceil(math.log2(eta / _THETA[13])), 0) if eta else 0
    s = max(s, ell(13))  # ell(2^-s A, 13) = max(ell(A, 13) - s, 0)
    if s:  # ldexp, not division by 2.0 ** s, which raises OverflowError past s = 1023
        a = a * math.ldexp(1.0, -s)
        pw = [p * math.ldexp(1.0, -k * s) for k, p in zip((2, 4, 6), pw)]
    e = _pade(a, pw, 13)
    for _ in range(s):
        e = e @ e
    return e


def expm(a) -> np.ndarray:
    """Matrix exponential of a square complex matrix.

    Scaling and squaring with Pade approximants of degree 3, 5, 7, 9 or 13
    (Al-Mohy & Higham, SIMAX 31(3), 2009) in numpy alone, good to ~1e-14
    relative over the norms used in this package. The exponentials of the
    last 16 distinct arguments with N <= ``MAX_DIM`` are kept, keyed by the
    exact bytes of the validated complex128 argument, so one H stepped over one
    grid by several routes takes each propagator once; a hit returns a fresh
    copy, and an argument that raises is never kept. The memo holds at most
    2 x 16 MAX_DIM^2 complex128 values (keys and results), 2 MiB, for any input.
    """
    m = as_square_matrix(a, "expm argument")
    if m.shape[0] > MAX_DIM:  # the same kernel on the same bytes, not kept
        return _expm_exact.__wrapped__(m.shape[0], m.tobytes())
    return _expm_exact(m.shape[0], m.tobytes()).copy()


@functools.lru_cache(maxsize=16)
def _expm_exact(n: int, data: bytes) -> np.ndarray:
    """``expm`` of the n x n complex128 matrix in ``data``; the result is shared."""
    m = np.frombuffer(data, dtype=complex).reshape(n, n)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            e = _expm(m)
    except np.linalg.LinAlgError:  # the Pade solve met a term past the float range
        e = None
    if e is None or not np.isfinite(e).all():
        raise NumericRangeError(
            f"expm overflowed for input with op norm {op_norm(m):.3e}"
        )
    return e


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``(T, Q)``: a = Q T Q^† with T upper triangular, Q unitary."""
    import scipy.linalg  # numpy has no Schur form; loaded only where it is needed

    return scipy.linalg.schur(as_square_matrix(a, "schur argument"), output="complex")


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of a general complex matrix.

    ``right_vectors`` holds unit-norm eigenvectors as columns, ordered to
    match ``eigenvalues`` (sorted by real part, then imaginary part).
    ``condition_estimate`` is the condition number of the eigenvector
    matrix; a large value signals a defective or near-defective input.
    ``matrix`` and its 2-norm ``norm`` let a ``Spectrum`` stand in for its matrix.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    condition_estimate: float
    matrix: np.ndarray
    norm: float


def eig_general(a) -> Spectrum:
    """Eigenvalues and unit right eigenvectors of a general complex matrix.

    Each pair satisfies ``|A v - l v| <= DEFAULT_EIG_TOL |A| |v|``; violations
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
    if worst > DEFAULT_EIG_TOL * max(scale, 1e-300):
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds {DEFAULT_EIG_TOL:.1e} * |A| = "
            f"{DEFAULT_EIG_TOL * scale:.3e}"
        )

    try:
        cond = float(np.linalg.cond(vectors))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond):
        cond = float(1.0 / np.finfo(float).eps)
    return Spectrum(values, vectors, cond, m, scale)


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


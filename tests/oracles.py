"""Independent oracles used by the test suite.

Everything here is deliberately written without calling into nhdyn, so
each check is a genuine second route: truncated Taylor series for the
exponential (summed separately on both sides of the observable
dynamics), explicit index loops for Kronecker/vec conventions,
brute-force solutions of small intertwining systems, and the dual
eigenvector family from an eigensolve of the adjoint.
"""

import numpy as np


def taylor_expm(a: np.ndarray, tol: float = 1e-16, max_terms: int = 400) -> np.ndarray:
    """Matrix exponential by plain Taylor summation to term-norm < tol."""
    a = np.asarray(a, dtype=complex)
    total = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, max_terms):
        term = term @ a / k
        total = total + term
        if np.linalg.norm(term) < tol:
            return total
    raise AssertionError("taylor_expm did not converge")


def scaled_taylor_expm(a: np.ndarray) -> np.ndarray:
    """Taylor exponential on a halved argument, squared back up.

    Keeps the series in its well-conditioned regime for large norms.
    """
    a = np.asarray(a, dtype=complex)
    squarings = 0
    while np.linalg.norm(a, 2) > 0.25:
        a = a / 2.0
        squarings += 1
    e = taylor_expm(a)
    for _ in range(squarings):
        e = e @ e
    return e


def gamma_t_two_exponentials(h: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """exp(i H^† t) X exp(-i H t), each exponential summed on its own."""
    h = np.asarray(h, dtype=complex)
    left = scaled_taylor_expm(1j * h.conj().T * t)
    return left @ np.asarray(x, dtype=complex) @ scaled_taylor_expm(-1j * h * t)


def vec_by_loops(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization written as explicit loops."""
    rows, cols = x.shape
    out = np.empty(rows * cols, dtype=complex)
    pos = 0
    for j in range(cols):
        for i in range(rows):
            out[pos] = x[i, j]
            pos += 1
    return out


def kron_by_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product written as explicit index loops."""
    ar, ac = a.shape
    br, bc = b.shape
    out = np.empty((ar * br, ac * bc), dtype=complex)
    for i in range(ar):
        for j in range(ac):
            out[i * br : (i + 1) * br, j * bc : (j + 1) * bc] = a[i, j] * b
    return out


def intertwiner_kernel_brute(h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Solve H^† X = X H by building the linear system entry by entry.

    Unknowns are the entries of X in row-major order; returns an
    orthonormal kernel basis (columns) of the assembled system.
    """
    n = h.shape[0]
    hd = h.conj().T
    system = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            row = i * n + j
            for k in range(n):
                system[row, k * n + j] += hd[i, k]  # (H^† X)_{ij} term
                system[row, i * n + k] -= h[k, j]  # (X H)_{ij} term
    _, sigma, vh = np.linalg.svd(system)
    keep = sigma <= tol * max(sigma[0], 1e-300)
    return vh[keep, :].conj().T


def dual_family_by_adjoint_eig(
    h: np.ndarray, eigenvalues: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Dual family of ``phi`` from a second eigensolve, of H^†.

    Each column phi_k (eigenvalue E_k of H) is paired with the adjoint
    eigenvector whose eigenvalue lies nearest conj(E_k), rescaled so that
    <phi_k, psi_k> = 1. Needs pairwise distinct eigenvalues.
    """
    values, vectors = np.linalg.eig(np.asarray(h, dtype=complex).conj().T)
    psi = np.empty_like(phi)
    taken = set()
    for k in range(phi.shape[1]):
        m = int(np.argmin(np.abs(values - np.conj(eigenvalues[k]))))
        assert m not in taken, "adjoint eigenvalue claimed twice"
        taken.add(m)
        w = vectors[:, m]
        psi[:, k] = w / np.vdot(phi[:, k], w)
    return psi


def projector_onto(columns: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of the given (orthonormal) columns."""
    q, _ = np.linalg.qr(columns)
    return q @ q.conj().T


def rotation_2x2(theta: float) -> np.ndarray:
    return np.array(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )

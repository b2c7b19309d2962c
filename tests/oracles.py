"""Independent oracles used by the test suite.

Everything here is deliberately written without calling into nhdyn, so
each check is a genuine second route: truncated Taylor series for the
exponential (summed separately on both sides of the observable
dynamics), explicit index loops for the vec convention,
brute-force solutions of small intertwining systems, the dual
eigenvector family from an eigensolve of the adjoint, and the
per-grid-point routes that the fast trajectory and classification
replace, the stage-by-stage RK4 loop that the nonlinear integrator's
Krylov-coordinate stages replace, those stages' own loop with allocating
products and the weights as a quadratic form, the a-priori truncated gamma series
with its plain rate 2|H||t|, the gamma-symmetry column recursion on stacked
partial solutions that the one-array recursion replaces, the standard library's indenting JSON
encoder for the report writer, and per-value formatting for the CSV
writer, and the observable dynamics in 40-digit arithmetic.
"""

import json
from itertools import accumulate

import mpmath
import numpy as np
import scipy.linalg


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


def gamma_t_exact(h: np.ndarray, x: np.ndarray, t: float, dps: int = 40) -> np.ndarray:
    """U^† X U with U = exp(-i H t) by mpmath at ``dps`` digits, on the exact float inputs."""
    with mpmath.workdps(dps):
        u = mpmath.expm(-1j * mpmath.mpf(t) * mpmath.matrix(np.asarray(h, complex).tolist()))
        g = u.transpose_conj() * mpmath.matrix(np.asarray(x, complex).tolist()) * u
        return np.array(g.tolist(), dtype=complex)


def gamma_series_reference(
    h: np.ndarray, x: np.ndarray, t: float, tol_trunc: float = 1e-12, terms: int | None = None
):
    """sum_k t^k delta^k(X) / k! over every term of the bound |delta| <= 2|H|.

    No early stop and no shift of H; returns (sum, terms). The term count is
    the smallest K with sum_{k>=K} rate^k / k! below tol_trunc / |X|_2, with
    the tail bounded geometrically once rate / (K + 1) < 1. A given ``terms``
    replaces that count: the same loop, cut where a stopped sum ended.
    """
    h = np.asarray(h, dtype=complex)
    x = np.asarray(x, dtype=complex)
    hd = h.conj().T
    rate = 2.0 * np.linalg.norm(h, 2) * abs(t)
    rel_tol = tol_trunc / max(np.linalg.norm(x, 2), np.finfo(float).tiny)
    if terms is None:
        terms, size = 1, 1.0  # size = rate^K / K! for the last included K = terms - 1
        while True:
            ratio = rate / terms
            if (ratio < 1.0 and size * ratio / (1.0 - ratio) < rel_tol) or size * ratio == 0.0:
                break
            size *= ratio
            terms += 1
    total = x.copy()
    term = x
    for k in range(1, terms):
        term = (t / k) * (1j * (hd @ term - term @ h))
        total = total + term
    return total, terms


def trajectory_per_point(h: np.ndarray, psi0: np.ndarray, t_grid) -> np.ndarray:
    """Rows psi(t_j) = expm(-i H t_j) psi0, one fresh exponential per grid point."""
    h = np.asarray(h, dtype=complex)
    return np.array([scipy.linalg.expm(-1j * h * t) @ psi0 for t in t_grid])


def linear_propagator_states(h: np.ndarray, psi0: np.ndarray, t_grid) -> np.ndarray:
    """Rows (1 - i H t_j) psi0: the exact propagator when H^2 = 0."""
    hv = np.asarray(h, dtype=complex) @ psi0
    return psi0[None, :] - 1j * np.asarray(t_grid)[:, None] * hv[None, :]


def rk4_nonlinear(h: np.ndarray, psi0: np.ndarray, t_grid, substeps: int = 1) -> np.ndarray:
    """Rows of the normalized flow by classical RK4, one vector per stage.

    Every stage evaluates f(u) = -i H u - (i/2) <u, (H^† - H) u> u on its own
    vector; each grid step is cut into ``substeps`` equal substeps and nothing
    is renormalized. Arithmetic past the float range is left to run to inf/nan.
    """
    h = np.asarray(h, dtype=complex)
    anti = h.conj().T - h

    def rhs(u):
        return -1j * (h @ u) - 0.5j * np.vdot(u, anti @ u) * u

    t = np.asarray(t_grid, dtype=float)
    dt = (t[1] - t[0]) / substeps
    v = np.asarray(psi0, dtype=complex)
    states = [v]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(t.size - 1):
            for _ in range(substeps):
                k1 = rhs(v)
                k2 = rhs(v + 0.5 * dt * k1)
                k3 = rhs(v + 0.5 * dt * k2)
                k4 = rhs(v + dt * k3)
                v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(v)
    return np.array(states)


def rk4_weights_quadratic_form(g: list) -> list:
    """Weights w with v' = sum_j w_j M^j v for one RK4 substep, from the Gram list
    ``g[j][k] = Re <M^j v, b M^k v>``: every stage scalar is the full quadratic form
    of g on the stage's coefficients, the zero ones included."""
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (*_, g33) = g

    def quad(a0, a1, a2=0.0, a3=0.0):
        return (
            a0 * (a0 * g00 + 2.0 * (a1 * g01 + a2 * g02 + a3 * g03))
            + a1 * (a1 * g11 + 2.0 * (a2 * g12 + a3 * g13))
            + a2 * (a2 * g22 + 2.0 * a3 * g23)
            + a3 * a3 * g33
        )

    s1 = g00
    a0, a1 = 1.0 + 0.5 * s1, 0.5
    s2 = quad(a0, a1)
    b0, b1, b2 = 1.0 + 0.5 * s2 * a0, 0.5 * (a0 + s2 * a1), 0.5 * a1
    s3 = quad(b0, b1, b2)
    c0, c1, c2, c3 = 1.0 + s3 * b0, b0 + s3 * b1, b1 + s3 * b2, b2
    s4 = quad(c0, c1, c2, c3)
    return [
        (a0 + 2.0 * b0 + c0 - 1.0) / 3.0 + s4 * c0 / 6.0,
        (a1 + 2.0 * b1 + c1) / 3.0 + (c0 + s4 * c1) / 6.0,
        (2.0 * b2 + c2) / 3.0 + (c1 + s4 * c2) / 6.0,
        c3 / 3.0 + (c2 + s4 * c3) / 6.0,
        c3 / 6.0,
    ]


def rk4_krylov_loop(h: np.ndarray, psi0: np.ndarray, t_grid, substeps: int = 1) -> np.ndarray:
    """Rows of the normalized flow by the RK4 stages in Krylov coordinates, every
    product allocating its result: ``stack @ v``, ``left @ right`` for the Gram
    matrix and the weights list ``@`` the Krylov rows v, Mv, ..., M^4 v."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    t = np.asarray(t_grid, dtype=float)
    dt = (t[1] - t[0]) / substeps
    m = -1j * dt * h
    b = -0.5j * dt * (h.conj().T - h)
    powers = list(accumulate([m] * 4, np.matmul))
    stack = np.vstack(powers + [b] + [b @ p for p in powers[:3]])
    rows = np.empty((9, n), dtype=complex)
    left, right = rows[:4].view(float), rows[5:].view(float).T
    states = np.empty((t.size, n), dtype=complex)
    states[0] = rows[0] = psi0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, t.size):
            for _ in range(substeps):
                rows[1:] = (stack @ rows[0]).reshape(8, n)
                rows[0] = rk4_weights_quadratic_form((left @ right).tolist()) @ rows[:5]
            states[j] = rows[0]
    return states


def classify_per_point(h: np.ndarray, x: np.ndarray, psi_hat: np.ndarray):
    """Operator and weak residuals of ``classify``, one SVD per state.

    Builds delta_psi_hat(X; v) = i (H^† X - X H) - i <v,(H^† - H) v> X at
    every row v and returns (max_t |delta_psi_hat|_2, max_t |<v, delta_psi_hat v>|).
    """
    h = np.asarray(h, dtype=complex)
    x = np.asarray(x, dtype=complex)
    hd = h.conj().T
    strong = weak = 0.0
    for v in psi_hat:
        d = 1j * (hd @ x - x @ h) - 1j * np.vdot(v, (hd - h) @ v) * x
        strong = max(strong, np.linalg.norm(d, 2))
        weak = max(weak, abs(np.vdot(v, d @ v)))
    return strong, weak


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


def symmetry_basis_reference(h: np.ndarray, rank_tol_rel: float = 1e-10):
    """The gamma-symmetry basis by the column recursion on stacked partial solutions.

    The route ``gamma.gamma_symmetry_basis`` took before it kept the partial solutions
    in one 2-D array: each step matrix by ``hstack`` and ``tensordot``, each re-mix a
    batched product and a ``concatenate``. The kernel of a step matrix is that of
    ``linalg.nullspace``, and the chain closure is counted by the same Arnoldi chain.
    Returns the (d, N, N) generators, their residuals |H^† X - X H|_F and the chain
    closure dimension.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]

    def nullspace(m):
        cols = m.shape[1]
        _, sigma, vh = np.linalg.svd(m, full_matrices=True)
        sigma = np.concatenate([sigma, np.zeros(cols - sigma.size)])
        if sigma[0] == 0.0:
            return np.eye(cols, dtype=complex)
        keep = sigma <= rank_tol_rel * sigma[0]
        return vh[keep, :].conj().T.reshape(cols, -1)

    t, q = scipy.linalg.schur(h, output="complex")
    w = np.zeros((0, n, 0), dtype=complex)  # w[i][:, j]: column i of solution j
    for k in range(n):
        step = np.hstack(
            [t.conj().T - t[k, k] * np.eye(n), -np.tensordot(t[:k, k], w, axes=1)]
        )
        kernel = nullspace(step)
        w = np.concatenate([w @ kernel[n:], kernel[None, :n]])
    gens = q @ w.transpose(2, 1, 0) @ q.conj().T
    residuals = np.linalg.norm(h.conj().T @ gens - gens @ h, axis=(1, 2))

    chain_dim = 0
    if len(gens):
        member = gens.sum(axis=0)
        chain = np.empty((n, n * n), dtype=complex)
        chain[0] = member.ravel() / np.linalg.norm(member)
        chain_dim = 1
        while chain_dim < n:
            w = (chain[chain_dim - 1].reshape(n, n) @ h).ravel()
            q = chain[:chain_dim]
            for _ in range(2):
                w -= (q @ w.conj()).conj() @ q
            size = np.linalg.norm(w)
            if size <= rank_tol_rel * np.linalg.norm(h, 2):
                break
            chain[chain_dim] = w / size
            chain_dim += 1
    return gens, residuals, chain_dim


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


def report_json_stdlib(doc) -> str:
    """report.json text by the standard library's pure-Python indenting encoder."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_text_per_value(header: list[str], columns) -> str:
    """CSV text with each value formatted on its own to 17 significant digits."""
    lines = [",".join(header)]
    for j in range(len(columns[0]) if len(columns) else 0):
        lines.append(",".join(format(float(c[j]), ".17g") for c in columns))
    return "\n".join(lines) + "\n"

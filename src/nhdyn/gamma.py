"""Heisenberg-like dynamics generated by a non-self-adjoint Hamiltonian.

The central map is the conjugation

    gamma_t(X) = exp(i H^† t) X exp(-i H t)

which reduces to the ordinary Heisenberg picture when H is Hermitian,
and its generator, the gamma-derivation

    delta_gamma(X) = i (H^† X - X H).

Its exponential series, ``gamma_series``, is one sum at one time: term by term
up to a certificate read off its own terms, or, where H's spectrum has
well-conditioned eigenvectors, in closed form in the derivation's eigenbasis,
where each entry is a scalar exponential. Every route reads H's spectrum from
the ``eig_general`` memo, so the route depends on H alone.
Operators fixed by the dynamics (equivalently annihilated by the
derivation, equivalently satisfying the intertwining relation
H^† X = X H) are gamma-symmetries; they form a linear space that this
module builds from H's eigendecomposition where it is well conditioned,
else column by column on the complex Schur form of H, and whose chain
closure it measures on the sum of the generators.
When H is not Hermitian the identity operator is not fixed, so gamma_t
fails to be multiplicative; the norm of an evolving state tracks exactly
that failure through I(t) = |exp(-iHt) psi0|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError, EigensolverError, NumericalError, NumericRangeError, TruncationError,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    EIG_COND_MAX,
    Spectrum,
    as_square_matrix,
    as_state_vector,
    check_times,
    check_tolerance,
    eig_general,
    expm,
    frob,
    mean_values,
    nullspace,
    op_norm,
    schur,
)

MAX_SERIES_TERMS = 500  # route "terms": a rate of 500 or more keeps q >= 1 up to the cap
MAX_EIG_RATE = 2.0**52  # route "eig": past 1/eps, t d_ab keeps no digit of its phase
LOG_MAX = math.log(np.finfo(float).max)  # e^LOG_MAX is the largest float
DEFAULT_TOL_TRUNC = 1e-12
EPS = float(np.finfo(float).eps)
GRAY_BAND = 1e2  # a pair gap within this factor of the rank cut is too near to call by eig


@dataclass(frozen=True)
class GammaContext:
    """A validated Hamiltonian; its ``Spectrum``, from the ``eig_general`` memo, and its
    operator norm, the spectrum's if one was already taken, are taken on first use."""

    h: np.ndarray

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @cached_property
    def spectrum(self) -> Spectrum | None:
        """H's ``Spectrum``: None for an empty H or where ``EigensolverError`` is raised."""
        try:
            return eig_general(self.h) if self.dim else None
        except EigensolverError:
            return None

    @cached_property
    def h_norm(self) -> float:
        spec = self.__dict__.get("spectrum")  # never an eigensolve for |H| alone
        return op_norm(self.h) if spec is None else spec.norm

    def series_route(self, tol_trunc: float) -> str:
        """How ``gamma_series`` sums to ``tol_trunc``: "eig" where H's spectrum passes the
        eigenvector guard and its change of basis rounds within it, eps cond(V)^2 <= tol_trunc;
        else, or where the eigensolve raised, "terms"."""
        spec = self.spectrum
        eig = spec is not None and spec.well_conditioned
        return "eig" if eig and EPS * spec.condition_estimate**2 <= tol_trunc else "terms"

    @cached_property
    def delta_bound(self) -> float:
        """2 min(|H|, |H - c|) >= |delta_gamma|: real c = Re tr(H) / N leaves delta alone."""
        c = np.trace(self.h).real / max(self.dim, 1)
        return 2.0 * min(self.h_norm, op_norm(self.h - c * np.eye(self.dim)))


def gamma_context(h) -> GammaContext:
    """The context of a Hamiltonian, of a context (itself), or of the ``Spectrum`` that
    ``Spectrum.shifted`` builds for H - E, whose eigensolve and 2-norm are then reused."""
    if isinstance(h, GammaContext):
        return h
    if not isinstance(h, Spectrum):
        return GammaContext(as_square_matrix(h, "hamiltonian"))
    ctx = GammaContext(as_square_matrix(h.matrix, "hamiltonian"))
    ctx.__dict__["spectrum"] = h  # the cached property's slot: H - E is not solved again
    return ctx


def gamma_t(ctx: GammaContext, x, t: float) -> np.ndarray:
    """Evolve an observable: exp(i H^† t) X exp(-i H t) = U^† X U.

    One exponential: exp(i H^† t) is exactly the adjoint of U = exp(-i H t).
    Calls at one t share U through the ``expm`` memo; ``t`` follows the time rule. Where U
    or U^† X U leaves the float range, ``NumericRangeError`` is raised.
    """
    xm = as_square_matrix(x, "observable", ctx.dim)
    t = check_times((t,), "t")[0][0]
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range raises below
        u = expm(-1j * ctx.h * t)
        g = u.conj().T @ xm @ u
    if not np.isfinite(g).all():
        raise NumericRangeError(f"g_t(X) leaves the float range at t = {t:.3e}")
    return g


def delta_gamma(ctx: GammaContext, x) -> np.ndarray:
    """Generator of the dynamics: i (H^† X - X H)."""
    xm = as_square_matrix(x, "observable", ctx.dim)
    return 1j * (ctx.h.conj().T @ xm - xm @ ctx.h)


def gamma_series(
    ctx: GammaContext, x, t: float, tol_trunc: float = DEFAULT_TOL_TRUNC
) -> tuple[np.ndarray, int]:
    """Evaluate the exponential series sum_k t^k delta^k(X) / k! at the time ``t``. Returns the
    partial sum and the number of terms summed: on route "eig" 1 at t = 0, else 0.

    Route "terms": |delta(Y)| <= ``ctx.delta_bound`` |Y| bounds the 2-norm of the tail after
    term T_k by |T_k|_F q / (1 - q) once q = delta_bound |t| / (k + 1) < 1. The sum returns
    once that certificate is below ``tol_trunc``, tested from T_0 = X on, or at a term that is
    exactly zero (delta is linear, so every later term is zero; H^2 = 0 leaves three terms).
    ``TruncationError`` is raised before any product when q >= 1 up to ``MAX_SERIES_TERMS``
    terms, and after them if no term certified the rest. Each term is formed in place on a
    copy of X from two ``ndarray.dot`` products into buffers allocated once.

    Route "eig" (``ctx.series_route(tol_trunc)``: H's ``Spectrum``, whose guard holds and
    whose eps cond(V)^2 is at most ``tol_trunc``) sums in delta's eigenbasis. With
    H = V diag(lam) V^-1 and X = V^-† Y V^-1, delta acts entry by entry as Y_ab -> d_ab Y_ab,
    d_ab = i (conj(lam_a) - lam_b), so the sum is V^-† (e^(t d) o Y) V^-1, four N^3 products:
    each entry's series is the scalar exponential, taken by ``np.exp`` with nothing
    truncated. t = 0 returns X itself, one term. Past a rate |t| max|d_ab| of
    ``MAX_EIG_RATE`` = 2^52 = 1/eps, where t d_ab keeps no digit of its phase,
    ``TruncationError`` is raised; where an entry of e^(t d) or the sum leaves the float
    range, ``NumericRangeError``. V^-1 is the spectrum's, taken once. The change of basis
    rounds like eps cond(V)^2 |X|, where the term loop rounds like eps |X| at small rates:
    hence the second condition of the route.
    """
    t = float(check_times((t,), "t")[0][0])
    xm = as_square_matrix(x, "observable", ctx.dim)
    check_tolerance(tol_trunc, "tol_trunc")
    if ctx.series_route(tol_trunc) == "eig":
        return _eig_series(ctx.spectrum, xm, t)
    rate = ctx.delta_bound * abs(t)
    if not rate < MAX_SERIES_TERMS:
        raise TruncationError(f"series rate {rate:.3e} keeps q >= 1 up to the term cap")

    h, hd = ctx.h, ctx.h.conj().T
    total, term = xm.copy(), xm.copy()
    a, b = np.empty_like(term), np.empty_like(term)
    for k in range(1, MAX_SERIES_TERMS + 1):  # total = T_0 + ... + T_{k-1}
        q = rate / k  # |T_{k-1+j}| <= q^j |T_{k-1}|
        if q < 1.0 and np.linalg.norm(term) * q / (1.0 - q) < tol_trunc:
            break
        hd.dot(term, out=a)
        term.dot(h, out=b)
        np.subtract(a, b, out=term)
        term *= 1j * t / k  # (t / k) delta_gamma(term)
        if not term.any():
            break
        total += term
    else:
        raise TruncationError(
            f"series needs more than {MAX_SERIES_TERMS} terms at rate {rate:.3e}"
        )
    return total, k


def _eig_series(spec: Spectrum, x: np.ndarray, t: float):
    """``gamma_series`` in the eigenbasis of delta: Y = V^† X V, e^(t d) o Y, back by V^-1."""
    if t == 0.0:  # one term, X itself, as on the term route
        return x.copy(), 1
    v, w, lam = spec.right_vectors, spec.left_vectors, spec.eigenvalues
    d = 1j * (lam.conj()[:, None] - lam[None, :])  # delta(X) <-> d o Y
    rate = float(np.abs(d).max()) * abs(t)
    if not rate <= MAX_EIG_RATE:
        raise TruncationError(
            f"series rate {rate:.3e} is past 2^52 = 1/eps, where t d keeps no digit of phase"
        )
    grow = 2.0 * float((t * lam.imag).max())  # max Re(t d_ab), Re d_ab = Im lam_a + Im lam_b
    if not grow <= LOG_MAX:
        raise NumericRangeError(
            f"series leaves the float range at rate {rate:.3e}: |e^(t d)| up to e^{grow:.3e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # past the range raises below
        total = w.conj().T @ (np.exp(t * d) * (v.conj().T @ x @ v)) @ w
    if not np.isfinite(total).all():
        raise NumericRangeError(f"series sum leaves the float range at rate {rate:.3e}")
    return total, 0


def identity_norm_evolution(ctx: GammaContext, psi0, t_grid) -> np.ndarray:
    """Squared-norm history of an evolving state, with a derivative check.

    Returns an array with rows ``(t, I(t), residual)`` where
    I(t) = |exp(-iHt) psi0|^2 and the residual compares the second-order
    finite-difference derivative of I on ``t_grid`` (two or more times) against the identity
    dI/dt = i <psi(t), (H^† - H) psi(t)>; it shrinks as O(dt^2) to the quotient's roundoff,
    about eps max I / dt (1.7e84 at dt = 1e-100). The derivative is taken on t times the power
    of two that brings a largest spacing below 1/2 into [1/2, 1): the spacing products it
    divides by stay normal where t's own underflow, and keep each bit where they do not. A
    grid on which it would still divide by zero, with a time at or too near the one or two
    before it, raises ``ConfigError`` before any propagation, a psi0 whose I(t) leaves the
    float range ``NumericRangeError``.
    """
    from .flow import exact_trajectory  # flow imports this module

    t_grid = check_times(t_grid, "t_grid", 2)[0]  # a derivative needs two points
    with np.errstate(over="ignore"):  # a spacing or product past the range is not zero
        e = min(math.frexp(np.abs(np.diff(t_grid)).max())[1], 0)
        dt = np.diff(ts := np.ldexp(t_grid, -e))
        s = dt[1:] + dt[:-1]  # np.gradient divides by the spacings and these products
        if not np.concatenate((dt, dt[1:] * dt[:-1], dt[1:] * s, dt[:-1] * s)).all():
            raise ConfigError("t_grid must hold no time at or too near the one or two before it")
    v0 = as_state_vector(psi0, ctx.dim, "psi0")
    top = np.abs(v0).max()
    if top == 0.0:
        raise ConfigError("psi0 must be nonzero")
    # |psi0| = m |psi0 / m|, m = 2^k <= max |psi0_i|: in range where |psi0|^2 is not,
    # and an exact scaling, so bit for bit the unscaled norm wherever that is in range
    m = math.ldexp(1.0, math.frexp(top)[1] - 1)
    w = v0 / m
    unit_norm = np.linalg.norm(w)
    # the propagator is linear: evolve the unit vector, then scale back
    traj = exact_trajectory(ctx, w / unit_norm, t_grid)
    with np.errstate(over="ignore", invalid="ignore"):  # out of range raises below
        scale = m * unit_norm
        t, states, norms = traj.t_grid, scale * traj.psi, scale**2 * traj.norm_sq
        anti = ctx.h.conj().T - ctx.h
        exact_rate = (1j * mean_values(anti, states)).real
        fd_rate = np.ldexp(np.gradient(norms, ts, edge_order=min(t.size - 1, 2)), -e)
        rows = np.column_stack([t, norms, np.abs(fd_rate - exact_rate)])
    if not (np.isfinite(rows).all() and norms.min() > 0.0):
        raise NumericRangeError(f"I(t) leaves the float range for |psi0| = {scale:.3e}")
    return rows


@dataclass(frozen=True)
class SymmetryBasis:
    """Frobenius-orthonormal basis of the gamma-symmetries of H.

    ``generators`` is the (d, N, N) stack of the basis, (0, N, N) when H has
    no gamma-symmetry. ``residuals`` holds |H^† X - X H|_F per generator and
    ``chain_closure_dim`` the dimension of span{S H^k, k = 0..N-1} for
    the sum S of the generators (powers beyond N-1 add nothing by
    Hamilton-Cayley), counted by an Arnoldi chain that stops once the
    new direction is below ``rank_tol_rel * |H|_2``. ``route`` names the
    construction: ``"eig"`` or ``"schur"``.
    """

    generators: np.ndarray
    residuals: list[float]
    chain_closure_dim: int
    route: str


def _inverse_root(gram: np.ndarray) -> np.ndarray | None:
    """G^(-1/2) of a Hermitian Gram matrix by ``eigh`` (Loewdin), or None where
    cond(G) > ``EIG_COND_MAX``."""
    e, u = np.linalg.eigh(gram)
    if not e[0] * EIG_COND_MAX >= e[-1]:
        return None
    return (u / np.sqrt(e)) @ u.conj().T


def _eig_generators(ctx: GammaContext, cut: float):
    """The generators and residuals from H = V diag(lam) V^-1, or None where the guard fails."""
    spec, h, n = ctx.spectrum, ctx.h, ctx.dim
    if not spec.well_conditioned:
        return None
    gaps = np.abs(spec.eigenvalues.conj()[:, None] - spec.eigenvalues[None, :])
    if np.any((gaps > cut / GRAY_BAND) & (gaps <= cut * GRAY_BAND)):
        return None
    resonant = gaps <= cut  # symmetric: |conj(lam_a) - lam_b| = |conj(lam_b) - lam_a|
    a, b = np.nonzero(resonant)
    if not len(a):
        return np.zeros((0, n, n), dtype=complex), np.zeros(0)
    w = spec.left_vectors / np.linalg.norm(spec.left_vectors, axis=1, keepdims=True)  # unit rows
    # rows with one partner set share one eigenvalue: Loewdin-orthonormalize each such cluster
    partners, cluster, size = np.unique(resonant, axis=0, return_inverse=True, return_counts=True)
    for c in np.flatnonzero((size > 1) & partners.any(axis=1)):
        rows = np.flatnonzero(cluster == c)
        root = _inverse_root(w[rows] @ w[rows].conj().T)
        if root is None:
            return None
        w[rows] = root @ w[rows]
    gram = w @ w.conj().T
    # H normal: rows of distinct eigenvalues are orthogonal, so Loewdin mixes rows of one
    # eigenvalue only and each row p stays a left eigenvector, p H = rho p + e with e
    # orthogonal to p; then |H^† X - X H|_F^2 of X = p_a^† p_b is exactly
    # |conj(rho_a) - rho_b|^2 + |e_a|^2 + |e_b|^2
    root = _inverse_root(gram)
    if root is not None:
        p = root @ w
        hp = p @ h
        rho = (hp * p.conj()).sum(axis=1)
        err = np.linalg.norm(hp - rho[:, None] * p, axis=1) ** 2
        residuals = np.sqrt(np.abs(rho[a].conj() - rho[b]) ** 2 + err[a] + err[b])
        if residuals.max(initial=0.0) <= cut:
            return p[a].conj()[:, :, None] * p[b][:, None, :], residuals
    # H not normal: Loewdin on the d x d Gram <w_a^† w_b, w_c^† w_d>_F = gram_ac gram_db
    root = _inverse_root(gram[np.ix_(a, a)] * gram[np.ix_(b, b)].T)
    if root is None:
        return None
    pairs = (w[a].conj()[:, :, None] * w[b][:, None, :]).reshape(len(a), n * n)
    gens = (root.T @ pairs).reshape(len(a), n, n)
    residuals = np.linalg.norm(h.conj().T @ gens - gens @ h, axis=(1, 2))
    return (gens, residuals) if residuals.max(initial=0.0) <= cut else None


def _schur_generators(ctx: GammaContext, rank_tol_rel: float):
    """The generators and residuals by the column recursion on the Schur form."""
    n = ctx.dim
    t, q = schur(ctx.h)
    shift, eye = t.conj().T, np.eye(n)
    w = np.zeros((0, 0), dtype=complex)
    for k in range(n):
        d = w.shape[1]
        step = np.empty((n, n + d), dtype=complex)
        np.subtract(shift, t[k, k] * eye, out=step[:, :n])
        step[:, n:] = (-t[:k, k] @ w.reshape(k, n * d)).reshape(n, d)
        kernel = nullspace(step, rank_tol_rel, ctx.h_norm)
        grown = np.empty(((k + 1) * n, kernel.shape[1]), dtype=complex)
        np.matmul(w, kernel[n:], out=grown[: k * n])
        grown[k * n :] = kernel[:n]
        w = grown
        del kernel  # dropped before the next step's SVD: a lower peak
    gens = q @ w.reshape(n, n, w.shape[1]).transpose(2, 1, 0) @ q.conj().T
    return gens, np.linalg.norm(ctx.h.conj().T @ gens - gens @ ctx.h, axis=(1, 2))


def gamma_symmetry_basis(
    ctx: GammaContext, rank_tol_rel: float = DEFAULT_RANK_TOL
) -> SymmetryBasis:
    """All solutions of the intertwining relation H^† X = X H.

    Both routes cut at ``rank_tol_rel * |H|_2``, the size of the roundoff, so a
    real shift H + c 1 or a change of units leaves d alone up to that cut.

    Route "eig", on H's ``Spectrum`` H = V diag(lam) V^-1:
    with w_j row j of V^-1, w_j H = lam_j w_j, so X = w_a^† w_b has
    H^† X - X H = (conj(lam_a) - lam_b) X, and the outer products over the
    resonant pairs |conj(lam_a) - lam_b| <= cut span the solutions. Loewdin
    steps, G^(-1/2) from ``eigh`` of a Gram G, orthonormalize the unit rows
    of each eigenvalue, then all N rows: for a normal H that keeps each row
    a left eigenvector, the outer products are orthonormal and their
    residuals have a closed form. Otherwise one Loewdin step on the d x d
    Gram of the outer products, each entry a product of two entries of the
    rows' N x N Gram, orthonormalizes them. No QR or SVD of the (N^2, d)
    stack is taken, and the bytes do not depend on the BLAS thread count
    (checked at N = 64). The route is taken only when cond(V) and the
    condition of each Gram it inverts are at most ``EIG_COND_MAX``, no pair
    gap lies in (cut / ``GRAY_BAND``, cut * ``GRAY_BAND``], and every
    residual is at most the cut; else, or where the eigensolve raised, the
    Schur route runs, and nothing is raised.

    Route "schur": with the complex Schur form H = Q T Q^† the relation
    reads T^† Y = Y T for Y = Q^† X Q. T is upper triangular, so column k
    of it, (T^† - T_kk) y_k = sum_{i<k} T_ik y_i, involves only columns up
    to k (the column recursion of Bartels & Stewart, Comm. ACM 15(9),
    1972, applied to a kernel instead of a solve). ``w`` holds a
    Frobenius-orthonormal basis W_1..W_d of the solutions on the first
    k columns as one (k N, d) array whose row block i holds column i of
    every solution, so the coupling sum_{i<k} T_ik W_i is one product
    with its (k, N d) reshape. The kernel of the N x (N + d) step matrix
    [T^† - T_kk, -sum_{i<k} T_ik W_i] has orthonormal columns (y, c),
    and each extends W @ c by the column y, so the basis stays
    orthonormal without re-orthogonalization; the re-mix is one product
    into the grown array. Each step cuts at ``rank_tol_rel`` times the
    larger of its largest singular value and |H|_2.

    An empty basis is a valid result. A multiple of the identity, d = N^2,
    is the costly input on the Schur route: every step keeps all N + d
    columns, most of the time going to the SVDs of the step matrices.
    """
    check_tolerance(rank_tol_rel, "rank_tol_rel", below_one=True)
    found = None if ctx.spectrum is None else _eig_generators(ctx, rank_tol_rel * ctx.h_norm)
    gens, residuals = _schur_generators(ctx, rank_tol_rel) if found is None else found
    n = ctx.dim

    chain_dim = 0
    if len(gens):
        # Arnoldi on the Frobenius inner product: the monomials S H^k are as
        # ill-conditioned as a Vandermonde basis, so rank an orthonormal chain
        member = gens.sum(axis=0)
        chain = np.empty((n, n * n), dtype=complex)
        chain[0] = member.ravel() / np.linalg.norm(member)
        chain_dim = 1
        while chain_dim < n:
            w = (chain[chain_dim - 1].reshape(n, n) @ ctx.h).ravel()
            q = chain[:chain_dim]
            for _ in range(2):  # Gram-Schmidt twice: orthonormal to working precision
                w -= (q @ w.conj()).conj() @ q
            size = np.linalg.norm(w)
            if size <= rank_tol_rel * ctx.h_norm:
                break
            chain[chain_dim] = w / size
            chain_dim += 1

    return SymmetryBasis(
        generators=gens,
        residuals=residuals.tolist(),
        chain_closure_dim=chain_dim,
        route="schur" if found is None else "eig",
    )


class SimilarHamiltonian(NamedTuple):
    """Result of conjugating a Hermitian seed by an invertible map."""

    h: np.ndarray
    commutator_residual: float
    r_condition: float


def similar_norm_preserving(h0, r) -> SimilarHamiltonian:
    """Build H = R H0 R^{-1} from Hermitian H0 and report |[H0, R^† R]|.

    When the commutator vanishes the evolution exp(-iHt) preserves every
    norm: exp(i H^† t) exp(-i H t) = 1. A nonzero commutator is the
    negative control, with state norms genuinely varying in time.
    """
    h0m = as_square_matrix(h0, "h0")
    rm = as_square_matrix(r, "r", h0m.shape[0])
    # both norms of 2^-e H0, 2^e near its largest entry: exact, and neither overflows
    scale = math.ldexp(1.0, -max(math.frexp(np.abs(h0m).max(initial=0.0))[1], 0))
    h0s = scale * h0m
    herm_defect = frob(h0s - h0s.conj().T)
    if herm_defect > 1e-12 * max(scale, frob(h0s)):
        raise ConfigError(
            f"h0 is not Hermitian: |H0 - H0^†|_F = {herm_defect / scale:.3e}"
        )
    cond = float(np.linalg.cond(rm))
    if not np.isfinite(cond) or cond > 1e14:
        raise NumericalError(f"r is numerically singular (condition {cond:.3e})")

    gram = rm.conj().T @ rm
    commutator = frob(h0m @ gram - gram @ h0m)
    h = rm @ h0m @ np.linalg.inv(rm)
    return SimilarHamiltonian(h=h, commutator_residual=commutator, r_condition=cond)

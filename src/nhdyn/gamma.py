"""Heisenberg-like dynamics generated by a non-self-adjoint Hamiltonian.

The central map is the conjugation

    gamma_t(X) = exp(i H^† t) X exp(-i H t)

which reduces to the ordinary Heisenberg picture when H is Hermitian,
and its generator, the gamma-derivation

    delta_gamma(X) = i (H^† X - X H).

Its exponential series, ``gamma_series``, stops on one certificate computed
from its own terms, under a cap of ``MAX_SERIES_TERMS`` checked up front.
Operators fixed by the dynamics (equivalently annihilated by the
derivation, equivalently satisfying the intertwining relation
H^† X = X H) are gamma-symmetries; they form a linear space that this
module builds column by column on the complex Schur form of H, and
whose chain closure it measures on the sum of the generators.
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

from .errors import ConfigError, NumericalError, NumericRangeError, TruncationError
from .linalg import (
    DEFAULT_RANK_TOL,
    as_square_matrix,
    as_state_vector,
    expm,
    frob,
    mean_values,
    nullspace,
    op_norm,
    schur,
)

MAX_SERIES_TERMS = 500
DEFAULT_TOL_TRUNC = 1e-12


@dataclass(frozen=True)
class GammaContext:
    """A validated Hamiltonian; its operator norm is taken on first use."""

    h: np.ndarray

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @cached_property
    def h_norm(self) -> float:
        return op_norm(self.h)

    @cached_property
    def delta_bound(self) -> float:
        """2 min(|H|, |H - c|) >= |delta_gamma|: real c = Re tr(H) / N leaves delta alone."""
        c = np.trace(self.h).real / max(self.dim, 1)
        return 2.0 * min(self.h_norm, op_norm(self.h - c * np.eye(self.dim)))


def gamma_context(h) -> GammaContext:
    return GammaContext(h=as_square_matrix(h, "hamiltonian"))


def gamma_t(ctx: GammaContext, x, t: float) -> np.ndarray:
    """Evolve an observable: exp(i H^† t) X exp(-i H t) = U^† X U.

    One exponential: exp(i H^† t) is exactly the adjoint of U = exp(-i H t).
    Calls at one t share U through the ``expm`` memo.
    """
    xm = as_square_matrix(x, "observable", ctx.dim)
    u = expm(-1j * ctx.h * t)
    return u.conj().T @ xm @ u


def delta_gamma(ctx: GammaContext, x) -> np.ndarray:
    """Generator of the dynamics: i (H^† X - X H)."""
    xm = as_square_matrix(x, "observable", ctx.dim)
    return 1j * (ctx.h.conj().T @ xm - xm @ ctx.h)


def gamma_series(
    ctx: GammaContext, x, t: float, tol_trunc: float = DEFAULT_TOL_TRUNC
) -> tuple[np.ndarray, int]:
    """Evaluate the exponential series sum_k t^k delta^k(X) / k!.

    |delta(Y)| <= ``ctx.delta_bound`` |Y| bounds the 2-norm of the tail after term T_k
    by |T_k|_F q / (1 - q) once q = delta_bound |t| / (k + 1) < 1. The sum returns once
    that certificate is below ``tol_trunc``, tested from T_0 = X on, or at a term that is
    exactly zero (delta is linear, so every later term is zero; H^2 = 0 leaves three
    terms). ``TruncationError`` is raised before any work when q >= 1 up to
    ``MAX_SERIES_TERMS`` terms, and after them if no term certified the rest. Returns
    the partial sum and the number of terms summed. Each term is formed in place on a copy
    of X from two ``ndarray.dot`` products into buffers allocated once, with unchanged bits.
    """
    xm = as_square_matrix(x, "observable", ctx.dim)
    if tol_trunc <= 0:
        raise ConfigError("tol_trunc must be positive")
    rate = ctx.delta_bound * abs(t)
    if not rate < MAX_SERIES_TERMS:  # a NaN rate raises too
        raise TruncationError(f"series rate {rate:.3e} keeps q >= 1 up to the term cap")

    h, hd = ctx.h, ctx.h.conj().T
    total, term = xm.copy(), xm.copy()
    a, b = np.empty_like(term), np.empty_like(term)
    for k in range(1, MAX_SERIES_TERMS + 1):  # total = T_0 + ... + T_{k-1}
        q = rate / k  # |T_{k-1+j}| <= q^j |T_{k-1}|
        if q < 1.0 and np.linalg.norm(term) * q / (1.0 - q) < tol_trunc:
            return total, k
        hd.dot(term, out=a)
        term.dot(h, out=b)
        np.subtract(a, b, out=term)
        term *= 1j * t / k  # (t / k) delta_gamma(term)
        if not term.any():
            return total, k
        total += term
    raise TruncationError(f"series needs more than {MAX_SERIES_TERMS} terms at rate {rate:.3e}")


def identity_norm_evolution(ctx: GammaContext, psi0, t_grid) -> np.ndarray:
    """Squared-norm history of an evolving state, with a derivative check.

    Returns an array with rows ``(t, I(t), residual)`` where
    I(t) = |exp(-iHt) psi0|^2 and the residual compares the second-order
    finite-difference derivative of I against the identity
    dI/dt = i <psi(t), (H^† - H) psi(t)>; it shrinks as O(dt^2). A psi0
    whose I(t) leaves the float range raises ``NumericRangeError``.
    """
    from .flow import exact_trajectory  # flow imports this module

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
    traj = exact_trajectory(ctx.h, w / unit_norm, t_grid)
    with np.errstate(over="ignore", invalid="ignore"):  # out of range raises below
        scale = m * unit_norm
        t, states, norms = traj.t_grid, scale * traj.psi, scale**2 * traj.norm_sq
        anti = ctx.h.conj().T - ctx.h
        exact_rate = (1j * mean_values(anti, states)).real
        if t.size == 1:
            fd_rate = exact_rate  # nothing to difference against
        else:
            fd_rate = np.gradient(norms, t, edge_order=min(t.size - 1, 2))
        rows = np.column_stack([t, norms, np.abs(fd_rate - exact_rate)])
    if not (np.isfinite(rows).all() and norms.min() > 0.0):
        raise NumericRangeError(f"I(t) leaves the float range for |psi0| = {scale:.3e}")
    return rows


@dataclass(frozen=True)
class SymmetryBasis:
    """Frobenius-orthonormal basis of the gamma-symmetries of H.

    ``residuals`` holds |H^† X - X H|_F per generator and
    ``chain_closure_dim`` the dimension of span{S H^k, k = 0..N-1} for
    the sum S of the generators (powers beyond N-1 add nothing by
    Hamilton-Cayley), counted by an Arnoldi chain that stops once the
    new direction is below ``rank_tol_rel * |H|_2``.
    """

    generators: list[np.ndarray]
    residuals: list[float]
    chain_closure_dim: int


def gamma_symmetry_basis(
    ctx: GammaContext, rank_tol_rel: float = DEFAULT_RANK_TOL
) -> SymmetryBasis:
    """All solutions of the intertwining relation H^† X = X H.

    With the complex Schur form H = Q T Q^† the relation reads
    T^† Y = Y T for Y = Q^† X Q. T is upper triangular, so column k of
    it, (T^† - T_kk) y_k = sum_{i<k} T_ik y_i, involves only columns up
    to k (the column recursion of Bartels & Stewart, Comm. ACM 15(9),
    1972, applied to a kernel instead of a solve). ``w`` holds a
    Frobenius-orthonormal basis W_1..W_d of the solutions on the first
    k columns; the kernel of the N x (N + d) step matrix
    [T^† - T_kk, -sum_{i<k} T_ik W_i] has orthonormal columns (y, c),
    and each extends W @ c by the column y, so the basis stays
    orthonormal without re-orthogonalization. ``rank_tol_rel`` is
    relative to the largest singular value of each step matrix.

    An empty basis is a valid result. A multiple of the identity is the
    costly input: every step keeps all N + d columns, d reaches N^2, and
    at N = 64 the last steps take minutes.
    """
    n = ctx.dim
    t, q = schur(ctx.h)
    w = np.zeros((0, n, 0), dtype=complex)  # w[i][:, j]: column i of solution j
    for k in range(n):
        step = np.hstack(
            [t.conj().T - t[k, k] * np.eye(n), -np.tensordot(t[:k, k], w, axes=1)]
        )
        kernel = nullspace(step, rank_tol_rel)
        w = np.concatenate([w @ kernel[n:], kernel[None, :n]])
    gens = q @ w.transpose(2, 1, 0) @ q.conj().T
    residuals = np.linalg.norm(ctx.h.conj().T @ gens - gens @ ctx.h, axis=(1, 2))

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
        generators=list(gens),
        residuals=residuals.tolist(),
        chain_closure_dim=chain_dim,
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

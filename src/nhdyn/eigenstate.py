"""The eigenstate-initialized flow, where the derivation freezes.

If the initial normalized state is an eigenvector phi_k0 of H with
eigenvalue E = E_r + i E_i, the nonlinear scalar is constant,
<psi_hat,(H^†-H)psi_hat> = -2i E_i, the normalized trajectory is the
phase orbit psi_hat(t) = exp(-i E_r t) phi_k0, and the state-dependent
derivation collapses to the time-independent map

    delta_gamma(X) - 2 E_i X = i (H_k0^† X - X H_k0),   H_k0 = H - E,

which is the gamma-derivation of the shifted Hamiltonian H_k0. Its
exponential series therefore has a closed sum, the gamma dynamics of
H_k0: ``gamma_series`` and ``gamma_t`` on ``ctx.shifted`` agree for
every observable and time. The eigenvalue is not assumed real;
complex-eigenvalue Hamiltonians are first-class inputs here and do not
route through the biorthogonal machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flow import StateTrajectory, exact_trajectory
from .gamma import (
    DEFAULT_TOL_TRUNC,
    GammaContext,
    delta_gamma,
    gamma_context,
    gamma_series,
    gamma_t,
)
from .linalg import Spectrum, as_square_matrix, eig_general, op_norm

ORBIT_RANGE = 300.0  # bound on |Im lambda| max|t| that keeps exp(+-2 Im lambda t) in float range


@dataclass(frozen=True)
class EigenstateContext:
    """A Hamiltonian with one selected unit eigenvector.

    ``shifted`` is the gamma context of H_k0 = H - E.
    """

    k0: int
    e_value: complex
    phi_k0: np.ndarray
    shifted: GammaContext


def eigenstate_context(h, k0: int | None = None) -> EigenstateContext:
    """Select eigenpair ``k0`` of ``h`` (sorted by real, then imaginary part), a
    Hamiltonian or its ``Spectrum``, whose eigensolve is then reused.

    With ``k0=None`` the eigenvalue of largest |imaginary part| is
    chosen, the most instructive case; ties resolve to the lowest index.
    """
    decomp = h if isinstance(h, Spectrum) else eig_general(as_square_matrix(h, "hamiltonian"))
    n = decomp.matrix.shape[0]
    if k0 is None:
        k0 = int(np.argmax(np.abs(decomp.eigenvalues.imag)))
    if not 0 <= k0 < n:
        raise ConfigError(f"k0 must lie in [0, {n - 1}], got {k0}")
    e = complex(decomp.eigenvalues[k0])
    shifted = gamma_context(decomp.matrix - e * np.eye(n, dtype=complex))
    return EigenstateContext(k0, e, decomp.right_vectors[:, k0], shifted)


@dataclass(frozen=True)
class WeakIdentityReport:
    """Grid residuals of the weak identities on the identity operator.

    With g_t and d the gamma dynamics and derivation of H_k0,
    ``identity_mean_residual`` is max_t |<phi, g_t(1) phi> - 1| and
    ``delta_mean_residual`` is |<phi, d(1) phi>|; both vanish even
    though neither g_t(1) = 1 nor d(1) = 0 holds at operator level. The
    identity mean is read as |exp(-i H_k0 t) phi|^2, off the state orbit
    from ``exact_trajectory``: the entries of g_t(1) grow with t on a
    complex spectrum and would cancel in the mean. The witness reports
    |<phi, g_t(XY) phi> - <phi, g_t(X) g_t(Y) phi>| at the last grid point
    for one random pair: the map fails to be multiplicative even weakly
    once H is not Hermitian. ``series_vs_conjugation`` is the largest
    |gamma_series(P) - g_t(P)|_2 over three random probes P at t = 0.5
    and at the last grid point.
    """

    identity_mean_residual: float
    delta_mean_residual: float
    automorphism_witness: float
    series_vs_conjugation: float


def orbit_in_range(eigenvalues, t_grid) -> bool:
    """Whether every |Im lambda| max|t| <= ``ORBIT_RANGE``, so that the H-orbit of an
    eigenvector, of squared norm exp(2 Im lambda t), stands in for its H_k0-orbit."""
    return bool(np.max(np.abs(np.imag(eigenvalues))) * np.max(np.abs(t_grid)) <= ORBIT_RANGE)


def weak_identity_report(
    ctx: EigenstateContext, t_grid, rng=None, tol_trunc: float = DEFAULT_TOL_TRUNC
) -> WeakIdentityReport:
    """``t_grid`` is a time grid, on which the H_k0-orbit of phi is stepped here, or a
    ``StateTrajectory`` of H started at ``ctx.phi_k0``: exp(-i H_k0 t) = e^{iEt} exp(-iHt)
    makes |exp(-i H_k0 t) phi|^2 = e^{-2 Im E t} ``norm_sq``, which needs
    ``orbit_in_range(E, t)``; where that fails the orbit is stepped on its grid here.
    ``rng`` draws X, Y, then the three probes; one exponential at the last
    grid point conjugates XY, X, Y and the probes, one more at t = 0.5 the
    probes. ``tol_trunc`` bounds the tail of each ``gamma_series``."""
    shifted = ctx.shifted
    n = shifted.dim
    phi = ctx.phi_k0
    if isinstance(t_grid, StateTrajectory) and orbit_in_range(ctx.e_value, t_grid.t_grid):
        orbit, scale = t_grid, np.exp(-2 * ctx.e_value.imag * t_grid.t_grid)
    else:
        # <phi, g_t(1) phi> = |exp(-i H_k0 t) phi|^2; raises on an empty grid
        grid = t_grid.t_grid if isinstance(t_grid, StateTrajectory) else t_grid
        orbit, scale = exact_trajectory(shifted.h, phi, grid), 1.0
    identity_mean = np.max(np.abs(scale * orbit.norm_sq - 1.0))
    delta_mean = abs(np.vdot(phi, delta_gamma(shifted, np.eye(n)) @ phi))

    if rng is None:
        rng = np.random.default_rng(42)
    x, y, *probes = (
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(5)
    )
    t_last = float(orbit.t_grid[-1])
    gxy, gx, gy, *last = gamma_t(shifted, np.stack([x @ y, x, y, *probes]), t_last)
    witness = abs(np.vdot(phi, gxy @ phi) - np.vdot(phi, (gx @ gy) @ phi))

    gap = 0.0
    for t, conjugated in ((0.5, gamma_t(shifted, np.stack(probes), 0.5)), (t_last, last)):
        for p, conj in zip(probes, conjugated):
            series, _ = gamma_series(shifted, p, t, tol_trunc)
            gap = max(gap, op_norm(series - conj))

    return WeakIdentityReport(
        identity_mean_residual=float(identity_mean),
        delta_mean_residual=float(delta_mean),
        automorphism_witness=float(witness),
        series_vs_conjugation=float(gap),
    )

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

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flow import exact_trajectory
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

    ``shifted`` is the gamma context of H_k0 = H - E, ``spectrum`` the eigensolve of H.
    """

    k0: int
    e_value: complex
    phi_k0: np.ndarray
    shifted: GammaContext
    spectrum: Spectrum


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
    elif isinstance(k0, bool) or not isinstance(k0, numbers.Integral):
        raise ConfigError("k0 must be an integer")
    if not 0 <= k0 < n:
        raise ConfigError(f"k0 must lie in [0, {n - 1}], got {k0}")
    e = complex(decomp.eigenvalues[k0])
    shifted = gamma_context(decomp.matrix - e * np.eye(n, dtype=complex))
    return EigenstateContext(k0, e, decomp.right_vectors[:, k0], shifted, decomp)


@dataclass(frozen=True)
class WeakIdentityReport:
    """Grid residuals of the weak identities on the identity operator.

    With g_t and d the gamma dynamics and derivation of H_k0,
    ``identity_mean_residual`` is max_t |<phi, g_t(1) phi> - 1| and
    ``delta_mean_residual`` is |<phi, d(1) phi>|; both vanish even
    though neither g_t(1) = 1 nor d(1) = 0 holds at operator level. The
    identity mean is read as |exp(-i H_k0 t) phi|^2, off the orbit of phi that
    ``weak_identity_report`` picks: the entries of g_t(1) grow with t on a
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


def weak_identity_report(
    ctx: EigenstateContext, t_grid, rng=None, tol_trunc: float = DEFAULT_TOL_TRUNC
) -> WeakIdentityReport:
    """The weak identities of ``ctx`` on the time grid ``t_grid``. While |Im lambda| max|t|
    <= ``ORBIT_RANGE`` over the spectrum, the identity mean is read off phi's H-orbit, whose
    exponentials the ``expm`` memo shares with other trajectories of H on this grid, as
    |exp(-i H_k0 t) phi|^2 = e^{-2 Im E t} |exp(-iHt) phi|^2; beyond it phi's H_k0-orbit is
    stepped. ``rng`` draws X, Y, then the three probes; ``gamma_t`` conjugates one matrix per
    call, and its calls at one time share their exponential through the ``expm`` memo.
    ``tol_trunc`` bounds the tail of each ``gamma_series``."""
    shifted = ctx.shifted
    n = shifted.dim
    phi = ctx.phi_k0
    t = np.asarray(t_grid, dtype=float)
    # <phi, g_t(1) phi> = |exp(-i H_k0 t) phi|^2; an empty grid raises in exact_trajectory
    reach = np.max(np.abs(ctx.spectrum.eigenvalues.imag)) * np.max(np.abs(t), initial=0.0)
    if reach <= ORBIT_RANGE:
        orbit = exact_trajectory(ctx.spectrum.matrix, phi, t)
        scale = np.exp(-2 * ctx.e_value.imag * orbit.t_grid)
    else:
        orbit, scale = exact_trajectory(shifted.h, phi, t), 1.0
    identity_mean = np.max(np.abs(scale * orbit.norm_sq - 1.0))
    delta_mean = abs(np.vdot(phi, delta_gamma(shifted, np.eye(n)) @ phi))

    if rng is None:
        rng = np.random.default_rng(42)
    x, y, *probes = (
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(5)
    )
    t_last = float(orbit.t_grid[-1])
    gxy, gx, gy = (gamma_t(shifted, m, t_last) for m in (x @ y, x, y))
    witness = abs(np.vdot(phi, gxy @ phi) - np.vdot(phi, (gx @ gy) @ phi))

    gap = 0.0
    for t in (0.5, t_last):
        for p, conj in zip(probes, [gamma_t(shifted, q, t) for q in probes]):
            series, _ = gamma_series(shifted, p, t, tol_trunc)
            gap = max(gap, op_norm(series - conj))

    return WeakIdentityReport(
        identity_mean_residual=float(identity_mean),
        delta_mean_residual=float(delta_mean),
        automorphism_witness=float(witness),
        series_vs_conjugation=float(gap),
    )

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

from .flow import exact_trajectory
from .gamma import (
    DEFAULT_TOL_TRUNC,
    GammaContext,
    delta_gamma,
    gamma_context,
    gamma_series,
    gamma_t,
)
from .linalg import (
    as_square_matrix, check_integer, check_times, check_tolerance, eig_general, frob, op_norm,
)


@dataclass(frozen=True)
class EigenstateContext:
    """A Hamiltonian with one selected unit eigenvector.

    ``shifted`` is the gamma context of H_k0 = H - E, built on H_k0's ``Spectrum``: H's
    eigenvectors, their conditioning and their inverse, the eigenvalues shifted by -E, and
    |H - E|_2.
    """

    k0: int
    e_value: complex
    phi_k0: np.ndarray
    shifted: GammaContext


def eigenstate_context(h, k0: int | None = None) -> EigenstateContext:
    """Select eigenpair ``k0`` of the Hamiltonian ``h`` (sorted by real, then imaginary part)
    on H's ``Spectrum`` in the ``eig_general`` memo; ``shifted`` is built on ``Spectrum.shifted``.

    ``k0`` is an integer in [0, N - 1]. With ``k0=None`` the eigenvalue of
    largest |imaginary part| is chosen, the most instructive case; ties
    resolve to the lowest index.
    """
    decomp = eig_general(as_square_matrix(h, "hamiltonian"))
    if k0 is None:
        k0 = int(np.argmax(np.abs(decomp.eigenvalues.imag)))
    k0 = check_integer(k0, "k0", 0, len(decomp.eigenvalues) - 1)
    e = complex(decomp.eigenvalues[k0])
    return EigenstateContext(k0, e, decomp.right_vectors[:, k0], gamma_context(decomp.shifted(e)))


@dataclass(frozen=True)
class WeakIdentityReport:
    """Grid residuals of the weak identities on the identity operator.

    With g_t and d the gamma dynamics and derivation of H_k0,
    ``identity_mean_residual`` is max_t |<phi, g_t(1) phi> - 1| and
    ``delta_mean_residual`` is |<phi, d(1) phi>|; both vanish even
    though neither g_t(1) = 1 nor d(1) = 0 holds at operator level. The
    identity mean is read as |exp(-i H_k0 t) phi|^2, off phi's H_k0-orbit: the
    entries of g_t(1) grow with t on a complex spectrum and would cancel in the
    mean. The witness reports |<phi, g_t(XY) phi> - <phi, g_t(X) g_t(Y) phi>|
    at the last grid point for one random pair: the map fails to be
    multiplicative even weakly once H is not Hermitian. ``series_vs_conjugation``
    is the largest |S_t(P) - g_t(P)|_2 over three random probes P at t = 0.5 and
    at the last grid point, S_t the exponential series of d summed by ``gamma_series``
    on the route ``series_route`` names: "eig" or "terms".
    """

    identity_mean_residual: float
    delta_mean_residual: float
    automorphism_witness: float
    series_vs_conjugation: float
    series_route: str


def weak_identity_report(
    ctx: EigenstateContext, t_grid, rng=None, tol_trunc: float = DEFAULT_TOL_TRUNC
) -> WeakIdentityReport:
    """The weak identities of ``ctx`` on the time grid ``t_grid``. The identity mean is read
    off phi's H_k0-orbit, anchored on the spectrum of ``ctx.shifted``. ``rng`` draws X, Y,
    then the three probes; ``gamma_t`` conjugates one matrix per call, and its calls at one
    time share their exponential through the ``expm`` memo. ``gamma_series`` sums each probe
    once per time, the larger time first: by terms, or on the eig route (H_k0's spectrum well
    conditioned) in closed form in delta's eigenbasis; ``tol_trunc``, checked first, picks the
    route and bounds its error. A difference whose Frobenius norm is below the largest 2-norm
    so far cannot raise it and takes no SVD."""
    check_tolerance(tol_trunc, "tol_trunc")
    shifted, phi, n = ctx.shifted, ctx.phi_k0, ctx.shifted.dim
    t = check_times(t_grid, "t_grid")[0]
    # <phi, g_t(1) phi> = |exp(-i H_k0 t) phi|^2
    orbit = exact_trajectory(shifted, phi, t)
    identity_mean = np.max(np.abs(orbit.norm_sq - 1.0))
    delta_mean = abs(np.vdot(phi, delta_gamma(shifted, np.eye(n)) @ phi))

    rng = np.random.default_rng(42) if rng is None else rng
    x, y, *probes = (
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(5)
    )
    t_last = float(orbit.t_grid[-1])
    gxy, gx, gy = (gamma_t(shifted, m, t_last) for m in (x @ y, x, y))
    witness = abs(np.vdot(phi, gxy @ phi) - np.vdot(phi, (gx @ gy) @ phi))

    # the larger time first, where the gaps are large; one sum serves t_last = 0.5
    times = tuple(dict.fromkeys(sorted((t_last, 0.5), key=abs, reverse=True)))
    gap = 0.0
    for p in probes:
        for t in times:
            diff = gamma_series(shifted, p, t, tol_trunc)[0] - gamma_t(shifted, p, t)
            # |D|_2 <= |D|_F; the margin covers the rounding of both norms
            if frob(diff) * (1.0 + 1e-8) >= gap:
                gap = max(gap, op_norm(diff))

    return WeakIdentityReport(
        identity_mean_residual=float(identity_mean),
        delta_mean_residual=float(delta_mean),
        automorphism_witness=float(witness),
        series_vs_conjugation=float(gap),
        series_route=shifted.series_route(tol_trunc),
    )

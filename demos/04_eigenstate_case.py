"""
Starting from an eigenstate: the derivation freezes
===================================================

If the initial normalized state is an eigenvector of H with eigenvalue
E = E_r + iE_i, the nonlinear scalar is the constant -2iE_i and the
state-dependent derivation becomes time independent. Its exponential
series then has a closed sum: conjugation by the evolution of the
shifted Hamiltonian H - E. On the identity operator the shifted
dynamics behaves correctly only in the mean, and it is not
multiplicative even weakly.
"""

import numpy as np

from nhdyn import (
    eigenstate_context,
    exact_trajectory,
    gamma_series,
    gamma_t,
    mean_derivative,
    op_norm,
    weak_identity_report,
)
from nhdyn.ensembles import random_hamiltonian, random_matrix

rng = np.random.default_rng(4)
h = random_hamiltonian(5, rng, kind="complex_spectrum", scale=0.8)
ctx = eigenstate_context(h)
print(f"selected eigenvalue E = {ctx.e_value:.4f} (index {ctx.k0})")

# the normalized trajectory is a pure phase orbit of the eigenvector
t = np.linspace(0.0, 2.0, 21)
traj = exact_trajectory(h, ctx.phi_k0, t)
phase_orbit = np.exp(-1j * ctx.e_value.real * t)[:, None] * ctx.phi_k0[None, :]
print("distance from the phase orbit:", np.abs(traj.psi_hat - phase_orbit).max())

# series of the frozen derivation vs conjugation by the shifted flow:
# both are the gamma dynamics of H - E, held in ctx.shifted
worst = 0.0
for _ in range(5):
    x = random_matrix(5, rng)
    for tau in (0.25, 1.0, 2.0):
        series, _ = gamma_series(ctx.shifted, x, tau, 1e-13)
        worst = max(worst, op_norm(series - gamma_t(ctx.shifted, x, tau)))
print(f"series vs shifted conjugation, worst gap: {worst:.2e}")

# weak identities on the identity operator, and the failure of
# multiplicativity even in the mean
report = weak_identity_report(ctx, t, np.random.default_rng(1))
print(f"mean of the shifted gamma_t(1) stays 1 to {report.identity_mean_residual:.2e}")
print(f"mean of the frozen derivation of 1 is 0 to {report.delta_mean_residual:.2e}")
print(f"multiplicativity witness (nonzero = not an automorphism): "
      f"{report.automorphism_witness:.3f}")

# from an eigenstate, every observable is a weak integral of motion
drifts = [abs(mean_derivative(h, random_matrix(5, rng), v))
          for v in traj.psi_hat[::5]]
print("largest mean-value drift over random observables:", max(drifts))

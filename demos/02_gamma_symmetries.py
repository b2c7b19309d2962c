"""
Observable dynamics and its fixed points
========================================

For non-Hermitian H the Heisenberg-like evolution of observables is the
conjugation gamma_t(X) = exp(iH^†t) X exp(-iHt). Its fixed points, the
gamma-symmetries, solve the intertwining relation H^† X = X H; they form
a linear space which nhdyn extracts as a nullspace, and right
multiplication by powers of H maps the space into itself.
"""

import numpy as np

from nhdyn import (
    delta_gamma,
    gamma_context,
    gamma_series,
    gamma_symmetry_basis,
    gamma_t,
    op_norm,
)

np.set_printoptions(precision=4, suppress=True)

h = np.array([[0.0, 1.0], [0.0, 0.0]])
ctx = gamma_context(h)

# the identity operator is NOT preserved once H is not Hermitian
one = np.eye(2)
print("gamma_1(identity):\n", gamma_t(ctx, one, 1.0))
print("generator delta_gamma(identity) = i(H^† - H):\n", delta_gamma(ctx, one))

# the exponential series of the generator reproduces the conjugation,
# stopped once a computed term certifies the rest of it
total, terms = gamma_series(ctx, one, 1.0, tol_trunc=1e-12)
print(f"\nseries with {terms} certified terms matches the closed form to "
      f"{op_norm(total - gamma_t(ctx, one, 1.0)):.2e}")

# all symmetries of the nilpotent block
basis = gamma_symmetry_basis(ctx)
print(f"\nsymmetry space dimension: {len(basis.generators)}")
for k, x in enumerate(basis.generators):
    print(f"generator {k}:\n", x)
print("worst intertwining residual:", max(basis.residuals))
print("chain span dimension for S H^k, S the sum of the generators:", basis.chain_closure_dim)

# each symmetry is frozen by the dynamics at any time
for x in basis.generators:
    drift = max(op_norm(gamma_t(ctx, x, t) - x) for t in (0.5, 1.0, 2.0))
    print(f"max |gamma_t(X) - X| over t in (0.5, 1, 2): {drift:.2e}")

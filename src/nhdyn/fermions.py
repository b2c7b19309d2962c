"""Three-mode fermionic model with a nilpotent transfer Hamiltonian.

Mode operators b_j are realized as Jordan-Wigner matrices on C^(2^n),
satisfying the canonical anticommutation relations

    {b_k, b_j^†} = delta_kj * 1,     b_j^2 = 0.

The occupation basis vector phi_{ijk} = (b_1^†)^i (b_2^†)^j (b_3^†)^k
phi_000 sits in column 4i + 2j + k (zero-based), with phi_000 = e_1;
with this application order all Jordan-Wigner signs are +1.

The model Hamiltonian H = b_1^† (lambda b_2 + mu b_3) transfers
occupation from modes 2 and 3 into mode 1. It squares to zero, so the
propagator is exactly linear in time, U(t) = 1 - iHt, and the two
initial conditions phi_011 and phi_010 admit closed-form occupation
numbers n_j(t) = <psi_hat, N_j psi_hat>:

    phi_011:  n1 = (l^2+m^2) t^2 / D,  n2 = (1 + m^2 t^2) / D,
              n3 = (1 + l^2 t^2) / D,  D = 1 + (l^2+m^2) t^2
    phi_010:  n1 = l^2 t^2 / d,  n2 = 1 / d,  n3 = 0,  d = 1 + l^2 t^2

so n1+n2+n3 is conserved (2 and 1 respectively) even though neither
initial state is an eigenvector of H. The nonlinear scalar on these
trajectories is -2it (l^2+m^2)/D and -2it l^2/d; the first is the time
derivative of log D required by dD/dt = i <psi,(H^†-H)psi>, which pins
the sign and the sum of squares in the numerator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flow import StateTrajectory, exact_trajectory
from .gamma import delta_gamma, gamma_context
from .linalg import as_complex_matrix, check_integer, check_times, check_tolerance, frob
from .linalg import mean_values

MAX_MODES = 10


@dataclass(frozen=True)
class CarAlgebra:
    """Jordan-Wigner realization of n fermionic modes on C^(2^n)."""

    n_modes: int
    dim: int
    lowering: tuple[np.ndarray, ...]
    number_ops: tuple[np.ndarray, ...]
    basis_labels: dict[tuple[int, ...], int]

    def raising(self, j: int) -> np.ndarray:
        """Creation operator for mode j (1-based)."""
        return self.lowering[j - 1].conj().T

    def basis_state(self, label) -> np.ndarray:
        """Unit occupation-basis vector for a label like "011" or (0,1,1)."""
        occ = parse_occupation_label(label, self.n_modes)
        v = np.zeros(self.dim, dtype=complex)
        v[self.basis_labels[occ]] = 1.0
        return v


def parse_occupation_label(label, n_modes: int) -> tuple[int, ...]:
    """A string of ``n_modes`` characters 0/1, or a list or tuple of ``n_modes`` bits,
    each an integer in [0, 1] (``check_integer``), as a tuple of ints."""
    if isinstance(label, str):
        bits = label.strip()
        if len(bits) != n_modes or any(c not in "01" for c in bits):
            raise ConfigError(
                f"occupation label must be {n_modes} characters of 0/1, "
                f"got {label!r}"
            )
        return tuple(int(c) for c in bits)
    if not isinstance(label, (list, tuple)) or len(label) != n_modes:
        raise ConfigError(f"occupation label must be a string or {n_modes} bits, got {label!r}")
    return tuple(check_integer(b, "occupation label bit", 0, 1) for b in label)


def build_car(n_modes: int) -> CarAlgebra:
    """Construct the mode matrices with the standard sign-string convention;
    ``n_modes`` is an integer in [1, MAX_MODES]."""
    n_modes = check_integer(n_modes, "n_modes", 1, MAX_MODES)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    low = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)

    lowering = []
    for j in range(n_modes):
        factors = [sz] * j + [low] + [eye2] * (n_modes - j - 1)
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        lowering.append(m)

    number_ops = tuple(b.conj().T @ b for b in lowering)
    dim = 2**n_modes
    labels = {}
    for idx in range(dim):
        occ = tuple((idx >> (n_modes - 1 - j)) & 1 for j in range(n_modes))
        labels[occ] = idx
    return CarAlgebra(
        n_modes=n_modes,
        dim=dim,
        lowering=tuple(lowering),
        number_ops=number_ops,
        basis_labels=labels,
    )


@dataclass(frozen=True)
class DmModel:
    """The two-parameter transfer model on three modes."""

    algebra: CarAlgebra
    lam: float
    mu: float
    h: np.ndarray

    @property
    def number_total(self) -> np.ndarray:
        return sum(self.algebra.number_ops)


def build_dm_model(lam: float, mu: float) -> DmModel:
    """Assemble H = b_1^† (lam b_2 + mu b_3) on the 8-dimensional space.

    Each coupling must be a finite non-bool real number > 0 and is kept as a float.
    """
    lam, mu = check_tolerance(lam, "lam"), check_tolerance(mu, "mu")
    algebra = build_car(3)
    b1, b2, b3 = algebra.lowering
    h = b1.conj().T @ (lam * b2 + mu * b3)
    return DmModel(algebra=algebra, lam=lam, mu=mu, h=h)


_CLOSED_FORM_LABELS = {(0, 1, 1), (0, 1, 0)}


def _solved(model: DmModel, initial, t):
    """The label, ``t`` as floats of any shape (each one a time), then t c, l^2, m^2, the
    label's rate s (l^2 + m^2 for 011, l^2 for 010) and D = 1 + s t^2 for the couplings over
    the power of two c that brings the label's larger one into [1, 2), where D overflows
    (where the callers return limits) and c. The values depend on l t and m t alone, s is
    finite, and each product keeps its bits wherever it is normal with and without c; a
    label with no closed form raises."""
    occ = parse_occupation_label(initial, 3)
    if occ not in _CLOSED_FORM_LABELS:
        raise ConfigError(f"no closed form for initial state {occ}; use simulate_occupations")
    tt = check_times(np.ravel(t), "t", 0)[0].reshape(np.shape(t))
    top = max(model.lam, model.mu) if occ == (0, 1, 1) else model.lam
    c = np.ldexp(1.0, np.frexp(top)[1] - 1)  # top / c lies in [1, 2)
    with np.errstate(over="ignore"):  # m / c of a label that leaves m out, or D
        l2, m2 = np.square(np.divide([model.lam, model.mu], c))
        rate = l2 + m2 if occ == (0, 1, 1) else l2
        ts = c * tt
        den = 1.0 + rate * ts**2
    return occ, tt, ts, l2, m2, rate, den, np.isinf(den), c


def closed_form_occupations(model: DmModel, initial, t):
    """Closed-form (n1, n2, n3) for the two analytically solved initial states.

    ``t`` may be a scalar or an array. Where D = 1 + s t^2 overflows (|t| past about
    1e154 at unit couplings), each value is its limit as t -> inf, exact to within 1/D.
    Unsupported labels raise ``ConfigError``; the simulator covers them numerically instead.
    """
    occ, tt, ts, l2, m2, rate, den, far, _ = _solved(model, initial, t)
    with np.errstate(over="ignore", invalid="ignore"):  # inf / inf where far
        n1 = np.where(far, 1.0, rate * ts**2 / den)[()]
        if occ == (0, 1, 1):
            n2 = np.where(far, m2 / rate, (1.0 + m2 * ts**2) / den)[()]
            return n1, n2, np.where(far, l2 / rate, (1.0 + l2 * ts**2) / den)[()]
    return n1, 1.0 / den, np.zeros_like(tt)


def closed_form_scalar(model: DmModel, initial, t):
    """Closed-form nonlinear scalar <psi_hat,(H^†-H)psi_hat> on the two
    solved trajectories (purely imaginary; see the module docstring for
    why the numerator carries the sum of squared couplings); -2i/t where D overflows."""
    _, tt, ts, _, _, rate, den, far, c = _solved(model, initial, t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # masked by far
        return np.where(far, -2j / tt, -2j * ts * rate / den * c)[()]


@dataclass(frozen=True)
class OccupationTrajectory:
    """Occupation numbers, their sum and the nonlinear scalar on a grid."""

    t_grid: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    total: np.ndarray
    scalar: np.ndarray
    states: StateTrajectory


def occupations(model: DmModel, states: StateTrajectory) -> OccupationTrajectory:
    """Occupation numbers and nonlinear scalar read off a given trajectory."""
    v = as_complex_matrix(states.psi_hat, "psi_hat", model.algebra.dim)
    n1, n2, n3 = (mean_values(nj, v).real for nj in model.algebra.number_ops)
    scalar = mean_values(model.h.conj().T - model.h, v)
    return OccupationTrajectory(states.t_grid, n1, n2, n3, n1 + n2 + n3, scalar, states)


def simulate_occupations(model: DmModel, initial, t_grid) -> OccupationTrajectory:
    """Numerical occupation numbers via the matrix-exponential trajectory.

    Works for any occupation-basis initial label; for the two closed-form
    cases it agrees with ``closed_form_occupations`` to ~1e-11. The
    propagator is also exactly 1 - iHt here (H is nilpotent), which the
    test-suite uses as an independent oracle.
    """
    return occupations(
        model, exact_trajectory(model.h, model.algebra.basis_state(initial), t_grid)
    )


def delta_gamma_number_check(model: DmModel) -> float:
    """Residual of the closed-form derivation of the total number operator.

    delta_gamma(N) factors through the mode-exchange blocks:

        i lam (b2^† b1 - b1^† b2)(1 + N3) + i mu (b3^† b1 - b1^† b3)(1 + N2)

    and the Frobenius mismatch against the generic derivation stays at
    roundoff (<= 1e-12) for any couplings.
    """
    alg = model.algebra
    b1, b2, b3 = alg.lowering
    n2, n3 = alg.number_ops[1], alg.number_ops[2]
    eye = np.eye(alg.dim, dtype=complex)

    rhs = 1j * model.lam * (b2.conj().T @ b1 - b1.conj().T @ b2) @ (eye + n3)
    rhs += 1j * model.mu * (b3.conj().T @ b1 - b1.conj().T @ b3) @ (eye + n2)

    lhs = delta_gamma(gamma_context(model.h), model.number_total)
    return frob(lhs - rhs)


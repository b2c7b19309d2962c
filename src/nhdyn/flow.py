"""Dynamics of the normalized state and state-dependent conservation tests.

When H is not Hermitian the Schroedinger solution psi(t) = exp(-iHt) psi0
changes norm, so mean values are taken on the normalized state
psi_hat(t) = psi(t) / |psi(t)|. That state solves a nonlinear equation

    i d/dt psi_hat = H_nl(t) psi_hat,
    H_nl(t) = H + (1/2) <psi_hat, (H^† - H) psi_hat> * 1,

whose generator on observables is the state-dependent derivation

    delta_psi_hat(X; psi_hat) = delta_gamma(X) - i X <psi_hat, (H^† - H) psi_hat>.

Three nested notions of conservation are measured here, each as a
residual over one trajectory:

* gamma-symmetry:      delta_gamma(X) = 0         (state-independent)
* psi_hat-integral:    delta_psi_hat(X; t) = 0    (operator level)
* weak psi_hat-integral: <psi_hat, delta_psi_hat(X; t) psi_hat> = 0
                         (mean values only)

The identity operator is the canonical separator: it is always a weak
integral but an operator-level integral only for Hermitian H.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .ensembles import random_unit_vector
from .errors import CertificationError, ConfigError, InstabilityError, NumericRangeError
from .gamma import delta_gamma, gamma_context
from .linalg import (
    as_complex_matrix, as_square_matrix, as_state_vector, expm, mean_values, op_norm
)

DEFAULT_TOL_CLASS = 1e-8
UNIT_NORM_TOL = 1e-10
ANCHOR = 25  # grid points per stepped segment of exact_trajectory
STEP_TOL = 1e-12  # relative anchor gap per unit of anchor cond that forces a recompute


@dataclass(frozen=True)
class StateTrajectory:
    """Time grid with raw states, normalized states and squared norms.

    ``psi`` and ``psi_hat`` have one state per row; ``norm_sq[j]`` equals
    ``|psi[j]|^2`` and ``psi_hat[j] = psi[j] / |psi[j]|`` to 1e-12.
    ``anchor_gap`` and ``fallback_segments`` record the path
    ``exact_trajectory`` took (both 0 where it did not step).
    """

    t_grid: np.ndarray
    psi: np.ndarray
    psi_hat: np.ndarray
    norm_sq: np.ndarray
    anchor_gap: float = 0.0
    fallback_segments: int = 0


def _unit_vector(v, dim: int | None, tol: float, name: str) -> np.ndarray:
    w = as_state_vector(v, dim, name)
    nrm = np.linalg.norm(w)
    if abs(nrm - 1.0) > tol:
        raise ConfigError(f"{name} must be normalized, |{name}| = {nrm:.12g}")
    return w


def _check_count(value, name: str) -> None:
    """An integer >= 1; bool is an ``Integral`` but not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1")


def _trajectory_from_states(t, states, gap=0.0, fallbacks=0) -> StateTrajectory:
    norms = np.linalg.norm(states, axis=1)  # unscaled: inf from |psi| ~ 1e154 on
    if not np.isfinite(norms).all():
        raise NumericRangeError("state norm is non-finite along the trajectory")
    if np.any(norms == 0.0):
        raise InstabilityError("state norm vanished along the trajectory")
    return StateTrajectory(t, states, states / norms[:, None], norms**2, gap, fallbacks)


def _uniform_step(t: np.ndarray) -> float | None:
    """The common step of ``t``, or None if steps differ by > 1e-12 max(|dt|, 1)."""
    steps = np.diff(t)
    ok = steps.size and np.max(np.abs(steps - steps[0])) <= 1e-12 * max(abs(steps[0]), 1.0)
    return float(steps[0]) if ok else None


def exact_trajectory(h, psi0, t_grid) -> StateTrajectory:
    """Propagate a normalized state: ``psi[j] = expm(-i H t_j) psi0``.

    A uniform grid is stepped with one U = expm(-i H dt) between anchors
    (every ``ANCHOR``-th and the last point) that take a fresh U_j = expm(-i H t_j).
    Guard: the state stepped into an anchor must match U_j psi0 within
    ``STEP_TOL * cond`` relative, cond = max(1, |U_j|_F / sqrt(N)) / |U_j psi0| (the
    anchor's own roundoff), else that segment is redone point by point, as is a
    non-uniform grid. Calls on one H and one grid share their exponentials through
    the ``expm`` memo.
    """
    hm = as_square_matrix(h, "hamiltonian")
    n = hm.shape[0]
    v0 = _unit_vector(psi0, n, 1e-12, "psi0")
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if t.size == 0:
        raise ConfigError("t_grid is empty")
    dt = _uniform_step(t)
    # below three points every point is an anchor and there is nothing to step
    step = None if dt is None or t.size < 3 else expm(-1j * hm * dt)
    states = np.empty((t.size, n), dtype=complex)
    worst, fallbacks, start = 0.0, 0, 0
    for j, tj in enumerate(t):
        stepped = step is not None and j > 0
        if stepped:
            step.dot(states[j - 1], out=states[j])
            if j % ANCHOR and j < t.size - 1:
                continue
        u = expm(-1j * hm * tj)
        fresh = u @ v0
        if stepped:
            miss = np.linalg.norm(states[j] - fresh)
            worst = max(worst, float(miss / np.linalg.norm(fresh)))
            # gap <= STEP_TOL * cond, both sides times |U_j psi0|
            if not miss <= STEP_TOL * max(1.0, np.linalg.norm(u) / np.sqrt(n)):
                fallbacks += 1
                for i in range(start + 1, j):
                    states[i] = expm(-1j * hm * t[i]) @ v0
        states[j] = fresh
        start = j
    return _trajectory_from_states(t, states, worst, fallbacks)


def nonhermiticity_scalar(h, psi_hat) -> complex:
    """The quadratic form <psi_hat, (H^† - H) psi_hat> (purely imaginary)."""
    hm = as_square_matrix(h, "hamiltonian")
    return mean_value(hm.conj().T - hm, psi_hat)


def h_nl(h, psi_hat) -> np.ndarray:
    """State-dependent Hamiltonian of the normalized flow.

    H_nl = H + (1/2) <psi_hat, (H^† - H) psi_hat> * 1. The scalar term is
    purely imaginary, so H_nl + H_nl^† = H + H^† independently of the
    state.
    """
    hm = as_square_matrix(h, "hamiltonian")
    v = _unit_vector(psi_hat, hm.shape[0], UNIT_NORM_TOL, "psi_hat")
    scalar = nonhermiticity_scalar(hm, v)
    return hm + 0.5 * scalar * np.eye(hm.shape[0], dtype=complex)


def _rk4_weights(g: list) -> list:
    """Real weights w with v' = sum_j w_j M^j v for one RK4 substep from v.

    M = -i dt H, and ``g[j][k] = Re <M^j v, b M^k v>`` (j, k < 4) with the
    Hermitian b = -(i/2) dt (H^† - H), so dt f(u) = (M + <u, b u>) u. Every
    stage vector u is a real combination of v, ..., M^3 v, and its stage
    scalar s = <u, b u> is the quadratic form of g on those coefficients, written
    out with its constant coefficients (1/2, 1/4) in place and its zero terms
    dropped; each product it takes is kept, so the weights are bit for bit its own.
    """
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (*_, g33) = g
    a0 = 1.0 + 0.5 * g00  # u2 = v + dt k1 / 2 = a0 v + Mv / 2
    s2 = a0 * (a0 * g00 + 2.0 * (0.5 * g01)) + 0.5 * (0.5 * g11)
    b0, b1 = 1.0 + 0.5 * s2 * a0, 0.5 * (a0 + s2 * 0.5)  # u3 = v + dt k2 / 2, b2 = 1/4
    s3 = (b0 * (b0 * g00 + 2.0 * (b1 * g01 + 0.25 * g02))
          + b1 * (b1 * g11 + 2.0 * (0.25 * g12)) + 0.25 * (0.25 * g22))
    c0, c1, c2 = 1.0 + s3 * b0, b0 + s3 * b1, b1 + s3 * 0.25  # u4 = v + dt k3, c3 = 1/4
    s4 = (c0 * (c0 * g00 + 2.0 * (c1 * g01 + c2 * g02 + 0.25 * g03))
          + c1 * (c1 * g11 + 2.0 * (c2 * g12 + 0.25 * g13))
          + c2 * (c2 * g22 + 2.0 * 0.25 * g23) + 0.25 * 0.25 * g33)
    # v + (dt k1 + 2 dt k2 + 2 dt k3 + dt k4) / 6 = (u2 + 2 u3 + u4 - v) / 3 + dt k4 / 6
    # with dt k4 = (M + s4) u4
    return [
        (a0 + 2.0 * b0 + c0 - 1.0) / 3.0 + s4 * c0 / 6.0,
        (0.5 + 2.0 * b1 + c1) / 3.0 + (c0 + s4 * c1) / 6.0,
        (0.5 + c2) / 3.0 + (c1 + s4 * c2) / 6.0,
        0.25 / 3.0 + (c2 + s4 * 0.25) / 6.0,
        0.25 / 6.0,
    ]


def integrate_nonlinear(
    h, psi_hat0, t_grid, substeps: int = 1
) -> tuple[StateTrajectory, float]:
    """Integrate the nonlinear equation with the classical 4th-order stepper.

    The nonlinear scalar is re-evaluated at every stage. The normalized
    state is never re-normalized mid-run, so norm drift stays visible as
    an integrator diagnostic. Each substep takes one product of the
    precomputed stack [M, ..., M^4, b, bM, bM^2, bM^3] (M = -i dt H, b as
    in ``_rk4_weights``) with v and one 4x4 real Gram matrix; the stages
    are then scalar arithmetic on the coefficients of v, ..., M^4 v. All
    three products go through ``ndarray.dot`` into buffers allocated once
    per call, the last into the state's own row, with the bits of ``@``.
    Returns the trajectory and ``max_deviation``, the worst distance to
    the matrix-exponential reference; a deviation above 0.1, or a state
    that left the float range, raises ``InstabilityError``.
    """
    hm = as_square_matrix(h, "hamiltonian")
    v0 = _unit_vector(psi_hat0, hm.shape[0], 1e-12, "psi_hat0")
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if t.size < 2:
        raise ConfigError("t_grid needs at least two points")
    step = _uniform_step(t)
    if step is None:
        raise ConfigError("t_grid must be uniform")
    _check_count(substeps, "substeps")

    n = hm.shape[0]
    dt = step / substeps
    m = -1j * dt * hm
    b = -0.5j * dt * (hm.conj().T - hm)
    powers = list(accumulate([m] * 4, np.matmul))  # M, ..., M^4
    stack = np.vstack(powers + [b] + [b @ p for p in powers[:3]])
    rows = np.empty((9, n), dtype=complex)  # v, Mv, ..., M^4 v, bv, ..., bM^3 v
    products, krylov = rows[1:].reshape(-1), rows[:5]
    # (left @ right)[j, k] = Re <M^j v, b M^k v>: real and imaginary parts side by side
    left, right = rows[:4].view(float), rows[5:].view(float).T
    gram, weights = np.empty((4, 4)), np.empty(5, dtype=complex)
    states = np.empty((t.size, n), dtype=complex)
    states[0] = rows[0] = v0
    reference = exact_trajectory(hm, v0, t)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run raises below
        for j in range(1, t.size):
            for _ in range(substeps):
                stack.dot(rows[0], out=products)
                left.dot(right, out=gram)
                weights[:] = _rk4_weights(gram.tolist())
                weights.dot(krylov, out=states[j])
                rows[0] = states[j]
        deviation = float(np.max(np.linalg.norm(states - reference.psi_hat, axis=1)))
    if not deviation <= 0.1:
        raise InstabilityError(
            f"nonlinear integration deviates by {deviation:.3g}; "
            f"increase substeps (current {substeps})"
        )
    return _trajectory_from_states(t, states), deviation


def mean_value(x, psi_hat) -> complex:
    """Quadratic form <psi_hat, X psi_hat>."""
    xm = as_square_matrix(x, "observable")
    v = as_state_vector(psi_hat, xm.shape[0], "psi_hat")
    return complex(np.vdot(v, xm @ v))


def delta_psi_hat(h, x, psi_hat) -> np.ndarray:
    """State-dependent derivation delta_gamma(X) - i X <psi_hat,(H^†-H)psi_hat>.

    Algebraically equal to i (H_nl^† X - X H_nl); its operator norm is
    bounded by 4 |H| |X|.
    """
    hm = as_square_matrix(h, "hamiltonian")
    xm = as_square_matrix(x, "observable", hm.shape[0])
    v = _unit_vector(psi_hat, hm.shape[0], UNIT_NORM_TOL, "psi_hat")
    scalar = nonhermiticity_scalar(hm, v)
    return 1j * (hm.conj().T @ xm - xm @ hm) - 1j * scalar * xm


def mean_derivative(h, x, psi_hat) -> complex:
    """Time derivative of <psi_hat, X psi_hat> expressed through the derivation."""
    return mean_value(delta_psi_hat(h, x, psi_hat), psi_hat)


@dataclass(frozen=True)
class ClassificationReport:
    """Residual-based membership of one observable in the three classes.

    Residuals are operator 2-norms (moduli for the weak class) taken as
    suprema over the checked states; verdicts threshold them at
    ``tol_class``. An operator-level integral is automatically a weak
    one, so ``in_c_psi_hat`` implies ``in_c_psi_hat_weak``.
    """

    observable_name: str
    c_gamma_residual: float
    c_psi_hat_residual: float
    c_psi_hat_weak_residual: float
    in_c_gamma: bool
    in_c_psi_hat: bool
    in_c_psi_hat_weak: bool
    tol_class: float


def _weak_residual(h, x, psi_hat):
    """X, D = delta_gamma(X), H^† - H, s_t = <v, (H^† - H) v> over the rows v of
    ``psi_hat``, and the weak residual max_t |<v, D v> - i s_t <v, X v>|."""
    hm = as_square_matrix(h, "hamiltonian")
    xm = as_square_matrix(x, "observable")
    v = as_complex_matrix(psi_hat, "psi_hat", hm.shape[0])
    if not np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= UNIT_NORM_TOL):
        raise ConfigError("trajectory states psi_hat must be normalized")
    dg = delta_gamma(gamma_context(hm), xm)
    anti = hm.conj().T - hm
    s = mean_values(anti, v)
    weak = np.max(np.abs(mean_values(dg, v) - 1j * s * mean_values(xm, v)))
    return xm, dg, anti, s, float(weak)


def classify(
    h,
    x,
    trajectory: StateTrajectory,
    tol_class: float = DEFAULT_TOL_CLASS,
    name: str = "X",
) -> ClassificationReport:
    """Classify one observable against one trajectory."""
    return _classify_rows(h, x, trajectory.psi_hat, tol_class, name)


def _classify_rows(h, x, psi_hat, tol_class: float, name: str) -> ClassificationReport:
    """Classify one observable over the normalized states in the rows of ``psi_hat``.

    delta_psi_hat = D + a_t X with D = delta_gamma(X) and real
    a_t = Im <psi_hat, (H^† - H) psi_hat>; |D + a X|_2 is convex in a, so its
    maximum over the rows sits at the extreme a_t: two SVDs, not one per row.
    """
    xm, dg, _, s, weak = _weak_residual(h, x, psi_hat)
    gamma_res = op_norm(dg)
    strong = max(op_norm(dg + a * xm) for a in (s.imag.min(), s.imag.max()))
    return ClassificationReport(
        observable_name=name,
        c_gamma_residual=float(gamma_res),
        c_psi_hat_residual=float(strong),
        c_psi_hat_weak_residual=float(weak),
        in_c_gamma=bool(gamma_res <= tol_class),
        in_c_psi_hat=bool(strong <= tol_class),
        in_c_psi_hat_weak=bool(weak <= tol_class),
        tol_class=tol_class,
    )


def classify_ensemble(
    h,
    x,
    t_grid,
    n_states: int,
    rng: np.random.Generator,
    tol_class: float = DEFAULT_TOL_CLASS,
    name: str = "X",
) -> ClassificationReport:
    """Worst-case classification over an ensemble of random initial states.

    Membership in the state-dependent classes is relative to a
    trajectory; this re-tests over ``n_states`` Haar-like random unit
    vectors, propagated one call each and classified as one set of rows.
    Each residual is a maximum over rows, so it is the worst state's (the
    strong one to roundoff, which decides it when a_t is roundoff itself).
    """
    hm = as_square_matrix(h, "hamiltonian")
    _check_count(n_states, "n_states")
    states = [random_unit_vector(hm.shape[0], rng) for _ in range(n_states)]
    rows = np.concatenate([exact_trajectory(hm, v, t_grid).psi_hat for v in states])
    return _classify_rows(hm, x, rows, tol_class, name)


def gamma_symmetry_decay_check(h, x, trajectory: StateTrajectory) -> float:
    """Check the decay law x(t) = x(0) / |psi(t)|^2 for a gamma-symmetry.

    The mean value of a symmetry on the normalized trajectory is fully
    determined by the initial mean and the norm history. Requires the
    trajectory to start normalized and ``x`` to be a symmetry to 1e-9
    relative to |H| |X|; otherwise raises ``CertificationError``.
    """
    ctx = gamma_context(h)
    xm = as_square_matrix(x, "observable")
    v = as_complex_matrix(trajectory.psi_hat, "psi_hat", ctx.dim)
    residual = op_norm(delta_gamma(ctx, xm))
    bound = 1e-9 * max(1.0, ctx.h_norm * op_norm(xm))
    if residual > bound:
        raise CertificationError(
            f"observable is not a gamma-symmetry: |delta_gamma(X)| = "
            f"{residual:.3e} > {bound:.3e}"
        )
    if abs(trajectory.norm_sq[0] - 1.0) > 1e-10:
        raise ConfigError("trajectory must be normalized at its first grid point")

    means = mean_values(xm, v)
    predicted = means[0] / trajectory.norm_sq * trajectory.norm_sq[0]
    return float(np.max(np.abs(means - predicted)))


class NecessaryConditionResult(NamedTuple):
    """Mismatch of the weak-integral identity on the un-normalized states."""

    max_residual: float
    premise_residual: float
    premise_ok: bool


def necessary_condition_residual(
    h, x, trajectory: StateTrajectory, x0: complex
) -> NecessaryConditionResult:
    """Test <psi, delta_gamma(X) psi> = i x0 <psi, (H^† - H) psi> on the grid.

    Both sides use the un-normalized states. The identity is necessary
    for X to be a weak integral with constant mean ``x0``; the premise,
    ``classify``'s weak residual within ``DEFAULT_TOL_CLASS``, is re-verified
    from means alone and reported rather than assumed.
    """
    _, dg, anti, _, premise = _weak_residual(h, x, trajectory.psi_hat)
    gap = mean_values(dg, trajectory.psi) - 1j * x0 * mean_values(anti, trajectory.psi)
    return NecessaryConditionResult(
        max_residual=float(np.max(np.abs(gap))),
        premise_residual=float(premise),
        premise_ok=bool(premise <= DEFAULT_TOL_CLASS),
    )

"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import time

import numpy as np
import pytest

from nhdyn import (
    build_biorthogonal,
    build_dm_model,
    classify,
    delta_gamma,
    delta_gamma_number_check,
    eigenstate_context,
    exact_trajectory,
    expm,
    gamma_context,
    gamma_series,
    gamma_symmetry_basis,
    gamma_t,
    h_nl,
    integrate_nonlinear,
    op_norm,
    similar_norm_preserving,
    simulate_occupations,
    verify_intertwining,
)
from nhdyn.ensembles import haar_unitary, random_hamiltonian, random_matrix, random_unit_vector


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {number:02d}: {detail}"


def suite_trajectories():
    """Trajectories backing criteria 7 and 12; all start normalized.

    Covers both fermionic models on both labeled initial states, a
    nilpotent block, random real- and complex-spectrum Hamiltonians, and
    one Hermitian reference.
    """
    rng = np.random.default_rng(77)
    out = []
    grid = np.linspace(0.0, 5.0, 101)
    for lam, mu in ((1.0, 1.0), (2.0, 0.5)):
        model = build_dm_model(lam, mu)
        for label in ("011", "010"):
            psi0 = model.algebra.basis_state(label)
            out.append(
                (
                    f"fermion lam={lam} mu={mu} phi_{label}",
                    model.h,
                    exact_trajectory(model.h, psi0, grid),
                )
            )
    generic = [("nilpotent 2x2", np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))]
    for dim in (3, 5, 8):
        generic.append(
            (f"real-spectrum dim {dim}", random_hamiltonian(dim, rng, "real_spectrum"))
        )
    for dim in (4, 6):
        generic.append(
            (
                f"complex-spectrum dim {dim}",
                random_hamiltonian(dim, rng, "complex_spectrum"),
            )
        )
    for name, h in generic:
        psi0 = random_unit_vector(h.shape[0], rng)
        out.append((name, h, exact_trajectory(h, psi0, grid)))
    hermitian = random_hamiltonian(4, rng, "hermitian")
    out.append(
        (
            "hermitian dim 4",
            hermitian,
            exact_trajectory(hermitian, random_unit_vector(4, rng), grid),
        )
    )
    return out


def test_criterion_01_closed_form_occupations():
    t = np.linspace(0.0, 10.0, 201)
    start = time.perf_counter()
    run = simulate_occupations(build_dm_model(1.0, 1.0), "011", t)
    elapsed = time.perf_counter() - start
    den = 1.0 + 2.0 * t**2
    worst = max(
        np.abs(run.n1 - 2.0 * t**2 / den).max(),
        np.abs(run.n2 - (1.0 + t**2) / den).max(),
        np.abs(run.n3 - (1.0 + t**2) / den).max(),
    )
    ok = worst <= 1e-11 and elapsed < 1.0
    report(1, ok, f"closed-form match {worst:.2e} (tol 1e-11), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_occupation_sum_conservation():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 10.0, 201)
    start = time.perf_counter()
    worst = 0.0
    pairs = [(1.0, 1.0)] + [tuple(rng.uniform(0.05, 3.0, size=2)) for _ in range(20)]
    for lam, mu in pairs:
        model = build_dm_model(lam, mu)
        worst = max(worst, np.abs(simulate_occupations(model, "011", t).total - 2.0).max())
        worst = max(worst, np.abs(simulate_occupations(model, "010", t).total - 1.0).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(2, ok, f"sum deviation {worst:.2e} (tol 1e-10) over 21 coupling pairs, runtime {elapsed:.2f}s (< 5s)")


def test_criterion_03_number_derivation_identity():
    rng = np.random.default_rng(8)
    worst = max(
        delta_gamma_number_check(build_dm_model(*rng.uniform(0.05, 3.0, size=2)))
        for _ in range(10)
    )
    ok = worst <= 1e-12
    report(3, ok, f"derivation identity residual {worst:.2e} (tol 1e-12) over 10 couplings")


def test_criterion_04_series_equals_shifted_conjugation():
    rng = np.random.default_rng(9)
    worst = 0.0
    for kind, dim in (("hermitian", 6), ("real_spectrum", 8), ("complex_spectrum", 7)):
        ctx = eigenstate_context(random_hamiltonian(dim, rng, kind, scale=0.8))
        for _ in range(20):
            x = random_matrix(dim, rng)
            for t in (0.25, 0.5, 1.0, 2.0):
                series, _ = gamma_series(ctx.shifted, x, t, 1e-13)
                gap = op_norm(series - gamma_t(ctx.shifted, x, t))
                worst = max(worst, gap)
    ok = worst <= 1e-10
    report(4, ok, f"series vs conjugation {worst:.2e} (tol 1e-10), 20 observables x 3 regimes x 4 times")


def test_criterion_05_symmetry_fixed_points_and_chains():
    hams = [
        np.diag([1.0, 2.0]).astype(complex),
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        build_dm_model(1.0, 1.0).h,
    ]
    worst_fix, worst_delta = 0.0, 0.0
    for h in hams:
        ctx = gamma_context(h)
        n = ctx.dim
        for x in gamma_symmetry_basis(ctx).generators:
            member = x
            for _ in range(n):  # powers k = 0 .. N-1
                worst_delta = max(worst_delta, op_norm(delta_gamma(ctx, member)))
                for t in (0.5, 1.0, 2.0):
                    worst_fix = max(worst_fix, op_norm(gamma_t(ctx, member, t) - member))
                member = member @ h
    ok = worst_fix <= 1e-8 and worst_delta <= 1e-9
    report(5, ok, f"fixed-point residual {worst_fix:.2e} (tol 1e-8), derivation {worst_delta:.2e} (tol 1e-9), chains to N-1")


def test_criterion_06_multiplicativity_dichotomy():
    rng = np.random.default_rng(10)
    worst_herm = 0.0
    for _ in range(10):
        ctx = gamma_context(random_hamiltonian(4, rng, "hermitian"))
        for _ in range(3):
            x, y = random_matrix(4, rng), random_matrix(4, rng)
            for t in (0.5, 1.0):
                gap = op_norm(gamma_t(ctx, x @ y, t) - gamma_t(ctx, x, t) @ gamma_t(ctx, y, t))
                worst_herm = max(worst_herm, gap)
    weakest_break = np.inf
    for _ in range(10):
        ctx = gamma_context(random_hamiltonian(4, rng, "real_spectrum"))
        weakest_break = min(weakest_break, op_norm(gamma_t(ctx, np.eye(4), 1.0) - np.eye(4)))
    ok = worst_herm <= 1e-9 and weakest_break > 1e-4
    report(6, ok, f"hermitian product rule {worst_herm:.2e} (tol 1e-9); identity moves by >= {weakest_break:.2e} (> 1e-4)")


def test_criterion_07_nonlinear_hamiltonian_sum_rule():
    worst = 0.0
    for _, h, traj in suite_trajectories():
        target = h + h.conj().T
        for v in traj.psi_hat:
            hnl = h_nl(h, v)
            worst = max(worst, op_norm(hnl + hnl.conj().T - target))
    ok = worst <= 1e-13
    report(7, ok, f"sum-rule defect {worst:.2e} (tol 1e-13) over every grid point of the suite")


def test_criterion_08_symmetry_mean_decay_law():
    model = build_dm_model(1.0, 1.0)
    t = np.linspace(0.0, 5.0, 101)
    traj = exact_trajectory(model.h, model.algebra.basis_state("011"), t)
    basis = gamma_symmetry_basis(gamma_context(model.h))
    worst = 0.0
    for x in basis.generators:
        means = np.einsum("ij,jk,ik->i", traj.psi_hat.conj(), x, traj.psi_hat)
        predicted = means[0] / (1.0 + 2.0 * t**2)
        worst = max(worst, np.abs(means - predicted).max())
    ok = worst <= 1e-9
    report(8, ok, f"decay-law residual {worst:.2e} (tol 1e-9) across {len(basis.generators)} symmetries")


def test_criterion_09_integrator_order():
    model = build_dm_model(1.0, 1.0)
    psi0 = model.algebra.basis_state("011")
    _, dev_coarse = integrate_nonlinear(model.h, psi0, np.linspace(0.0, 5.0, 101))
    _, dev_fine = integrate_nonlinear(model.h, psi0, np.linspace(0.0, 5.0, 201))
    ratio = dev_coarse / dev_fine
    ok = 12.0 < ratio < 20.0
    report(9, ok, f"Richardson ratio {ratio:.2f} in (12, 20); deviations {dev_coarse:.2e} -> {dev_fine:.2e}")


def test_criterion_10_norm_preserving_similarity():
    rng = np.random.default_rng(11)
    h0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    r = haar_unitary(3, rng) @ np.diag([0.5, 2.0, 1.25])
    built = similar_norm_preserving(h0, r)
    worst = 0.0
    for t in np.linspace(0.0, 5.0, 26):
        prod = expm(1j * built.h.conj().T * t) @ expm(-1j * built.h * t)
        worst = max(worst, op_norm(prod - np.eye(3)))

    theta = 0.7
    q = np.array([[np.cos(theta), np.sin(theta), 0.0], [-np.sin(theta), np.cos(theta), 0.0], [0.0, 0.0, 1.0]])
    control = similar_norm_preserving(h0, np.diag([1.0, 2.0, 1.0]) @ q)
    traj = exact_trajectory(control.h, np.array([1.0, 1.0, 1.0]) / np.sqrt(3), np.linspace(0.0, 5.0, 51))
    variation = traj.norm_sq.max() - traj.norm_sq.min()
    ok = built.commutator_residual <= 1e-12 and worst <= 1e-9 and variation > 1e-3
    report(10, ok, f"norm preservation {worst:.2e} (tol 1e-9) with commutator {built.commutator_residual:.2e}; control varies by {variation:.2e} (> 1e-3)")


def test_criterion_11_biorthogonal_completeness_and_intertwining():
    rng = np.random.default_rng(12)
    worst_ratio = 0.0
    for dim in (4, 8, 12, 16):
        h = random_hamiltonian(dim, rng, "real_spectrum")
        system = build_biorthogonal(h)
        kappa = system.condition_estimate
        r_psi, r_phi = verify_intertwining(system, h)
        completeness = 0.0
        for _ in range(100):
            f = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            scale = np.linalg.norm(f)
            completeness = max(
                completeness,
                np.linalg.norm(system.psi @ (system.phi.conj().T @ f) - f) / scale,
                np.linalg.norm(system.phi @ (system.psi.conj().T @ f) - f) / scale,
            )
        bound = 1e-8 * kappa
        worst_ratio = max(worst_ratio, r_psi / bound, r_phi / bound, completeness / bound)
    ok = worst_ratio <= 1.0
    report(11, ok, f"worst residual at {worst_ratio:.2e} of the 1e-8*cond(V) budget, dims up to 16")


def test_criterion_12_identity_is_strictly_weak():
    worst_weak = 0.0
    weakest_strong = np.inf
    for name, h, traj in suite_trajectories():
        if name.startswith("hermitian"):
            continue
        rep = classify(h, np.eye(h.shape[0]), traj, name="identity")
        worst_weak = max(worst_weak, rep.c_psi_hat_weak_residual)
        weakest_strong = min(weakest_strong, rep.c_psi_hat_residual)
    ok = worst_weak <= 1e-10 and weakest_strong > 1e-3
    report(12, ok, f"weak residual {worst_weak:.2e} (tol 1e-10); operator-level residual >= {weakest_strong:.2e} (> 1e-3)")

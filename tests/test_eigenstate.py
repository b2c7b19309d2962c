from dataclasses import asdict, replace

import numpy as np
import pytest

from oracles import scaled_taylor_expm

import nhdyn.eigenstate
from nhdyn import (
    ConfigError,
    delta_gamma,
    delta_psi_hat,
    eigenstate_context,
    exact_trajectory,
    gamma_context,
    gamma_series,
    gamma_t,
    mean_derivative,
    op_norm,
    weak_identity_report,
)
from nhdyn.ensembles import random_hamiltonian, random_matrix, random_unit_vector
from nhdyn.flow import STEP_TOL
from nhdyn.linalg import _expm_exact, eig_general
from nhdyn.scenario import complex_to_json, parse_config, run

DIAG_1_I = np.diag([1.0, 1.0j])


def test_context_selects_largest_imaginary_part_by_default():
    ctx = eigenstate_context(DIAG_1_I)
    assert ctx.e_value == pytest.approx(1.0j)
    assert abs(abs(ctx.phi_k0[1]) - 1.0) < 1e-14
    assert np.abs(ctx.shifted.h - np.diag([1.0 - 1.0j, 0.0])).max() < 1e-14


def test_context_explicit_index_and_shift():
    # eigenvalues sort by (real, imag): index 0 is i, index 1 is 1
    ctx = eigenstate_context(DIAG_1_I, k0=1)
    assert ctx.e_value == pytest.approx(1.0)
    assert np.abs(ctx.shifted.h - np.diag([0.0, -1.0 + 1.0j])).max() < 1e-14
    with pytest.raises(ConfigError):
        eigenstate_context(DIAG_1_I, k0=5)


@pytest.mark.parametrize("k0", [True, 1.0])
def test_context_index_must_be_an_integer(k0):
    # bool is an Integral, yet never an index; a float is no index at all
    with pytest.raises(ConfigError, match="k0 must be an integer"):
        eigenstate_context(DIAG_1_I, k0)


def test_context_takes_a_numpy_integer_index():
    ctx = eigenstate_context(DIAG_1_I, np.int64(1))
    assert (ctx.k0, ctx.e_value) == (1, eigenstate_context(DIAG_1_I, 1).e_value)


def test_real_eigenvalue_reduces_to_gamma_derivation():
    rng = np.random.default_rng(71)
    h = random_hamiltonian(4, rng, kind="real_spectrum")
    ctx = eigenstate_context(h, k0=1)
    x = random_matrix(4, rng)
    gap = delta_gamma(ctx.shifted, x) - delta_gamma(gamma_context(h), x)
    # the eigenvalue is real up to solver noise, so the 2 E_i X term is tiny
    assert op_norm(gap) < 1e-12


def test_frozen_derivation_agrees_with_state_dependent_form_on_diagonal_case():
    ctx = eigenstate_context(DIAG_1_I, k0=0)  # the eigenvalue i
    x = np.eye(2, dtype=complex)
    frozen = delta_gamma(ctx.shifted, x)
    # oracle: evaluate both routes by hand; i(H^†-H) = diag(0, 2) and the
    # scalar is -2i, so both give diag(0,2) - 2*1 = diag(-2, 0)
    assert np.abs(frozen - np.diag([-2.0, 0.0])).max() < 1e-14
    along = delta_psi_hat(DIAG_1_I, x, ctx.phi_k0)
    assert np.abs(frozen - along).max() < 1e-13


def test_frozen_derivation_matches_trajectory_form_along_the_orbit():
    rng = np.random.default_rng(72)
    h = random_hamiltonian(3, rng, kind="complex_spectrum")
    ctx = eigenstate_context(h)
    x = random_matrix(3, rng)
    frozen = delta_gamma(ctx.shifted, x)
    traj = exact_trajectory(h, ctx.phi_k0, np.linspace(0, 2, 21))
    for v in traj.psi_hat:
        assert op_norm(frozen - delta_psi_hat(h, x, v)) < 1e-11


def test_normalized_orbit_is_a_pure_phase_times_the_eigenvector():
    rng = np.random.default_rng(73)
    h = random_hamiltonian(4, rng, kind="complex_spectrum")
    ctx = eigenstate_context(h)
    t = np.linspace(0, 2, 41)
    traj = exact_trajectory(h, ctx.phi_k0, t)
    expected = np.exp(-1j * ctx.e_value.real * t)[:, None] * ctx.phi_k0[None, :]
    assert np.abs(traj.psi_hat - expected).max() <= 1e-11


def test_series_time_zero():
    ctx = eigenstate_context(DIAG_1_I)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    total, terms = gamma_series(ctx.shifted, x, 0.0)
    assert terms == 1
    assert np.array_equal(total, x.astype(complex))


def test_series_hermitian_case_matches_conjugation_oracle():
    rng = np.random.default_rng(74)
    h = random_hamiltonian(3, rng, kind="hermitian")
    ctx = eigenstate_context(h, k0=0)
    x = random_matrix(3, rng)
    t = 0.9
    total, _ = gamma_series(ctx.shifted, x, t, 1e-13)
    # real shift cancels in the conjugation, so the plain evolution works
    left = scaled_taylor_expm(1j * h.conj().T * t)
    right = scaled_taylor_expm(-1j * h * t)
    assert op_norm(total - left @ x @ right) < 1e-11


def test_series_equals_shifted_conjugation_on_diagonal_case():
    ctx = eigenstate_context(DIAG_1_I, k0=0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = 0.5
    total, _ = gamma_series(ctx.shifted, x, t, 1e-12)
    assert op_norm(total - gamma_t(ctx.shifted, x, t)) < 1e-11


@pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
def test_series_equals_shifted_conjugation_across_regimes(kind):
    rng = np.random.default_rng(75)
    h = random_hamiltonian(5, rng, kind=kind, scale=0.8)
    ctx = eigenstate_context(h)
    for _ in range(20):
        x = random_matrix(5, rng)
        for t in np.linspace(0.0, 2.0, 9):
            total, _ = gamma_series(ctx.shifted, x, t, 1e-13)
            gap = op_norm(total - gamma_t(ctx.shifted, x, t))
            assert gap <= 1e-10


def test_shifted_conjugation_solves_the_frozen_flow_equation():
    rng = np.random.default_rng(76)
    h = random_hamiltonian(3, rng, kind="complex_spectrum")
    ctx = eigenstate_context(h)
    x = random_matrix(3, rng)
    t0 = 0.7
    for dt in (1e-3, 5e-4):
        fd = (gamma_t(ctx.shifted, x, t0 + dt) - gamma_t(ctx.shifted, x, t0 - dt)) / (2 * dt)
        rhs = delta_gamma(ctx.shifted, gamma_t(ctx.shifted, x, t0))
        assert op_norm(fd - rhs) < 50 * dt**2 * np.exp(4 * ctx.shifted.h_norm)


def test_weak_identities_hermitian_everything_vanishes():
    rng = np.random.default_rng(77)
    h = random_hamiltonian(3, rng, kind="hermitian")
    ctx = eigenstate_context(h, k0=2)
    report = weak_identity_report(ctx, np.linspace(0, 2, 21), np.random.default_rng(1))
    assert report.identity_mean_residual <= 1e-11
    assert report.delta_mean_residual <= 1e-11
    assert report.automorphism_witness <= 1e-10


def test_weak_identities_complex_eigenvalue_holds_weakly_only():
    ctx = eigenstate_context(DIAG_1_I, k0=0)
    report = weak_identity_report(ctx, np.linspace(0, 1, 11), np.random.default_rng(2))
    assert report.identity_mean_residual <= 1e-10
    assert report.delta_mean_residual <= 1e-10
    assert report.automorphism_witness > 1e-3
    # ... while at the operator level the identity does move
    moved = gamma_t(ctx.shifted, np.eye(2), 1.0)
    assert op_norm(moved - np.eye(2)) > 1e-2


@pytest.mark.parametrize("seed", range(6))
def test_identity_mean_stays_one_on_complex_spectra(seed):
    # g_t(1) itself grows like exp(2 max Im(E_j - E) t); its mean must not
    h = random_hamiltonian(8, np.random.default_rng(seed), kind="complex_spectrum")
    report = weak_identity_report(eigenstate_context(h), np.linspace(0, 10, 41))
    assert report.identity_mean_residual <= 1e-6


def test_growing_orbit_is_stepped_not_recomputed():
    # bottom E on a complex spectrum: every other mode of the orbit grows, and
    # the fresh anchors' roundoff passes STEP_TOL by four orders; the guard
    # scales with the anchors' conditioning, so no segment is redone (a plain
    # STEP_TOL guard redid 5 of the 8 segments: 132 exponentials, not 12)
    h = random_hamiltonian(16, np.random.default_rng(0), "complex_spectrum", basis_stretch=10.0)
    ctx = eigenstate_context(h, int(np.argmin(eig_general(h).eigenvalues.imag)))
    t = np.linspace(0, 10, 201)
    _expm_exact.cache_clear()
    orbit = exact_trajectory(ctx.shifted.h, ctx.phi_k0, t)
    assert orbit.anchor_gap > 1e4 * STEP_TOL
    assert orbit.fallback_segments == 0
    # the step and the 9 anchors of the orbit
    assert _expm_exact.cache_info().misses == 1 + 9


def test_scenario_steps_the_eigenstate_orbit_with_the_trajectory(tmp_path):
    # the growing orbit above beside the trajectory task: phi_k0's H-orbit and the
    # initial state's trajectory share the step and the 9 anchors through the expm
    # memo (22 exponentials without it), then one exponential per gamma_t time
    rng = np.random.default_rng(0)
    h = random_hamiltonian(16, rng, "complex_spectrum", basis_stretch=10.0)
    doc = {
        "hamiltonian": complex_to_json(h),
        "initial_state": complex_to_json(random_unit_vector(16, rng)),
        "tasks": ["trajectory", "eigenstate_case"],
        "eigenstate_k0": int(np.argmin(eig_general(h).eigenvalues.imag)),
    }
    report = run(parse_config(doc), tmp_path)
    assert _expm_exact.cache_info().misses == 1 + 9 + 2
    assert report.tasks["trajectory"]["fallback_segments"] == 0
    # the grid route reads 1.7e-8 here: the orbit's roundoff grows like e^{Im(E_j - E) t}
    assert report.tasks["eigenstate_case"]["identity_mean_residual"] <= 1e-7


@pytest.mark.parametrize("t_end, shared", [(0.5, True), (1.0, False)])
def test_h_trajectory_stands_in_for_the_shifted_orbit_inside_the_range(
    monkeypatch, t_end, shared
):
    # E = 320i: |Im E| t_end is 160 or 320 against ORBIT_RANGE = 300. The H-orbit of
    # phi_k0 (|psi|^2 = e^{640 t}) is finite on both grids; inside the range the report
    # reads it, beyond the range it steps the shifted orbit, as it always does once
    # ORBIT_RANGE admits no grid at all
    h = np.diag([319.0j, 320.0j])
    ctx = eigenstate_context(h)
    t = np.linspace(0.0, t_end, 11)
    from_grid = weak_identity_report(ctx, t, np.random.default_rng(3))
    monkeypatch.setattr(nhdyn.eigenstate, "ORBIT_RANGE", -np.inf)
    stepped = weak_identity_report(ctx, t, np.random.default_rng(3))
    assert from_grid.identity_mean_residual <= 1e-12
    if shared:
        assert from_grid.identity_mean_residual != stepped.identity_mean_residual
        assert replace(from_grid, identity_mean_residual=0.0) == replace(
            stepped, identity_mean_residual=0.0
        )
    else:
        assert from_grid == stepped


@pytest.mark.parametrize("dim", [2, 5, 16])
@pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
def test_h_orbit_route_matches_the_stepped_shifted_orbit(monkeypatch, kind, dim):
    # inside the range the identity mean is read off the H-orbit; every other field is
    # the stepped route's bit for bit, and both identity means stay within 1e-6
    h = random_hamiltonian(dim, np.random.default_rng(dim), kind=kind, basis_stretch=10.0)
    ctx = eigenstate_context(h)
    t = np.linspace(0.0, 10.0, 201)
    assert np.max(np.abs(ctx.spectrum.eigenvalues.imag)) * 10.0 <= nhdyn.eigenstate.ORBIT_RANGE
    from_h = weak_identity_report(ctx, t, np.random.default_rng(9))
    monkeypatch.setattr(nhdyn.eigenstate, "ORBIT_RANGE", -np.inf)
    stepped = weak_identity_report(ctx, t, np.random.default_rng(9))
    assert max(from_h.identity_mean_residual, stepped.identity_mean_residual) <= 1e-6
    assert replace(from_h, identity_mean_residual=0.0) == replace(
        stepped, identity_mean_residual=0.0
    )


def test_an_empty_grid_is_a_config_error():
    with pytest.raises(ConfigError, match="t_grid is empty"):
        weak_identity_report(eigenstate_context(DIAG_1_I), [])


@pytest.mark.parametrize(
    "hamiltonian, t_end",
    [
        (random_hamiltonian(6, np.random.default_rng(4), "complex_spectrum"), 10.0),
        (np.diag([-360.0j, -380.0j]), 1.0),
    ],
    ids=["in-range", "beyond-range"],
)
def test_scenario_section_is_the_api_report(tmp_path, hamiltonian, t_end):
    doc = {
        "hamiltonian": complex_to_json(hamiltonian),
        "time": {"t_end": t_end, "points": 21},
        "tasks": ["eigenstate_case"],
        "seed": 17,
    }
    cfg = parse_config(doc)
    section = run(cfg, tmp_path).tasks["eigenstate_case"]
    ctx = eigenstate_context(hamiltonian)
    report = weak_identity_report(ctx, cfg.t_grid, np.random.default_rng(17))
    assert section == {
        "k0": ctx.k0, "eigenvalue": complex_to_json(ctx.e_value), **asdict(report)
    }


def test_every_observable_is_a_weak_integral_from_an_eigenstate():
    rng = np.random.default_rng(78)
    h = random_hamiltonian(4, rng, kind="complex_spectrum")
    ctx = eigenstate_context(h)
    traj = exact_trajectory(h, ctx.phi_k0, np.linspace(0, 2, 11))
    for _ in range(5):
        x = random_matrix(4, rng)
        for v in traj.psi_hat[::2]:
            assert abs(mean_derivative(h, x, v)) < 1e-10


def _separate_draws(ctx, t_grid, rng, tol_trunc):
    """The witness and the series gap by the route that drew the pair and the
    three probes in two places, conjugating one matrix per ``gamma_t`` call: the
    pair for the witness, then the probes per time."""
    n, shifted, phi = ctx.shifted.dim, ctx.shifted, ctx.phi_k0
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    t_last = float(t_grid[-1])
    gxy, gx, gy = (gamma_t(shifted, m, t_last) for m in (x @ y, x, y))
    witness = abs(np.vdot(phi, gxy @ phi) - np.vdot(phi, (gx @ gy) @ phi))
    xs = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(3)]
    worst = 0.0
    for t in (0.5, t_last):
        for p, conj in zip(xs, [gamma_t(shifted, q, t) for q in xs]):
            series, _ = gamma_series(shifted, p, t, tol_trunc)
            worst = max(worst, op_norm(series - conj))
    return float(witness), float(worst)


@pytest.mark.parametrize("t_end", [0.5, 10.0])
@pytest.mark.parametrize("dim", [2, 5, 16])
@pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
def test_shared_stack_keeps_witness_and_series_gap(kind, dim, t_end):
    # one draw sequence, its conjugations sharing one exponential per time through
    # the memo, gives the same numbers, bit for bit, as separate draws
    h = random_hamiltonian(dim, np.random.default_rng(dim), kind=kind, scale=0.8)
    ctx = eigenstate_context(h)
    t_grid = np.linspace(0.0, t_end, 11)
    report = weak_identity_report(ctx, t_grid, np.random.default_rng(5), 1e-12)
    witness, gap = _separate_draws(ctx, t_grid, np.random.default_rng(5), 1e-12)
    assert report.automorphism_witness == witness
    assert report.series_vs_conjugation == gap

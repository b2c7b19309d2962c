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
    gamma_symmetry_basis,
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


def test_growing_orbit_is_stepped_not_recomputed(request):
    # bottom E on a complex spectrum: every other mode of the orbit grows, and
    # the fresh anchors' roundoff passes STEP_TOL by four orders; the guard
    # scales with the anchors' conditioning, so no segment is redone (a plain
    # STEP_TOL guard redid 5 of the 8 segments: 132 exponentials, not 12)
    h = random_hamiltonian(16, np.random.default_rng(0), "complex_spectrum", basis_stretch=10.0)
    ctx = eigenstate_context(h, int(np.argmin(eig_general(h).eigenvalues.imag)))
    t = np.linspace(0, 10, 201)
    _expm_exact.cache_clear()
    request.getfixturevalue("failing_eigensolver")  # H - E's own fails: expm anchors
    orbit = exact_trajectory(ctx.shifted.h, ctx.phi_k0, t)
    assert orbit.anchor_gap > 1e4 * STEP_TOL
    assert orbit.fallback_segments == 0
    # the step and the 9 anchors of the orbit
    assert _expm_exact.cache_info().misses == 1 + 9


def test_scenario_steps_the_eigenstate_orbit_with_the_trajectory(tmp_path):
    # the growing orbit above beside the trajectory task: the initial state's trajectory
    # and phi_k0's H_k0-orbit take their anchors past t = 0 from the scenario's
    # eigenvectors (1 + 9 each by expm alone). Each takes its own step and expm(0): the
    # H_k0 step, and exp(0 H_k0), I with no Pade step, whose argument has other signed
    # zeros than -i H * 0. Then one exponential per gamma_t time
    rng = np.random.default_rng(0)
    h = random_hamiltonian(16, rng, "complex_spectrum", basis_stretch=10.0)
    doc = {
        "hamiltonian": complex_to_json(h),
        "initial_state": complex_to_json(random_unit_vector(16, rng)),
        "tasks": ["trajectory", "eigenstate_case"],
        "eigenstate_k0": int(np.argmin(eig_general(h).eigenvalues.imag)),
    }
    report = run(parse_config(doc), tmp_path)
    assert _expm_exact.cache_info().misses == (1 + 1) + (1 + 1) + 2
    assert report.tasks["trajectory"]["fallback_segments"] == 0
    assert report.tasks["trajectory"]["anchor_route"] == "eig"
    # the grid route reads 1.7e-8 here: the orbit's roundoff grows like e^{Im(E_j - E) t}
    assert report.tasks["eigenstate_case"]["identity_mean_residual"] <= 1e-7


def test_identity_mean_is_read_off_one_orbit_on_the_shifted_spectrum(monkeypatch):
    # one exact_trajectory call, on ctx.shifted, whose spectrum is that of H_k0 = H - E: H's
    # eigenvectors and their conditioning, the shifted eigenvalues, H_k0 itself and its 2-norm
    h = random_hamiltonian(6, np.random.default_rng(4), "complex_spectrum", basis_stretch=10.0)
    h_spectrum = eig_general(h)
    ctx = eigenstate_context(h)
    calls = []

    def recording(shifted, psi0, t_grid):
        calls.append(shifted)
        return exact_trajectory(shifted, psi0, t_grid)

    monkeypatch.setattr(nhdyn.eigenstate, "exact_trajectory", recording)
    t = np.linspace(0.0, 10.0, 201)
    report = weak_identity_report(ctx, t, np.random.default_rng(9))
    (shifted,) = calls
    assert shifted is ctx.shifted
    spectrum = shifted.spectrum
    assert spectrum.matrix is ctx.shifted.h
    assert spectrum.norm == op_norm(ctx.shifted.h)
    assert np.array_equal(spectrum.eigenvalues, h_spectrum.eigenvalues - ctx.e_value)
    assert spectrum.right_vectors is h_spectrum.right_vectors
    assert spectrum.condition_estimate == h_spectrum.condition_estimate
    v, lam = spectrum.right_vectors, spectrum.eigenvalues
    assert op_norm(ctx.shifted.h @ v - v * lam) <= 1e-12 * spectrum.norm
    orbit = exact_trajectory(spectrum, ctx.phi_k0, t)
    assert orbit.anchor_route == "eig" and orbit.fallback_segments == 0
    assert report.identity_mean_residual == np.max(np.abs(orbit.norm_sq - 1.0))


@pytest.mark.parametrize("stretch", [2.0, 10.0])
@pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
def test_identity_mean_of_a_bounded_orbit_is_at_roundoff(kind, stretch):
    # top Im E: no mode of phi's H_k0-orbit grows, and |exp(-i H_k0 t) phi|^2 stays at 1
    # to roundoff over the scenario grid
    for seed in range(3):
        h = random_hamiltonian(16, np.random.default_rng(seed), kind, basis_stretch=stretch)
        ctx = eigenstate_context(h, int(np.argmax(eig_general(h).eigenvalues.imag)))
        assert ctx.shifted.spectrum.eigenvalues.imag.max() <= 0.0
        report = weak_identity_report(ctx, np.linspace(0.0, 10.0, 201))
        assert report.identity_mean_residual <= 1e-12


@pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
def test_the_shifted_context_gives_the_symmetries_by_eigenvectors(kind, request):
    # ctx.shifted holds H_k0's Spectrum, so the symmetries of H_k0 take the eigenvector
    # route and span what the Schur route on H_k0 alone spans
    ctx = eigenstate_context(random_hamiltonian(6, np.random.default_rng(3), kind))
    eig = gamma_symmetry_basis(ctx.shifted)
    request.getfixturevalue("failing_eigensolver")  # H_k0's own eigensolve fails
    schur = gamma_symmetry_basis(gamma_context(ctx.shifted.h))
    assert (eig.route, schur.route) == ("eig", "schur")
    spans = [np.linalg.qr(b.generators.reshape(len(b.generators), -1).T)[0] for b in (eig, schur)]
    assert spans[0].shape == spans[1].shape
    assert op_norm(spans[0] @ spans[0].conj().T - spans[1] @ spans[1].conj().T) <= 1e-8


def test_an_empty_grid_is_a_config_error():
    message = "^t_grid must be finite real times in a 1-D array of >= 1$"
    with pytest.raises(ConfigError, match=message):
        weak_identity_report(eigenstate_context(DIAG_1_I), [])


@pytest.mark.parametrize(
    "hamiltonian, t_end",
    [
        (random_hamiltonian(6, np.random.default_rng(4), "complex_spectrum"), 10.0),
        (np.diag([-360.0j, -380.0j]), 1.0),
    ],
    ids=["complex-spectrum", "far-imaginary-spectrum"],
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


@pytest.mark.parametrize("t_end", [0.25, 0.5, 10.0])
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


class CountingMatrix(np.ndarray):
    """Counts ``dot`` calls on H^†: ``gamma_series`` forms each term with one."""

    products = 0

    def dot(self, other, out=None):
        CountingMatrix.products += 1
        return np.asarray(self).dot(other, out=out)


@pytest.mark.parametrize("t_end", [0.25, 0.5, 10.0])
@pytest.mark.parametrize("kind", ["hermitian", "complex_spectrum"])
def test_terms_are_formed_once_per_probe_and_time(monkeypatch, request, kind, t_end):
    # each probe forms the terms of one sum at each distinct time of t_last and 0.5, and
    # no others; a context whose eigensolve failed sums by terms
    h = random_hamiltonian(5, np.random.default_rng(8), kind=kind, scale=0.8)
    ctx = eigenstate_context(h)
    request.getfixturevalue("failing_eigensolver")
    ctx = replace(ctx, shifted=gamma_context(ctx.shifted.h))
    counting = nhdyn.eigenstate.GammaContext(ctx.shifted.h.view(CountingMatrix))
    counted = replace(ctx, shifted=counting)
    monkeypatch.setattr(CountingMatrix, "products", 0)
    t_grid = np.linspace(0.0, t_end, 11)
    report = weak_identity_report(counted, t_grid, np.random.default_rng(5))
    assert report == weak_identity_report(ctx, t_grid, np.random.default_rng(5))

    rng = np.random.default_rng(5)
    n = ctx.shifted.dim
    probes = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(5)][2:]
    times = dict.fromkeys((t_end, 0.5))
    counts = [gamma_series(ctx.shifted, p, t)[1] for p in probes for t in times]
    assert CountingMatrix.products == sum(c - 1 for c in counts)


@pytest.mark.parametrize("t_end", [0.25, 0.5, 10.0])
@pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
def test_screened_gap_is_the_largest_two_norm(monkeypatch, request, kind, t_end):
    # the reported gap is the largest 2-norm of all six differences bit for bit,
    # though a difference whose Frobenius norm lies below the running maximum
    # takes no SVD; on the term route, as a context whose eigensolve failed sums
    h = random_hamiltonian(16, np.random.default_rng(16), kind=kind, scale=0.8)
    ctx = eigenstate_context(h)
    request.getfixturevalue("failing_eigensolver")
    ctx = replace(ctx, shifted=gamma_context(ctx.shifted.h))
    svds = []
    monkeypatch.setattr(nhdyn.eigenstate, "op_norm", lambda a: svds.append(1) or op_norm(a))
    report = weak_identity_report(ctx, np.linspace(0.0, t_end, 11), np.random.default_rng(5))

    rng = np.random.default_rng(5)
    probes = [rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)) for _ in range(5)][2:]
    diffs = [
        gamma_series(ctx.shifted, p, t)[0] - gamma_t(ctx.shifted, p, t)
        for p in probes
        for t in (t_end, 0.5)
    ]
    assert report.series_vs_conjugation == max(op_norm(d) for d in diffs)
    assert len(svds) <= 3  # here no smaller time's difference takes an SVD


@pytest.mark.parametrize("t_end", [0.25, 0.5, 10.0])
@pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
def test_screened_gap_is_the_largest_two_norm_on_the_eig_route(kind, t_end):
    # the context on H - E's spectrum sums in delta's eigenbasis, and the screen
    # still reports the largest 2-norm of all six differences bit for bit
    h = random_hamiltonian(16, np.random.default_rng(16), kind=kind, scale=0.8)
    ctx = eigenstate_context(h)
    report = weak_identity_report(ctx, np.linspace(0.0, t_end, 11), np.random.default_rng(5))
    assert report.series_route == ctx.shifted.series_route(1e-12) == "eig"

    rng = np.random.default_rng(5)
    probes = [rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)) for _ in range(5)][2:]
    diffs = [
        gamma_series(ctx.shifted, p, t)[0] - gamma_t(ctx.shifted, p, t)
        for p in probes
        for t in (t_end, 0.5)
    ]
    assert report.series_vs_conjugation == max(op_norm(d) for d in diffs)

import warnings

import numpy as np
import pytest

from oracles import dual_family_by_adjoint_eig

from nhdyn import (
    BiorthogonalityError,
    DegenerateSpectrumError,
    DimensionError,
    build_biorthogonal,
    verify_intertwining,
)
from nhdyn.ensembles import haar_unitary, random_hamiltonian

# Hand solve for H = [[1,1],[0,2]]: eigenpairs (1, (1,0)) and (2, (1,1)/sqrt2);
# the adjoint has (1, (1,-1)/sqrt2) and (2, (0,1)). Rescaling the dual family
# to <phi_k, psi_l> = delta gives psi_1 = (1,-1), psi_2 = (0, sqrt2), hence
UPPER = np.array([[1.0, 1.0], [0.0, 2.0]])
S_PHI_UPPER = np.array([[1.5, 0.5], [0.5, 0.5]])
S_PSI_UPPER = np.array([[1.0, -1.0], [-1.0, 3.0]])


def test_hermitian_diagonal_collapses_to_orthonormal():
    system = build_biorthogonal(np.diag([1.0, 2.0]))
    assert np.allclose(system.eigenvalues, [1, 2])
    assert np.allclose(np.abs(system.phi), np.eye(2), atol=1e-14)
    assert np.allclose(np.abs(system.psi), np.eye(2), atol=1e-12)
    assert np.allclose(system.s_phi, np.eye(2), atol=1e-12)
    assert np.allclose(system.s_psi, np.eye(2), atol=1e-12)
    assert system.real_spectrum


def test_upper_triangular_matches_hand_solution():
    system = build_biorthogonal(UPPER)
    assert np.allclose(system.eigenvalues, [1, 2])
    # eigenvector directions, phase-free via projectors
    assert abs(abs(system.phi[0, 0]) - 1.0) < 1e-12
    assert abs(abs(np.vdot(system.phi[:, 1], [1 / np.sqrt(2), 1 / np.sqrt(2)])) - 1) < 1e-12
    # metric operators are gauge independent, compare directly
    assert np.abs(system.s_phi - S_PHI_UPPER).max() < 1e-12
    assert np.abs(system.s_psi - S_PSI_UPPER).max() < 1e-12


def test_biorthonormality_and_resolution_of_identity():
    system = build_biorthogonal(UPPER)
    gram = system.phi.conj().T @ system.psi
    assert np.abs(gram - np.eye(2)).max() < 1e-12
    assert np.abs(system.phi @ system.psi.conj().T - np.eye(2)).max() < 1e-12
    assert np.abs(system.s_phi @ system.psi - system.phi).max() < 1e-12
    assert np.abs(system.s_psi @ system.phi - system.psi).max() < 1e-12


def test_degenerate_spectrum_is_rejected():
    with pytest.raises(DegenerateSpectrumError, match="collide"):
        build_biorthogonal(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_complex_spectrum_sets_flag_and_warns():
    h = np.diag([1.0 + 1.0j, 2.0 - 0.5j])
    with pytest.warns(UserWarning, match="complex eigenvalues"):
        system = build_biorthogonal(h)
    assert not system.real_spectrum
    gram = system.phi.conj().T @ system.psi
    assert np.abs(gram - np.eye(2)).max() < 1e-12


def test_intertwining_hermitian_is_exact():
    h = np.array([[1.0, 0.3], [0.3, 2.0]])
    r_psi, r_phi = verify_intertwining(build_biorthogonal(h), h)
    assert r_psi < 1e-12
    assert r_phi < 1e-12


def test_intertwining_upper_triangular():
    r_psi, r_phi = verify_intertwining(build_biorthogonal(UPPER), UPPER)
    assert r_psi <= 1e-10
    assert r_phi <= 1e-10


def test_intertwining_rejects_a_hamiltonian_of_another_dimension():
    with pytest.raises(DimensionError):
        verify_intertwining(build_biorthogonal(UPPER), np.diag([1.0, 2.0, 3.0]))


def test_intertwining_random_real_spectrum_scales_with_conditioning():
    rng = np.random.default_rng(21)
    for _ in range(5):
        h = random_hamiltonian(5, rng, kind="real_spectrum", basis_stretch=4.0)
        system = build_biorthogonal(h)
        r_psi, r_phi = verify_intertwining(system, h)
        bound = 1e-8 * system.condition_estimate
        assert r_psi <= bound
        assert r_phi <= bound


def test_completeness_expansions_on_random_vectors():
    rng = np.random.default_rng(22)
    h = random_hamiltonian(6, rng, kind="real_spectrum")
    system = build_biorthogonal(h)
    for _ in range(100):
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        by_phi = system.psi @ (system.phi.conj().T @ f)
        by_psi = system.phi @ (system.psi.conj().T @ f)
        scale = np.linalg.norm(f)
        assert np.linalg.norm(by_phi - f) <= 1e-9 * scale
        assert np.linalg.norm(by_psi - f) <= 1e-9 * scale


def test_metric_operators_positive_definite():
    rng = np.random.default_rng(23)
    h = random_hamiltonian(4, rng, kind="real_spectrum")
    system = build_biorthogonal(h)
    for s in (system.s_phi, system.s_psi):
        herm = 0.5 * (s + s.conj().T)
        assert np.abs(s - herm).max() < 1e-12
        assert np.linalg.eigvalsh(herm).min() > 0


def test_self_adjoint_degeneration_of_metric():
    rng = np.random.default_rng(24)
    u = haar_unitary(4, rng)
    h = u @ np.diag([0.5, 1.0, 2.0, 3.5]).astype(complex) @ u.conj().T
    system = build_biorthogonal(h)
    assert np.abs(system.s_phi - np.eye(4)).max() <= 1e-10
    assert np.abs(system.s_psi - np.eye(4)).max() <= 1e-10


def test_mutually_inverse_metrics():
    rng = np.random.default_rng(25)
    h = random_hamiltonian(5, rng, kind="real_spectrum")
    system = build_biorthogonal(h)
    assert np.abs(system.s_phi @ system.s_psi - np.eye(5)).max() < 1e-10


@pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
def test_dual_family_matches_adjoint_eigensolve_oracle(kind):
    rng = np.random.default_rng(26)
    for n, stretch in ((2, 1.0), (5, 1.0), (8, 4.0), (16, 4.0)):
        h = random_hamiltonian(n, rng, kind=kind, basis_stretch=stretch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = build_biorthogonal(h)
        psi = dual_family_by_adjoint_eig(h, system.eigenvalues, system.phi)
        tol = 1e-12 * system.condition_estimate
        assert np.abs(system.psi - psi).max() <= tol * np.abs(psi).max()
        s_psi = psi @ psi.conj().T
        assert np.abs(system.s_psi - s_psi).max() <= tol * np.abs(s_psi).max()


def test_near_defective_hamiltonian_is_rejected():
    # distinct eigenvalues 1 and 1 + 1e-7, but an eigenbasis with
    # condition ~2e7: the dual family cannot meet the 1e-10 residual
    with pytest.raises(BiorthogonalityError, match="residual"):
        build_biorthogonal(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-7]]))


def test_singular_eigenvector_matrix_is_a_biorthogonality_error(monkeypatch):
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(BiorthogonalityError, match="singular"):
        build_biorthogonal(UPPER)


def test_non_finite_residual_is_rejected(monkeypatch):
    monkeypatch.setattr(np.linalg, "inv", lambda a: np.full_like(a, np.nan))
    with pytest.raises(BiorthogonalityError, match="nan"):
        build_biorthogonal(UPPER)

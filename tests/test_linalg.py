import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg

from oracles import rotation_2x2, scaled_taylor_expm, taylor_expm

import nhdyn
from nhdyn import (
    DimensionError,
    NumericRangeError,
    build_biorthogonal,
    build_dm_model,
    eig_general,
    eigenstate_context,
    exact_trajectory,
    expm,
    nullspace,
    op_norm,
)
from nhdyn.ensembles import random_hamiltonian, random_unit_vector
from nhdyn.errors import ConfigError
from nhdyn.linalg import MAX_DIM, _expm_exact, schur


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    @pytest.mark.parametrize("n", [0, 1, 8, 64])
    def test_exponential_of_zero_is_exactly_the_identity(self, n):
        h = random_hamiltonian(max(n, 2), np.random.default_rng(n), kind="complex_spectrum")
        signed = -1j * h[:n, :n] * 0.0  # zeros of both signs in both parts
        if n >= 8:
            assert np.signbit(signed.real).any() and np.signbit(signed.imag).any()
        for zero in (np.zeros((n, n)), signed):
            e = expm(zero)
            assert e.dtype == np.complex128
            assert e.tobytes() == np.eye(n, dtype=complex).tobytes()

    def test_trajectory_starts_exactly_at_psi0(self):
        rng = np.random.default_rng(5)
        h = random_hamiltonian(8, rng, kind="complex_spectrum")
        psi0 = random_unit_vector(8, rng)
        traj = exact_trajectory(h, psi0, np.linspace(0.0, 2.0, 11))
        assert traj.psi[0].tobytes() == psi0.tobytes()

    def test_rotation_generator_against_taylor_oracle(self):
        theta = 0.3
        a = np.array([[0.0, theta], [-theta, 0.0]])
        expected = taylor_expm(a)
        assert np.allclose(expected, rotation_2x2(theta), atol=1e-15)
        assert np.abs(expm(a) - expected).max() < 1e-15

    def test_group_inverse_small_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a *= 2.0 / np.linalg.norm(a, 2)
            assert op_norm(expm(a) @ expm(-a) - np.eye(4)) < 1e-12

    def test_matches_scaled_taylor_at_moderate_norm(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        a *= 10.0 / np.linalg.norm(a, 2)
        e = expm(a)
        ref = scaled_taylor_expm(a)
        assert op_norm(e - ref) / op_norm(ref) < 1e-12

    def test_accuracy_at_norm_fifty(self):
        # skew-Hermitian argument of norm 50: the exponential is unitary,
        # so both the unitarity defect and the gap to the squared-Taylor
        # oracle are meaningful at full precision
        rng = np.random.default_rng(10)
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = h + h.conj().T
        a = 1j * h * (50.0 / np.linalg.norm(h, 2))
        e = expm(a)
        assert op_norm(e.conj().T @ e - np.eye(5)) < 1e-12
        assert op_norm(e - scaled_taylor_expm(a)) < 1e-11

    def test_norm_bound_for_unitary_like_factors(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            t = rng.uniform(-3, 3)
            assert op_norm(expm(1j * h * t)) <= np.exp(abs(t) * op_norm(h)) * (1 + 1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    def test_overflow_raises(self):
        with pytest.raises(NumericRangeError):
            expm(np.diag([2000.0, 2000.0]))

    def test_rejects_nan_entries(self):
        with pytest.raises(NumericRangeError):
            expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "a",
        [np.diag([1e300, 1e300]), np.full((2, 2), 1e308), 1j * np.full((2, 2), 1e200)],
        ids=["huge_scaling", "infinite_norm", "overflowing_powers"],
    )
    def test_extreme_norms_raise_numeric_range_error(self, a):
        with pytest.raises(NumericRangeError):
            expm(a)

    @pytest.mark.parametrize("c", [3e306, 1e307])
    def test_overflowing_pade_term_of_a_nilpotent_argument(self, c):
        # H^2 = 0: exp(-icH) = 1 - icH is finite, but the degree-3 term 60 A is not,
        # and the solve that meets it must not escape as numpy's LinAlgError
        try:
            e = expm(-1j * c * build_dm_model(1.0, 1.0).h)
        except NumericRangeError:
            return
        assert np.isfinite(e).all()

    def test_empty_matrix(self):
        assert expm(np.zeros((0, 0))).shape == (0, 0)

    @pytest.mark.parametrize("t", [1.0, 10.0, 50.0])
    def test_nilpotent_fermion_propagator_is_exactly_linear(self, t):
        # H^2 = 0 makes eta 0: degree 3 without squaring, which gives 1 - iHt
        h = build_dm_model(1.0, 1.0).h
        exact = np.eye(h.shape[0]) - 1j * h * t
        assert np.abs(expm(-1j * h * t) - exact).max() <= 1e-15

    def test_stretched_bases_no_worse_than_scipy_against_mpmath(self):
        # at eigenbasis stretch 1e3 both routes lose digits to conditioning and
        # differ case by case by a factor of a few either way; over the set,
        # neither the worst nor the mean error against 50 digits may exceed scipy's
        ours, theirs = [], []
        for n in (2, 4, 8):
            for seed in range(3):
                for kind in ("hermitian", "real_spectrum", "complex_spectrum"):
                    rng = np.random.default_rng(seed)
                    h = random_hamiltonian(n, rng, kind=kind, basis_stretch=1e3)
                    for t in (3.0, 10.0):
                        a = -1j * h * t
                        with mpmath.workdps(50):
                            exact = mpmath.expm(mpmath.matrix(a.tolist())).tolist()
                        exact = np.array(exact, dtype=complex)
                        scale = _norm1(exact)
                        ours.append(_norm1(expm(a) - exact) / scale)
                        theirs.append(_norm1(scipy.linalg.expm(a) - exact) / scale)
        assert max(ours) <= max(theirs)
        assert np.mean(ours) <= np.mean(theirs)



class TestExpmMemo:
    def test_repeated_call_returns_the_bytes_of_the_kernel(self):
        a = -1j * random_hamiltonian(8, np.random.default_rng(3), kind="complex_spectrum") * 0.7
        first, again = expm(a), expm(a)
        assert _expm_exact.cache_info().hits == 1
        assert again is not first
        kernel = _expm_exact.__wrapped__(8, a.tobytes())
        assert first.tobytes() == again.tobytes() == kernel.tobytes()

    def test_writing_into_a_result_leaves_the_next_unchanged(self):
        a = -1j * random_hamiltonian(4, np.random.default_rng(4), kind="real_spectrum")
        first = expm(a)
        kept = first.copy()
        first[...] = np.nan
        assert expm(a).tobytes() == kept.tobytes()

    def test_an_argument_that_raises_raises_on_every_call(self):
        a = -1j * 1e307 * build_dm_model(1.0, 1.0).h
        for _ in range(3):
            with pytest.raises(NumericRangeError):
                expm(a)
        assert _expm_exact.cache_info().currsize == 0

    def test_memo_stays_bounded_along_a_long_trajectory(self):
        rng = np.random.default_rng(6)
        h = random_hamiltonian(4, rng, kind="complex_spectrum")
        exact_trajectory(0.01 * h, random_unit_vector(4, rng), np.linspace(0, 1, 1001))
        info = _expm_exact.cache_info()
        assert info.misses > 16
        assert info.currsize <= 16

    def test_only_desk_scale_arguments_are_kept(self):
        # the byte bound of the memo holds for any input: past MAX_DIM nothing is kept
        rng = np.random.default_rng(7)
        small = -1j * random_hamiltonian(MAX_DIM, rng, kind="complex_spectrum") * 0.1
        expm(small)
        assert _expm_exact.cache_info().currsize == 1
        large = -1j * random_hamiltonian(80, rng, kind="complex_spectrum") * 0.1
        first = expm(large)
        assert _expm_exact.cache_info().currsize == 1
        again = expm(large)
        assert again is not first and first.tobytes() == again.tobytes()
        assert first.tobytes() == _expm_exact.__wrapped__(80, large.tobytes()).tobytes()


RUN_AND_LIST_SCIPY = """
import json, sys
from nhdyn.cli import main
status = main(["run", "--config", sys.argv[1], "--out-dir", sys.argv[2]])
print(json.dumps([status, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _run_in_fresh_interpreter(tmp_path, doc) -> tuple[int, list[str]]:
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(nhdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST_SCIPY, str(config), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    status, loaded = json.loads(out.stdout.splitlines()[-1])
    return status, loaded


def test_only_the_symmetries_task_loads_scipy(tmp_path):
    rng = np.random.default_rng(5)
    h = random_hamiltonian(6, rng, kind="complex_spectrum")
    psi0 = random_unit_vector(6, rng)
    pairs = lambda a: np.stack([a.real, a.imag], -1).tolist()  # noqa: E731
    doc = {
        "hamiltonian": pairs(h),
        "initial_state": pairs(psi0),
        "observables": ["identity", "H"],
        "time": {"t_start": 0.0, "t_end": 2.0, "points": 41},
        "tasks": ["trajectory", "classify", "biortho", "eigenstate_case"],
    }
    assert _run_in_fresh_interpreter(tmp_path, doc) == (0, [])
    status, loaded = _run_in_fresh_interpreter(tmp_path, dict(doc, tasks=["symmetries"]))
    assert status == 0
    assert "scipy.linalg" in loaded


class TestEigGeneral:
    def test_diagonal(self):
        spec = eig_general(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(spec.eigenvalues, [1, 2, 3])
        assert np.allclose(np.abs(spec.right_vectors), np.eye(3), atol=1e-14)
        assert spec.condition_estimate < 10

    def test_defective_jordan_block(self):
        spec = eig_general(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [0, 0], atol=1e-12)
        assert spec.condition_estimate > 1e10

    def test_upper_triangular_by_hand(self):
        # (A - 2I) v = 0 with A = [[1,1],[0,2]] forces v prop (1,1)
        spec = eig_general(np.array([[1.0, 1.0], [0.0, 2.0]]))
        assert np.allclose(spec.eigenvalues, [1, 2])
        v = spec.right_vectors[:, 1]
        assert abs(abs(np.vdot(v, np.array([1, 1]) / np.sqrt(2))) - 1) < 1e-12

    def test_unit_columns_and_residuals(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        spec = eig_general(a)
        assert np.allclose(np.linalg.norm(spec.right_vectors, axis=0), 1.0)
        res = np.linalg.norm(
            a @ spec.right_vectors - spec.right_vectors * spec.eigenvalues, axis=0
        )
        assert res.max() <= 1e-10 * op_norm(a)

    def test_reconstruction_with_distinct_eigenvalues(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            spec = eig_general(a)
            rebuilt = (
                spec.right_vectors
                @ np.diag(spec.eigenvalues)
                @ np.linalg.inv(spec.right_vectors)
            )
            assert np.linalg.norm(rebuilt - a) / np.linalg.norm(a) < 1e-10


def assert_same_bits(a, b):
    """Field by field, bit for bit, through nested dataclasses."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same_bits(getattr(a, f.name), getattr(b, f.name))
        return
    x, y = np.asarray(a), np.asarray(b)
    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


class TestSharedSpectrum:
    """A ``Spectrum`` stands in for its Hamiltonian without changing a bit."""

    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    def test_spectrum_input_equals_matrix_input(self, kind):
        h = random_hamiltonian(6, np.random.default_rng(31), kind=kind)
        spec = eig_general(h)
        assert spec.matrix.tobytes() == h.tobytes()
        assert spec.norm == op_norm(h)
        assert_same_bits(build_biorthogonal(spec), build_biorthogonal(h))
        for k0 in (None, 0, 5):
            assert_same_bits(eigenstate_context(spec, k0), eigenstate_context(h, k0))


class TestNullspace:
    def test_full_rank_gives_zero_columns(self):
        assert nullspace(np.eye(3)).shape == (3, 0)

    def test_zero_matrix_gives_full_basis(self):
        basis = nullspace(np.zeros((2, 3)))
        assert basis.shape == (3, 3)
        assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)

    def test_coordinate_kernel(self):
        basis = nullspace(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert basis.shape == (3, 1)
        assert abs(abs(basis[2, 0]) - 1.0) < 1e-14

    def test_contract_on_random_rank_deficient(self):
        rng = np.random.default_rng(13)
        tol = 1e-10
        for _ in range(5):
            left = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
            right = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
            l = left @ right  # rank 3, kernel dim 4
            basis = nullspace(l, tol)
            sigma_max = op_norm(l)
            assert basis.shape == (7, 4)
            assert op_norm(l @ basis) <= 10 * tol * sigma_max
            assert np.abs(basis.conj().T @ basis - np.eye(4)).max() < 1e-12

    def test_rank_tol_must_be_in_range(self):
        with pytest.raises(ConfigError):
            nullspace(np.eye(2), rank_tol_rel=1.5)


class TestSchur:
    def test_unitary_triangular_factors_reconstruct_the_input(self):
        rng = np.random.default_rng(16)
        a = rng.normal(size=(6, 6))  # real input still gets the complex form
        t, q = schur(a)
        assert np.array_equal(t, np.triu(t))
        assert np.abs(q.conj().T @ q - np.eye(6)).max() < 1e-14
        assert np.abs(q @ t @ q.conj().T - a).max() < 1e-13


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal_complex(self):
        assert op_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0)

    def test_nilpotent_by_gram_matrix(self):
        # sigma_max^2 is the top eigenvalue of A^† A = diag(0, 4)
        assert op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)


def _operand_of_another_dimension():
    """(call, operand name, its dim) per public entry point that takes an operand beside H."""
    h2, eye2, eye3 = np.diag([1.0, 2.0]), np.eye(2), np.eye(3)
    psi2, psi3 = np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])
    ctx = nhdyn.gamma_context(h2)
    traj3 = exact_trajectory(np.eye(3), psi3, [0.0, 1.0])
    model = build_dm_model(1.0, 1.0)
    return {
        "delta_gamma": (lambda: nhdyn.delta_gamma(ctx, eye3), "observable", 3),
        "gamma_t": (lambda: nhdyn.gamma_t(ctx, eye3, 0.5), "observable", 3),
        "gamma_series": (lambda: nhdyn.gamma_series(ctx, eye3, 0.5), "observable", 3),
        "delta_psi_hat": (lambda: nhdyn.delta_psi_hat(h2, eye3, psi2), "observable", 3),
        "mean_value": (lambda: nhdyn.mean_value(eye2, psi3), "psi_hat", 3),
        "classify": (lambda: nhdyn.classify(h2, eye2, traj3), "psi_hat", 3),
        "necessary_condition_residual": (
            lambda: nhdyn.necessary_condition_residual(h2, eye2, traj3, 1.0), "psi_hat", 3
        ),
        "gamma_symmetry_decay_check": (
            lambda: nhdyn.gamma_symmetry_decay_check(h2, eye2, traj3), "psi_hat", 3
        ),
        "verify_intertwining": (
            lambda: nhdyn.verify_intertwining(build_biorthogonal(h2), eye3), "hamiltonian", 3
        ),
        "occupations": (lambda: nhdyn.occupations(model, traj3), "psi_hat", 3),
        "similar_norm_preserving": (lambda: nhdyn.similar_norm_preserving(h2, eye3), "r", 3),
        "exact_trajectory": (lambda: exact_trajectory(h2, psi3, [0.0, 1.0]), "psi0", 3),
        "identity_norm_evolution": (
            lambda: nhdyn.identity_norm_evolution(ctx, psi3, [0.0, 1.0]), "psi0", 3
        ),
    }


@pytest.mark.parametrize("entry", list(_operand_of_another_dimension()))
def test_operand_of_another_dimension_is_named_by_the_validator(entry):
    call, name, dim = _operand_of_another_dimension()[entry]
    expected = 8 if entry == "occupations" else 2
    with pytest.raises(DimensionError) as info:
        call()
    assert str(info.value) == f"{name} has dim {dim}, expected {expected}"


def test_a_stack_is_not_one_operand():
    # exact_trajectory takes one state and gamma_t one observable per call
    h = np.diag([1.0, 2.0])
    with pytest.raises(DimensionError, match="psi0 must be 1-D, got ndim=2"):
        exact_trajectory(h, np.eye(2), [0.0, 1.0])
    with pytest.raises(DimensionError, match="observable must be 2-D, got ndim=3"):
        nhdyn.gamma_t(nhdyn.gamma_context(h), np.stack([np.eye(2)] * 2), 0.5)


def _matrix_as_state():
    """Calls handed a unit-norm 2x2 where a 4-state belongs: flattened, it would pass."""
    h4, block = np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(2) / np.sqrt(2.0)
    return {
        "exact_trajectory": (lambda: exact_trajectory(h4, block, [0.0, 1.0]), "psi0"),
        "integrate_nonlinear": (
            lambda: nhdyn.integrate_nonlinear(h4, block, [0.0, 1.0]), "psi_hat0"
        ),
        "mean_value": (lambda: nhdyn.mean_value(np.eye(2), [[1.0, 0.0]]), "psi_hat"),
        "identity_norm_evolution": (
            lambda: nhdyn.identity_norm_evolution(nhdyn.gamma_context(h4), block, [0.0, 1.0]),
            "psi0",
        ),
    }


@pytest.mark.parametrize("entry", list(_matrix_as_state()))
def test_a_matrix_is_not_a_state(entry):
    call, name = _matrix_as_state()[entry]
    with pytest.raises(DimensionError) as info:
        call()
    assert str(info.value) == f"{name} must be 1-D, got ndim=2"

import ast
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg

from conftest import eigensolver_fails
from oracles import rotation_2x2, scaled_taylor_expm, taylor_expm

import nhdyn
from nhdyn import (
    DimensionError,
    NhdynError,
    NumericRangeError,
    build_biorthogonal,
    build_car,
    build_dm_model,
    classify,
    classify_ensemble,
    closed_form_occupations,
    closed_form_scalar,
    eig_general,
    eigenstate_context,
    exact_trajectory,
    expm,
    gamma_context,
    gamma_series,
    gamma_symmetry_basis,
    gamma_t,
    identity_norm_evolution,
    integrate_nonlinear,
    necessary_condition_residual,
    nullspace,
    op_norm,
    simulate_occupations,
    weak_identity_report,
)
from nhdyn.ensembles import random_hamiltonian, random_unit_vector
from nhdyn.errors import ConfigError, EigensolverError
from nhdyn.fermions import parse_occupation_label
from nhdyn.linalg import (
    MAX_DIM, _eig_exact, _expm_exact, as_state_vector, check_integer, check_number, check_times,
    check_tolerance, is_number, schur,
)
from nhdyn.scenario import parse_config, run


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
        # a 4 x 4 Jordan block: cond(V) past EIG_COND_MAX keeps the 41 anchors on expm
        h = (0.5 - 0.2j) * np.eye(4) + np.eye(4, k=1)
        traj = exact_trajectory(0.01 * h, np.full(4, 0.5), np.linspace(0, 1, 1001))
        assert traj.anchor_route == "expm"
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


class TestEigMemo:
    def test_repeated_call_shares_one_spectrum(self):
        h = random_hamiltonian(8, np.random.default_rng(3), kind="complex_spectrum")
        first, again = eig_general(h), eig_general(h.tolist())  # the same validated bytes
        assert again is first
        assert _eig_exact.cache_info()[:2] == (1, 1)  # hits, misses

    def test_a_shared_spectrum_is_read_only(self):
        spec = eig_general(random_hamiltonian(4, np.random.default_rng(4), kind="real_spectrum"))
        arrays = (spec.eigenvalues, spec.right_vectors, spec.matrix, spec.left_vectors)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = np.nan
        assert all(np.isfinite(a).all() for a in arrays)

    def test_a_failed_eigensolve_is_solved_once(self, monkeypatch):
        solves = []

        def fail(_):
            solves.append(1)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", fail)
        h = random_hamiltonian(6, np.random.default_rng(5), kind="complex_spectrum")
        for _ in range(2):
            with pytest.raises(EigensolverError, match="^eigendecomposition failed: Eigen"):
                eig_general(h)
        psi0 = random_unit_vector(6, np.random.default_rng(6))
        assert exact_trajectory(h, psi0, np.linspace(0, 1, 11)).anchor_route == "expm"
        assert len(solves) == 1

    def test_memo_stays_bounded_past_the_desk_scale(self):
        # a trajectory at N = 256 takes its anchors from its eigenvectors, and neither
        # memo keeps an entry past MAX_DIM
        rng = np.random.default_rng(6)
        h = random_hamiltonian(256, rng, kind="complex_spectrum")
        traj = exact_trajectory(h, random_unit_vector(256, rng), np.linspace(0, 1, 3))
        assert traj.anchor_route == "eig"
        assert eig_general(h) is not eig_general(h)
        assert _eig_exact.cache_info().currsize == _expm_exact.cache_info().currsize == 0

    def test_memo_keeps_one_entry(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            eig_general(random_hamiltonian(MAX_DIM, rng, kind="hermitian"))
        assert _eig_exact.cache_info()[1:] == (3, 1, 1)  # misses, maxsize, currsize


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


def _symmetry_route(tmp_path) -> str:
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    return report["tasks"]["symmetries"]["route"]


def test_only_the_schur_route_loads_scipy(tmp_path):
    # every task on a diagonalizable H, the symmetries on its eigenvectors, is numpy alone
    rng = np.random.default_rng(5)
    h = random_hamiltonian(6, rng, kind="complex_spectrum")
    psi0 = random_unit_vector(6, rng)
    pairs = lambda a: np.stack([a.real, a.imag], -1).tolist()  # noqa: E731
    doc = {
        "hamiltonian": pairs(h),
        "initial_state": pairs(psi0),
        "observables": ["identity", "H"],
        "time": {"t_start": 0.0, "t_end": 2.0, "points": 41},
        "tasks": ["trajectory", "classify", "biortho", "eigenstate_case", "symmetries"],
    }
    assert _run_in_fresh_interpreter(tmp_path, doc) == (0, [])
    assert _symmetry_route(tmp_path) == "eig"
    # a defective H takes the Schur form, which loads scipy on first use
    defective = {"hamiltonian": [[0, 1], [0, 0]], "tasks": ["symmetries"]}
    status, loaded = _run_in_fresh_interpreter(tmp_path, defective)
    assert status == 0
    assert "scipy.linalg" in loaded
    assert _symmetry_route(tmp_path) == "schur"


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

    @pytest.mark.parametrize("solve", [eig_general, build_biorthogonal, eigenstate_context])
    def test_an_empty_matrix_has_no_eigendecomposition(self, solve):
        # eig_general returned a 0x0 Spectrum with condition_estimate 4.5e15, on which
        # build_biorthogonal and eigenstate_context raised numpy's empty argmin and argmax
        with pytest.raises(DimensionError, match="^eig_general argument is empty$"):
            solve(np.zeros((0, 0)))


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
    """The ``Spectrum`` the ``eig_general`` memo shares gives the bits of a fresh eigensolve."""

    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    def test_shared_spectrum_equals_a_fresh_eigensolve(self, kind):
        h = random_hamiltonian(6, np.random.default_rng(31), kind=kind)
        spec = eig_general(h)
        assert spec.matrix.tobytes() == h.tobytes()
        assert spec.norm == op_norm(h)
        builds = [build_biorthogonal, *(partial(eigenstate_context, k0=k0) for k0 in (None, 0, 5))]
        for build in builds:
            shared = build(h)  # on the memo's spectrum
            _eig_exact.cache_clear()
            assert_same_bits(shared, build(h))  # on a fresh eigensolve


class TestNullspace:
    def test_full_rank_gives_zero_columns(self):
        assert nullspace(np.eye(3)).shape == (3, 0)

    def test_zero_matrix_gives_full_basis(self):
        basis = nullspace(np.zeros((2, 3)))
        assert basis.shape == (3, 3)
        assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)

    def test_a_map_from_or_to_nothing(self):
        # the kernel of a map from C^0 is {0}, with a (0, 0) basis (this raised IndexError);
        # a map from C^3 to C^0 has all of C^3 as its kernel
        assert nullspace(np.zeros((3, 0))).shape == (0, 0)
        assert np.array_equal(nullspace(np.zeros((0, 3))), np.eye(3))

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

    @pytest.mark.parametrize("scale, dim", [(0, 1), (2.0, 1), (1e5, 1), (1e8, 2), (1e11, 3)])
    def test_the_cut_is_relative_to_the_larger_of_sigma_max_and_scale(self, scale, dim):
        # sigma = 4, 1e-3, 1e-12: the kernel holds the singular values at or below
        # rank_tol_rel * max(4, scale), so a scale below sigma_max leaves the cut alone
        l = np.diag([4.0, 1e-3, 1e-12])
        basis = nullspace(l, 1e-10, scale)
        assert basis.shape == (3, dim)
        assert op_norm(l @ basis) <= 1e-10 * max(4.0, scale)
        assert np.abs(basis.conj().T @ basis - np.eye(dim)).max() < 1e-14


UPPER = np.array([[1.0, 2.0], [0.0, 3.0]])


def _upper_without_a_spectrum():
    """UPPER's context after a failed eigensolve: its series sums by terms, its symmetry
    basis runs on the Schur route."""
    with eigensolver_fails():
        ctx = gamma_context(UPPER)
        assert ctx.spectrum is None
    return ctx


def _tolerance_calls():
    """Each public call that takes a tolerance: its id -> (parameter, call of the value)."""
    ctx, on_spectrum = _upper_without_a_spectrum(), gamma_context(eig_general(UPPER))
    traj = exact_trajectory(UPPER, np.array([0.6, 0.8]), np.linspace(0.0, 1.0, 5))
    rng = np.random.default_rng(0)
    return {
        "gamma_series": ("tol_trunc", lambda tol: gamma_series(ctx, np.eye(2), 1.0, tol)),
        "gamma_series-eig": (
            "tol_trunc", lambda tol: gamma_series(on_spectrum, np.eye(2), 1.0, tol)
        ),
        "weak_identity_report": (
            "tol_trunc",
            lambda tol: weak_identity_report(eigenstate_context(UPPER), [0.0, 1.0], rng, tol),
        ),
        "classify": ("tol_class", lambda tol: classify(UPPER, np.eye(2), traj, tol)),
        "classify_ensemble": (
            "tol_class",
            lambda tol: classify_ensemble(UPPER, np.eye(2), [0.0, 1.0], 2, rng, tol),
        ),
        "build_biorthogonal": ("tol_distinct", lambda tol: build_biorthogonal(UPPER, tol)),
        "gamma_symmetry_basis": ("rank_tol_rel", lambda tol: gamma_symmetry_basis(ctx, tol)),
        "build_dm_model-lam": ("lam", lambda v: build_dm_model(v, 1.0)),
        "build_dm_model-mu": ("mu", lambda v: build_dm_model(1.0, v)),
        "nullspace": ("rank_tol_rel", lambda tol: nullspace(UPPER, tol)),
        "random_hamiltonian-scale": (
            "scale", lambda v: random_hamiltonian(2, rng, "complex_spectrum", scale=v)
        ),
        "random_hamiltonian-basis_stretch": (
            "basis_stretch",
            lambda v: random_hamiltonian(2, rng, "complex_spectrum", basis_stretch=v),
        ),
    }


TOLERANCE_CALLS = [
    "build_biorthogonal", "build_dm_model-lam", "build_dm_model-mu", "classify",
    "classify_ensemble", "gamma_series", "gamma_series-eig", "gamma_symmetry_basis", "nullspace",
    "random_hamiltonian-basis_stretch", "random_hamiltonian-scale", "weak_identity_report",
]


class TestCheckTolerance:
    # before one checker: inf and True cut gamma_series short (0.61 and 0.21 off
    # gamma_t), NaN summed 178 terms, an infinite tol_class called everything
    # conserved, and NaN or -1 skipped build_biorthogonal's collision check
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0, True, "1"])
    @pytest.mark.parametrize("call", TOLERANCE_CALLS)
    def test_every_tolerance_rejects_what_is_not_a_finite_positive_real(self, call, bad):
        name, run = _tolerance_calls()[call]
        with pytest.raises(ConfigError, match=f"^{name} must be a finite positive number"):
            run(bad)

    @pytest.mark.parametrize("bad", [np.nan, -1.0, True])
    @pytest.mark.parametrize("call", ["classify_ensemble", "weak_identity_report"])
    def test_a_bad_tolerance_raises_before_any_trajectory(self, monkeypatch, call, bad):
        name, run = _tolerance_calls()[call]
        trajectories = []
        for module in (nhdyn.flow, nhdyn.eigenstate):
            step = module.exact_trajectory
            monkeypatch.setattr(
                module, "exact_trajectory",
                lambda *a, _step=step: trajectories.append(1) or _step(*a),
            )
        _expm_exact.cache_clear()
        with pytest.raises(ConfigError, match=f"^{name} must be a finite positive number"):
            run(bad)
        assert trajectories == []
        assert _expm_exact.cache_info().misses == 0
        run(1e-9)  # the counters see the work of a good tolerance
        assert trajectories and _expm_exact.cache_info().misses > 0

    @pytest.mark.parametrize("call", TOLERANCE_CALLS)
    def test_every_tolerance_takes_a_numpy_float(self, call):
        # a float32 tolerance once warned "overflow encountered in cast" against the float
        # range; an int64 1 passes the rule, then rank_tol_rel refuses it as no fraction
        # below one and tol_distinct = 1 |H| calls UPPER's eigenvalues 1 and 3 a collision
        name, run = _tolerance_calls()[call]
        run(np.float64(1e-9))
        run(np.float32(1e-9))
        refusals = {"rank_tol_rel": ConfigError, "tol_distinct": nhdyn.DegenerateSpectrumError}
        if name in refusals:
            with pytest.raises(refusals[name], match="below 1|collide"):
                run(np.int64(1))
        else:
            run(np.int64(1))

    def test_a_fraction_must_lie_below_one(self):
        assert check_tolerance(1, "tol") == 1.0
        assert check_tolerance(0.5, "tol", below_one=True) == 0.5
        with pytest.raises(ConfigError, match="tol must be below 1"):
            check_tolerance(1, "tol", below_one=True)
        with pytest.raises(ConfigError, match="finite positive"):
            check_tolerance(10**400, "tol")


def _number_calls():
    """Each public number that is no tolerance, count or time: its id -> (parameter, the
    rest of the message, call of the value)."""
    traj = exact_trajectory(UPPER, np.array([0.6, 0.8]), np.linspace(0.0, 1.0, 5))
    return {
        "nullspace": ("scale", "real number >= 0", lambda v: nullspace(UPPER, scale=v)),
        "necessary_condition_residual": (
            "x0", "number", lambda v: necessary_condition_residual(UPPER, np.eye(2), traj, v)
        ),
    }


BAD_NUMBERS = [
    math.nan, math.inf, -math.inf, complex(0.0, math.inf), "x", None, True, 10**400,
    int(sys.float_info.max) + 1,
]


def _bad_numbers():
    for call in _number_calls():
        real = [-1.0, -1e-300, 1j, np.float32(math.nan)] if call == "nullspace" else []
        yield from (pytest.param(call, v, id=f"{call}-{v!r}") for v in BAD_NUMBERS + real)


class TestCheckNumber:
    # before one rule: scale=inf called all of C^3 the kernel of the identity, "x" raised
    # numpy's UFuncTypeError, NaN and -1 were ignored; x0=nan gave a NaN residual with
    # premise_ok True, inf warned, "x" and None raised a bare TypeError, True read as 1
    @pytest.mark.parametrize("call, bad", _bad_numbers())
    def test_every_number_rejects_what_is_not_finite(self, monkeypatch, call, bad):
        name, what, run = _number_calls()[call]
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("an SVD ran"))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{name} must be a finite {what}')}$"):
            run(bad)

    @pytest.mark.parametrize(
        "good", [0, 2, np.float64(0.5), np.float32(2.0), np.int64(3), 10**300], ids=repr
    )
    def test_every_number_takes_a_numpy_or_integer_number(self, good):
        for _, _, run in _number_calls().values():
            run(good)
        assert type(check_number(good, "scale", nonnegative=True)) is float
        assert check_number(np.complex64(2j), "x0") == 2j


@pytest.mark.parametrize(
    "kind, scale, stretch",
    [("hermitian", 1e308, 2.0), ("complex_spectrum", 1e308, 2.0), ("real_spectrum", 8e307, 10.0)],
)
def test_a_hamiltonian_past_the_float_range_is_a_range_error(kind, scale, stretch):
    # a finite scale once gave a non-finite H after an overflow warning
    with pytest.raises(NumericRangeError, match=re.escape(f"scale {scale:.3e} ")):
        random_hamiltonian(3, np.random.default_rng(0), kind, scale=scale, basis_stretch=stretch)


def _integer_calls(tmp_path):
    """Each integer parameter's call of a value -> what the callee keeps of it, or None."""
    model = build_dm_model(1.0, 1.0)
    grid = [0.0, 0.1]

    def rk4(v):
        integrate_nonlinear(model.h, model.algebra.basis_state("011"), grid, v)

    def ensemble(v):
        classify_ensemble(UPPER, np.eye(2), grid, v, np.random.default_rng(0))

    def config(**change):
        doc = {"hamiltonian": UPPER.tolist(), "time": {"t_end": 1.0, "points": 3}}
        return parse_config({**doc, "tasks": ["eigenstate_case"], **change})

    return {
        "integrate_nonlinear": rk4,
        "classify_ensemble": ensemble,
        "eigenstate_context": lambda v: eigenstate_context(UPPER, v).k0,
        "build_car": lambda v: build_car(v).n_modes,
        "random_hamiltonian": lambda v: random_hamiltonian(v, np.random.default_rng(0)).shape[0],
        "parse_config-seed": lambda v: config(seed=v).seed,
        "run-seed": lambda v: run(config(), tmp_path / "out", seed=v).config_echo["seed"],
        "parse_config-time.points": lambda v: config(time={"points": v}).echo["time"]["points"],
        "parse_config-eigenstate_k0": lambda v: config(eigenstate_k0=v).eigenstate_k0,
        "parse_occupation_label": lambda v: parse_occupation_label((0, v, 1), 3)[1],
    }


# call -> (name in the message, low, high or None, whether None is the default, a good value)
INTEGER_RULES = {
    "integrate_nonlinear": ("substeps", 1, None, False, 3),
    "classify_ensemble": ("n_states", 1, None, False, 2),
    "eigenstate_context": ("k0", 0, 1, True, 1),
    "build_car": ("n_modes", 1, 10, False, 2),
    "random_hamiltonian": ("dim", 2, None, False, 3),
    "parse_config-seed": ("seed", 0, None, False, 3),
    "run-seed": ("seed", 0, None, True, 3),
    "parse_config-time.points": ("time.points", 2, 100_000, False, 5),
    "parse_config-eigenstate_k0": ("eigenstate_k0", 0, 1, True, 1),
    "parse_occupation_label": ("occupation label bit", 0, 1, False, 1),
}


def _bad_integers():
    for call, (_, low, high, none_is_default, _) in INTEGER_RULES.items():
        bad = [2.0, 2.5, math.nan, True, "1", low - 1]
        bad += ([] if high is None else [high + 1]) + ([] if none_is_default else [None])
        yield from (pytest.param(call, v, id=f"{call}-{v!r}") for v in bad)


class TestCheckInteger:
    # before one checker: build_car(True) built one mode and build_car(2.0) raised a
    # bare TypeError, (0, 1.9, 1) and (0, True, 1) both read as (0, 1, 1), and
    # np.int64 passed eigenstate_context but not run's seed
    @pytest.mark.parametrize("call, bad", _bad_integers())
    def test_every_integer_rejects_what_is_not_an_integer_in_range(self, tmp_path, call, bad):
        name, low, high = INTEGER_RULES[call][:3]
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        message = re.escape(f"{name} must be an integer {bound}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            _integer_calls(tmp_path)[call](bad)

    @pytest.mark.parametrize("call", INTEGER_RULES)
    def test_every_integer_takes_a_numpy_integer_as_an_int(self, tmp_path, call):
        good = INTEGER_RULES[call][-1]
        kept = _integer_calls(tmp_path)[call](np.int64(good))
        assert kept is None or (type(kept) is int and kept == good)

    @pytest.mark.parametrize("label", [5, None, (0, 1), [0, 1, 1, 0], {0, 1}, np.array([0, 1, 1])])
    def test_a_label_is_a_string_or_a_list_of_bits(self, label):
        with pytest.raises(ConfigError, match="^occupation label must be a string or 3 bits"):
            parse_occupation_label(label, 3)
        assert parse_occupation_label([0, 1, 1], 3) == parse_occupation_label("011", 3)

    def test_the_bounds_are_inclusive(self):
        assert check_integer(2, "n", 2, 2) == 2
        assert check_integer(10**30, "n", 0) == 10**30


ACCEPTED = [np.float32(0.5), np.int64(2), Fraction(1, 2), 2**70]
REFUSED = [
    int(sys.float_info.max) + 1, 10**400, True, np.True_, "1", None, math.nan, math.inf,
]


def _number_rules():
    """Every rule that reads one number: its id -> call of the value."""
    def config(**change):
        doc = {"hamiltonian": [[1.0, 0.0], [0.0, 2.0]], "tasks": ["biortho"]}
        return parse_config({**doc, **change})

    return {
        "check_tolerance": lambda v: check_tolerance(v, "tol"),
        "check_number": lambda v: check_number(v, "x0"),
        "check_number-nonnegative": lambda v: check_number(v, "scale", nonnegative=True),
        "check_times": lambda v: check_times((v,), "t"),
        "config-entry": lambda v: config(hamiltonian=[[v, 0.0], [0.0, 2.0]]),
        "config-t_end": lambda v: config(time={"t_end": v}),
        "as_state_vector": lambda v: as_state_vector([v]),
    }


class TestOneNumberRule:
    # before one predicate the rules disagreed: a float32 tolerance warned, Fraction and
    # 2**70 failed the time rule, numpy scalars failed config entries, check_number took
    # int(max) + 1 as 1.8e308, and as_state_vector read True and "1" as 1, None as NaN
    # and raised OverflowError on 10**400
    @pytest.mark.parametrize("rule", list(_number_rules()))
    @pytest.mark.parametrize("good", ACCEPTED, ids=repr)
    def test_every_rule_takes_a_number(self, rule, good):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _number_rules()[rule](good)

    @pytest.mark.parametrize("rule", list(_number_rules()))
    @pytest.mark.parametrize("bad", REFUSED, ids=lambda v: repr(v)[:12])
    def test_every_rule_refuses_what_is_no_number(self, rule, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NhdynError):
                _number_rules()[rule](bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)], ids=repr)
    def test_a_non_finite_float_entry_is_a_range_error(self, bad):
        with pytest.raises(NumericRangeError, match="^psi0 contains non-finite entries$"):
            exact_trajectory(np.eye(2), np.array([bad, 0.0]), [0.0, 1.0])
        with pytest.raises(NumericRangeError, match="^matrix contains non-finite entries$"):
            op_norm([[1.0, bad]])

    @pytest.mark.parametrize(
        "bad", [[True, False], ["1", "0"], [b"1", b"0"], [None, 1.0], [Fraction(1), 10**400]],
        ids=repr,
    )
    def test_an_array_of_what_is_no_number_is_a_config_error(self, bad):
        with pytest.raises(ConfigError, match="^vector must be an array of numbers$"):
            as_state_vector(bad)
        with pytest.raises(ConfigError, match="^matrix must be an array of numbers$"):
            op_norm([bad])

    def test_a_rational_is_compared_with_the_float_range_exactly(self):
        # float() rounds int(max) + 1 and its Fraction down to max, and raises on 10**400
        for big in (int(sys.float_info.max) + 1, Fraction(int(sys.float_info.max) + 1),
                    Fraction(-(10**400), 3)):
            assert not is_number(big) and not is_number(big, real=True)
        assert is_number(Fraction(int(sys.float_info.max))) and is_number(-(2**1023))

    def test_an_object_array_of_numbers_is_read_as_complex(self):
        v = as_state_vector([Fraction(1, 2), 2**70, np.float32(0.25)])
        assert v.dtype == complex and v.tolist() == [0.5, 2.0**70, 0.25]
        assert check_times([Fraction(1, 4), 2**70], "t")[0].tolist() == [0.25, 2.0**70]


def test_only_linalg_names_the_numbers_module():
    # the number rules have one owner: no other module imports or names ``numbers``
    users = set()
    for path in sorted(Path(nhdyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = [node.id] if isinstance(node, ast.Name) else []
            if any(n == "numbers" or n.startswith("numbers.") for n in names):
                users.add(path.stem)
    assert users == {"linalg"}


def _time_calls():
    """Each public call that takes a time or a time grid: its id -> (name in the message,
    call of the value)."""
    model, ctx = build_dm_model(1.0, 1.0), gamma_context(UPPER)
    on_terms = _upper_without_a_spectrum()
    psi, rng = np.array([0.6, 0.8]), np.random.default_rng(0)
    return {
        "exact_trajectory": ("t_grid", lambda t: exact_trajectory(UPPER, psi, t)),
        "integrate_nonlinear": ("t_grid", lambda t: integrate_nonlinear(UPPER, psi, t)),
        "classify_ensemble": (
            "t_grid", lambda t: classify_ensemble(UPPER, np.eye(2), t, 2, rng)
        ),
        "weak_identity_report": (
            "t_grid", lambda t: weak_identity_report(eigenstate_context(UPPER), t, rng)
        ),
        "identity_norm_evolution": ("t_grid", lambda t: identity_norm_evolution(ctx, psi, t)),
        "simulate_occupations": ("t_grid", lambda t: simulate_occupations(model, "011", t)),
        "gamma_t": ("t", lambda t: gamma_t(ctx, np.eye(2), t)),
        "gamma_series": ("t", lambda t: gamma_series(on_terms, np.eye(2), t)),
        "closed_form_occupations": ("t", lambda t: closed_form_occupations(model, "011", t)),
        "closed_form_scalar": ("t", lambda t: closed_form_scalar(model, "011", t)),
    }


GRID_CALLS = [
    "classify_ensemble", "exact_trajectory", "identity_norm_evolution", "integrate_nonlinear",
    "simulate_occupations", "weak_identity_report",
]
SCALAR_CALLS = [
    "closed_form_occupations", "closed_form_scalar", "gamma_series", "gamma_t",
]
BAD_TIMES = [math.nan, math.inf, -math.inf, "1", None, True, np.True_]
BAD_GRIDS = BAD_TIMES + [[True, False], [0.0, True], [[0, 1], [2, 3]], [], [[0.0, 1.0], [2.0]]]


def _bad_times():
    for call in GRID_CALLS + SCALAR_CALLS:
        for bad in BAD_GRIDS if call in GRID_CALLS else BAD_TIMES:
            yield pytest.param(call, bad, id=f"{call}-{bad!r}")


class TestCheckTimes:
    # before one checker: NaN in a grid was exit 3 from four functions, a TruncationError
    # from the series and "t_grid must be uniform" from the integrator; inf warned, strings
    # raised bare ValueError or UFuncTypeError, 2-D grids were flattened, bools were times
    @pytest.mark.parametrize("call, bad", _bad_times())
    def test_every_time_rejects_what_is_not_finite_real_times(self, call, bad):
        name, run = _time_calls()[call]
        with pytest.raises(ConfigError, match=f"^{name} must be finite real times in a 1-D"):
            run(bad)

    @pytest.mark.parametrize("bad", BAD_TIMES, ids=repr)
    def test_the_series_checks_its_time_on_the_eig_route(self, bad):
        # the eigenbasis sum takes its own rate from t, so t is checked before the route
        ctx = gamma_context(eig_general(UPPER))
        assert ctx.series_route(1e-12) == "eig"
        with pytest.raises(ConfigError, match="^t must be finite real times in a 1-D"):
            gamma_series(ctx, np.eye(2), bad)

    @pytest.mark.parametrize("call", ["identity_norm_evolution", "integrate_nonlinear"])
    def test_a_derivative_or_a_step_needs_two_points(self, call):
        message = r"^t_grid must be finite real times in a 1-D array of >= 2$"
        with pytest.raises(ConfigError, match=message):
            _time_calls()[call][1]([0.5])

    @pytest.mark.parametrize("call", GRID_CALLS + SCALAR_CALLS)
    def test_every_time_takes_numpy_and_integer_times(self, call):
        grids = ([0, np.float64(0.01)], np.linspace(0, 0.02, 3, dtype=np.float32))
        goods = grids if call in GRID_CALLS else (1, np.float64(0.5), np.float32(0.5))
        for good in goods:
            _time_calls()[call][1](good)

    @pytest.mark.parametrize("bad", BAD_GRIDS, ids=repr)
    def test_classify_ensemble_checks_its_grid_before_it_draws_a_state(self, monkeypatch, bad):
        trajectories = []
        monkeypatch.setattr(nhdyn.flow, "exact_trajectory", lambda *a: trajectories.append(a))
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="^t_grid must be finite real times"):
            classify_ensemble(UPPER, np.eye(2), bad, 2, rng)
        assert trajectories == [] and rng.bit_generator.state == state

    @pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 3), (2, 1, 2)])
    def test_the_closed_forms_keep_any_shape(self, shape):
        model = build_dm_model(1.0, 2.0)
        t = np.linspace(0.0, 2.0, math.prod(shape)).reshape(shape)
        n1, n2, n3 = closed_form_occupations(model, "011", t)
        scalar = closed_form_scalar(model, "010", t)
        assert n1.shape == n2.shape == n3.shape == np.shape(scalar) == shape
        flat = closed_form_occupations(model, "011", t.reshape(-1))
        assert all(np.array_equal(a.reshape(-1), b) for a, b in zip((n1, n2, n3), flat))

    @pytest.mark.parametrize("call", ["exact_trajectory", "integrate_nonlinear", "gamma_t"])
    def test_a_time_whose_product_with_h_overflows_is_a_range_error(self, call):
        # finite times with t H past the float range: the product warned before expm raised
        h = 100.0 * UPPER
        runs = {
            "exact_trajectory": lambda: exact_trajectory(h, [1.0, 0.0], [0.0, 1e307, 2e307]),
            "integrate_nonlinear": lambda: integrate_nonlinear(h, [1.0, 0.0], [0.0, 1e307]),
            "gamma_t": lambda: gamma_t(gamma_context(h), np.eye(2), 1e307),
        }
        with pytest.raises(NumericRangeError, match="^expm argument contains non-finite"):
            runs[call]()

    def test_the_step_is_the_common_step_or_none(self):
        t, step = check_times([0, 1, 2], "t")
        assert t.dtype == float and t.tolist() == [0.0, 1.0, 2.0] and step == 1.0
        assert check_times([0.0, 1.0, 3.0], "t")[1] is None
        assert check_times([2.0], "t")[1] is None
        assert check_times([-1e308, 1e308], "t")[1] is None  # the step is past the range
        grid = np.linspace(0.0, 1.0, 11)
        assert check_times(grid, "t")[0] is grid  # a float grid is not copied


def test_every_time_parameter_is_in_the_bad_time_table():
    # a new public time parameter must join _time_calls, so it cannot skip the time rule
    takers = {
        name for name in nhdyn.__all__
        if inspect.isfunction(getattr(nhdyn, name))
        and {"t", "t_grid", "times"} & set(inspect.signature(getattr(nhdyn, name)).parameters)
    }
    assert takers == set(_time_calls()) == set(GRID_CALLS + SCALAR_CALLS)


def test_every_number_parameter_is_in_a_rule_table():
    # a new public float, int or complex parameter must join the tolerance, integer, time
    # or number table, so it cannot skip its rule
    covered = {(call.split("-")[0], rule[0]) for call, rule in INTEGER_RULES.items()}
    for table in (_tolerance_calls(), _time_calls(), _number_calls()):
        covered |= {(call.split("-")[0], entry[0]) for call, entry in table.items()}
    takers = {
        (name, param)
        for name in nhdyn.__all__ if inspect.isfunction(getattr(nhdyn, name))
        for param, p in inspect.signature(getattr(nhdyn, name)).parameters.items()
        if str(getattr(p.annotation, "__name__", p.annotation)).removesuffix(" | None")
        in {"float", "int", "complex"}
    }
    assert {("nullspace", "scale"), ("necessary_condition_residual", "x0")} <= takers
    assert takers - covered == set()


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


OPERAND_PARAMETERS = {"h", "x", "a", "l", "h0", "r", "psi0", "psi_hat", "psi_hat0"}


def _operand_calls():
    """Each public (function, matrix or state parameter) -> call of a value in that place,
    with every other argument good and built before the call."""
    h2, x2, psi2, grid = np.diag([1.0, 2.0]), np.eye(2), np.array([1.0, 0.0]), [0.0, 0.5, 1.0]
    ctx, system = gamma_context(h2), build_biorthogonal(h2)
    traj, rng = exact_trajectory(h2, psi2, grid), np.random.default_rng(0)
    return {
        ("build_biorthogonal", "h"): lambda v: build_biorthogonal(v),
        ("classify", "h"): lambda v: classify(v, x2, traj),
        ("classify", "x"): lambda v: classify(h2, v, traj),
        ("classify_ensemble", "h"): lambda v: classify_ensemble(v, x2, grid, 2, rng),
        ("classify_ensemble", "x"): lambda v: classify_ensemble(h2, v, grid, 2, rng),
        ("delta_gamma", "x"): lambda v: nhdyn.delta_gamma(ctx, v),
        ("delta_psi_hat", "h"): lambda v: nhdyn.delta_psi_hat(v, x2, psi2),
        ("delta_psi_hat", "x"): lambda v: nhdyn.delta_psi_hat(h2, v, psi2),
        ("delta_psi_hat", "psi_hat"): lambda v: nhdyn.delta_psi_hat(h2, x2, v),
        ("eig_general", "a"): lambda v: eig_general(v),
        ("eigenstate_context", "h"): lambda v: eigenstate_context(v),
        ("exact_trajectory", "h"): lambda v: exact_trajectory(v, psi2, grid),
        ("exact_trajectory", "psi0"): lambda v: exact_trajectory(h2, v, grid),
        ("expm", "a"): lambda v: expm(v),
        ("gamma_context", "h"): lambda v: gamma_context(v),
        ("gamma_series", "x"): lambda v: gamma_series(ctx, v, 0.5),
        ("gamma_symmetry_decay_check", "h"): (
            lambda v: nhdyn.gamma_symmetry_decay_check(v, x2, traj)
        ),
        ("gamma_symmetry_decay_check", "x"): (
            lambda v: nhdyn.gamma_symmetry_decay_check(h2, v, traj)
        ),
        ("gamma_t", "x"): lambda v: gamma_t(ctx, v, 0.5),
        ("h_nl", "h"): lambda v: nhdyn.h_nl(v, psi2),
        ("h_nl", "psi_hat"): lambda v: nhdyn.h_nl(h2, v),
        ("identity_norm_evolution", "psi0"): lambda v: identity_norm_evolution(ctx, v, grid),
        ("integrate_nonlinear", "h"): lambda v: integrate_nonlinear(v, psi2, grid),
        ("integrate_nonlinear", "psi_hat0"): lambda v: integrate_nonlinear(h2, v, grid),
        ("mean_derivative", "h"): lambda v: nhdyn.mean_derivative(v, x2, psi2),
        ("mean_derivative", "x"): lambda v: nhdyn.mean_derivative(h2, v, psi2),
        ("mean_derivative", "psi_hat"): lambda v: nhdyn.mean_derivative(h2, x2, v),
        ("mean_value", "x"): lambda v: nhdyn.mean_value(v, psi2),
        ("mean_value", "psi_hat"): lambda v: nhdyn.mean_value(x2, v),
        ("necessary_condition_residual", "h"): (
            lambda v: necessary_condition_residual(v, x2, traj, 1.0)
        ),
        ("necessary_condition_residual", "x"): (
            lambda v: necessary_condition_residual(h2, v, traj, 1.0)
        ),
        ("nonhermiticity_scalar", "h"): lambda v: nhdyn.nonhermiticity_scalar(v, psi2),
        ("nonhermiticity_scalar", "psi_hat"): lambda v: nhdyn.nonhermiticity_scalar(h2, v),
        ("nullspace", "l"): lambda v: nullspace(v),
        ("op_norm", "a"): lambda v: op_norm(v),
        ("similar_norm_preserving", "h0"): lambda v: nhdyn.similar_norm_preserving(v, x2),
        ("similar_norm_preserving", "r"): lambda v: nhdyn.similar_norm_preserving(h2, v),
        ("verify_intertwining", "h"): lambda v: nhdyn.verify_intertwining(system, v),
    }


def test_every_operand_parameter_is_in_the_operand_table():
    # a new public matrix or state parameter must join _operand_calls, so it cannot skip
    # the number rule of the array validator
    takers = {
        (name, param)
        for name in nhdyn.__all__ if inspect.isfunction(getattr(nhdyn, name))
        for param in inspect.signature(getattr(nhdyn, name)).parameters
        if param in OPERAND_PARAMETERS
    }
    assert takers == set(_operand_calls())


def _fail_on_numerics(monkeypatch):
    for name in ("svd", "eig", "norm"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, **k: pytest.fail(f"{_n} ran"))
    monkeypatch.setattr(nhdyn.linalg, "_expm_exact", lambda *a: pytest.fail("expm ran"))


@pytest.mark.parametrize("kind", ["bool", "str"])
@pytest.mark.parametrize("entry", list(_operand_calls()), ids="-".join)
def test_an_operand_of_bools_or_strings_is_a_config_error(monkeypatch, entry, kind):
    # a bool H and state ran exact_trajectory, classify called a string observable
    # conserved, and integrate_nonlinear stepped the string state ["1", "0"]
    state = entry[1].startswith("psi")
    value = {
        ("bool", False): [[True, False], [False, True]], ("bool", True): [True, False],
        ("str", False): [["1", "0"], ["0", "1"]], ("str", True): ["1", "0"],
    }[kind, state]
    run = _operand_calls()[entry]
    _fail_on_numerics(monkeypatch)
    with pytest.raises(ConfigError, match="must be an array of numbers$"):
        run(value)


@pytest.mark.parametrize("kind", ["bool", "str"])
def test_an_observable_of_bools_or_strings_is_a_config_error_on_the_eig_route(monkeypatch, kind):
    # the eigenbasis sum must refuse X before it takes V^-1 or any product
    ctx = gamma_context(eig_general(np.diag([1.0, 2.0])))
    assert ctx.series_route(1e-12) == "eig"
    value = {"bool": [[True, False], [False, True]], "str": [["1", "0"], ["0", "1"]]}[kind]
    _fail_on_numerics(monkeypatch)
    monkeypatch.setattr(np.linalg, "inv", lambda *a: pytest.fail("inv ran"))
    with pytest.raises(ConfigError, match="must be an array of numbers$"):
        gamma_series(ctx, value, 0.5)


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

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhdyn.flow
import nhdyn.gamma
from nhdyn import (
    CertificationError,
    ConfigError,
    DimensionError,
    InstabilityError,
    NumericRangeError,
    build_biorthogonal,
    build_dm_model,
    classify,
    classify_ensemble,
    delta_gamma,
    delta_psi_hat,
    exact_trajectory,
    gamma_context,
    gamma_symmetry_basis,
    gamma_symmetry_decay_check,
    gamma_t,
    h_nl,
    identity_norm_evolution,
    integrate_nonlinear,
    mean_derivative,
    mean_value,
    necessary_condition_residual,
    nonhermiticity_scalar,
    op_norm,
)
from nhdyn.ensembles import random_hamiltonian, random_matrix, random_unit_vector
from nhdyn.flow import ANCHOR, STEP_TOL, _rk4_weights
from nhdyn.linalg import EIG_COND_MAX, _expm_exact, as_square_matrix, as_state_vector, eig_general, expm

from oracles import (
    classify_per_point,
    linear_propagator_states,
    rk4_krylov_loop,
    rk4_nonlinear,
    rk4_weights_quadratic_form,
    trajectory_per_point,
)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


def fresh_exponentials(h, psi0, t_grid):
    """Rows expm(-i H t_j) psi0 by nhdyn's own expm, one per grid point: what
    anchors and recomputed segments must hold bit for bit."""
    return np.array([expm(-1j * h * t) @ psi0 for t in t_grid])


def relative_gap(states, reference):
    return np.linalg.norm(states - reference, axis=1) / np.linalg.norm(reference, axis=1)


@pytest.fixture(scope="module")
def dm_unit():
    return build_dm_model(1.0, 1.0)


@pytest.fixture(scope="module")
def phi011_trajectory(dm_unit):
    return exact_trajectory(
        dm_unit.h, dm_unit.algebra.basis_state("011"), np.linspace(0, 5, 101)
    )


class TestExactTrajectory:
    def test_overflowing_state_norm_raises(self):
        # |psi(1e160)| = 1e160 is finite, but the unscaled 2-norm squares its entries
        with np.errstate(over="ignore"), pytest.raises(NumericRangeError, match="non-finite"):
            exact_trajectory([[0, 1], [0, 0]], [0, 1], [0.0, 1e160])

    def test_hermitian_keeps_unit_norm(self):
        rng = np.random.default_rng(51)
        h = random_hamiltonian(4, rng, kind="hermitian")
        traj = exact_trajectory(h, random_unit_vector(4, rng), np.linspace(0, 3, 31))
        assert np.abs(traj.norm_sq - 1.0).max() < 1e-12

    def test_fermionic_norm_growth(self, dm_unit):
        t = np.linspace(0, 5, 101)
        traj = exact_trajectory(dm_unit.h, dm_unit.algebra.basis_state("011"), t)
        assert np.abs(traj.norm_sq - (1 + 2 * t**2)).max() < 1e-11

    def test_antihermitian_diagonal_exponential_norm(self):
        t = np.linspace(0, 2, 21)
        traj = exact_trajectory(np.diag([1.0j, -1.0j]), np.array([1.0, 0.0]), t)
        assert np.abs(traj.norm_sq - np.exp(2 * t)).max() < 1e-10

    def test_normalized_states_consistent(self, phi011_trajectory):
        traj = phi011_trajectory
        norms = np.linalg.norm(traj.psi_hat, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12
        rebuilt = traj.psi / np.sqrt(traj.norm_sq)[:, None]
        assert np.abs(rebuilt - traj.psi_hat).max() < 1e-12

    def test_rejects_unnormalized_initial_state(self):
        with pytest.raises(ConfigError, match="normalized"):
            exact_trajectory(NILPOTENT, np.array([1.0, 1.0]), [0.0, 1.0])

    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("stretch", [2.0, 10.0])
    def test_stepped_trajectory_matches_per_point_oracle(self, kind, n, stretch):
        rng = np.random.default_rng(n)
        h = random_hamiltonian(n, rng, kind=kind, basis_stretch=stretch)
        psi0 = random_unit_vector(n, rng)
        t = np.linspace(0, 10, 201)
        traj = exact_trajectory(h, psi0, t)
        oracle = trajectory_per_point(h, psi0, t)
        gap = np.linalg.norm(traj.psi - oracle, axis=1) / np.linalg.norm(oracle, axis=1)
        assert gap.max() <= 1e-13
        assert traj.anchor_gap <= STEP_TOL
        assert traj.fallback_segments == 0

    def test_guard_recomputes_segments_that_drift(self):
        # a stretched eigenbasis makes stepping drift past STEP_TOL
        rng = np.random.default_rng(32)
        h = random_hamiltonian(32, rng, kind="complex_spectrum", basis_stretch=1e3)
        psi0 = random_unit_vector(32, rng)
        t = np.linspace(0, 10, 201)
        traj = exact_trajectory(h, psi0, t)
        fresh = fresh_exponentials(h, psi0, t)
        assert traj.anchor_gap > STEP_TOL
        assert traj.fallback_segments > 0
        anchors = list(range(0, t.size, ANCHOR))
        assert np.array_equal(traj.psi[anchors], fresh[anchors])
        per_point = [
            np.array_equal(traj.psi[a + 1 : b], fresh[a + 1 : b])
            for a, b in zip(anchors, anchors[1:])
        ]
        assert sum(per_point) == traj.fallback_segments
        # the segments left stepped passed the guard
        assert relative_gap(traj.psi, fresh).max() <= 10 * STEP_TOL

    def test_guard_recomputes_a_segment_of_one_step(self):
        # 27 points: anchors at 0, 25 and 26, so the last segment is one step
        rng = np.random.default_rng(3)
        h = random_hamiltonian(8, rng, kind="complex_spectrum", basis_stretch=1e3)
        psi0 = random_unit_vector(8, rng)
        t = np.linspace(0, 10, 2 + ANCHOR)
        traj = exact_trajectory(h, psi0, t)
        assert traj.fallback_segments == 2
        assert np.array_equal(traj.psi, fresh_exponentials(h, psi0, t))

    def test_non_uniform_grid_is_evaluated_per_point(self):
        rng = np.random.default_rng(71)
        h = random_hamiltonian(6, rng, kind="complex_spectrum")
        psi0 = random_unit_vector(6, rng)
        t = np.linspace(0, 3, 61) ** 2
        traj = exact_trajectory(h, psi0, t)
        assert np.array_equal(traj.psi, fresh_exponentials(h, psi0, t))
        assert relative_gap(traj.psi, trajectory_per_point(h, psi0, t)).max() <= 1e-13
        assert (traj.anchor_gap, traj.fallback_segments) == (0.0, 0)

    def test_stepped_trajectory_matches_the_nilpotent_propagator(self, dm_unit):
        # H^2 = 0, so exp(-iHt) = 1 - iHt exactly; 40 segments of stepping
        psi0 = dm_unit.algebra.basis_state("011")
        t = np.linspace(0, 50, 1001)
        traj = exact_trajectory(dm_unit.h, psi0, t)
        exact = linear_propagator_states(dm_unit.h, psi0, t)
        gap = np.linalg.norm(traj.psi - exact, axis=1) / np.linalg.norm(exact, axis=1)
        assert gap.max() <= 1e-13


class TestEigenAnchors:
    """A ``Spectrum`` with cond(V) <= ``EIG_COND_MAX`` anchors a stepped trajectory at
    V (e^{-i lam t} * V^-1 psi0); anything else takes today's ``expm`` anchors."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 16),
        kind=st.sampled_from(["hermitian", "real_spectrum", "complex_spectrum"]),
        stretch=st.sampled_from([1.0, 10.0, 1e2, 1e3]),
        t_end=st.floats(0.5, 20.0),
        points=st.integers(3, 120),
        uniform=st.booleans(),
    )
    def test_eigenvector_anchors_match_the_expm_anchors(
        self, seed, n, kind, stretch, t_end, points, uniform
    ):
        rng = np.random.default_rng(seed)
        h = random_hamiltonian(n, rng, kind=kind, basis_stretch=stretch)
        psi0 = random_unit_vector(n, rng)
        t = np.linspace(0.0, t_end, points) ** (1 if uniform else 2)
        spec = eig_general(h)
        by_eig, by_expm = exact_trajectory(spec, psi0, t), exact_trajectory(h, psi0, t)
        eig = uniform and spec.condition_estimate <= EIG_COND_MAX
        assert by_eig.anchor_route == ("eig" if eig else "expm")
        assert by_expm.anchor_route == "expm"
        if not eig:  # a non-uniform grid or an ill-conditioned V: today's route, bit for bit
            assert by_eig.psi.tobytes() == by_expm.psi.tobytes()
            return
        # relative bound: both routes' roundoff grows with |H| t_j, the eigenvector route's
        # also with cond(V), so the rows agree within 1e-13 cond(V) max(1, |H|_2 t_j) (1,500
        # draws of this strategy peaked at 3.5e-15; at stretch 1e3 the expm anchors are
        # the farther from an mpmath reference)
        bound = 1e-13 * spec.condition_estimate * np.maximum(1.0, spec.norm * t)
        assert np.all(relative_gap(by_eig.psi, by_expm.psi) <= bound)
        assert by_eig.psi[0].tobytes() == by_expm.psi[0].tobytes()  # the first point is expm's

    @pytest.mark.parametrize("which", ["fermion_dm", "jordan"])
    def test_defective_input_takes_the_expm_route_bit_for_bit(self, which, dm_unit):
        if which == "fermion_dm":
            h, psi0 = dm_unit.h, dm_unit.algebra.basis_state("011")
        else:  # a 4 x 4 Jordan block
            h = (0.5 - 0.2j) * np.eye(4) + np.eye(4, k=1)
            psi0 = np.full(4, 0.5, dtype=complex)
        spec = eig_general(h)
        assert spec.condition_estimate > EIG_COND_MAX
        t = np.linspace(0, 10, 201)
        by_spec, by_matrix = exact_trajectory(spec, psi0, t), exact_trajectory(h, psi0, t)
        assert by_spec.psi.tobytes() == by_matrix.psi.tobytes()
        assert (by_spec.anchor_gap, by_spec.fallback_segments, by_spec.anchor_route) == (
            by_matrix.anchor_gap, by_matrix.fallback_segments, "expm"
        )

    def test_perturbed_eigenvectors_trip_the_guard(self):
        # V off by 1e-6: every V anchor misses the stepped state, so every segment and
        # its anchor are redone with expm, and the result is the per-point expm route
        rng = np.random.default_rng(8)
        h = random_hamiltonian(12, rng, kind="complex_spectrum")
        psi0 = random_unit_vector(12, rng)
        spec = eig_general(h)
        noise = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        bad = dataclasses.replace(spec, right_vectors=spec.right_vectors + 1e-6 * noise)
        t = np.linspace(0, 10, 201)
        traj, by_matrix = exact_trajectory(bad, psi0, t), exact_trajectory(h, psi0, t)
        assert traj.anchor_route == "eig"
        assert traj.fallback_segments == 8
        assert traj.anchor_gap > 1e-8
        assert np.array_equal(traj.psi, fresh_exponentials(h, psi0, t))
        anchors = [*range(0, t.size, ANCHOR), t.size - 1]
        assert np.array_equal(traj.psi[anchors], by_matrix.psi[anchors])
        assert relative_gap(traj.psi, by_matrix.psi).max() <= 1e-13

    def test_a_v_anchor_past_the_float_range_falls_back_to_expm(self):
        # e^{-i lam t} overflows for lam = 800i at t = 1, so the V anchor is not finite:
        # the guard fails, and expm reports the overflow as the matrix route does
        spec = eig_general(np.diag([800j, 1.0]))
        t = np.linspace(0, 1, 51)
        for h in (spec, spec.matrix):
            with pytest.raises(NumericRangeError, match="expm overflowed"):
                exact_trajectory(h, np.array([0.6, 0.8]), t)


class TestNonlinearHamiltonian:
    def test_hermitian_collapse(self):
        h = np.array([[1.0, 0.5], [0.5, 2.0]])
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        assert np.abs(h_nl(h, v) - h).max() < 1e-14

    def test_vanishing_scalar_keeps_h(self):
        assert np.abs(h_nl(NILPOTENT, np.array([1.0, 0.0])) - NILPOTENT).max() < 1e-14

    def test_imaginary_scalar_shift_by_hand(self):
        # <psi,(H^†-H)psi> = -i for psi = (1, i)/sqrt2, so the shift is -i/2
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        expected = NILPOTENT - 0.5j * np.eye(2)
        assert np.abs(h_nl(NILPOTENT, v) - expected).max() < 1e-14

    def test_sum_rule_along_trajectory(self, dm_unit, phi011_trajectory):
        h = dm_unit.h
        target = h + h.conj().T
        for v in phi011_trajectory.psi_hat:
            hnl = h_nl(h, v)
            assert op_norm(hnl + hnl.conj().T - target) <= 1e-13

    def test_rejects_non_unit_state(self):
        with pytest.raises(ConfigError):
            h_nl(NILPOTENT, np.array([1.0, 1.0]))


class TestIntegrateNonlinear:
    def test_hermitian_case_matches_linear_flow(self):
        rng = np.random.default_rng(52)
        h = random_hamiltonian(3, rng, kind="hermitian")
        v0 = random_unit_vector(3, rng)
        t = np.linspace(0, 2, 81)
        traj, dev = integrate_nonlinear(h, v0, t)
        assert dev <= 20 * (t[1] - t[0]) ** 4
        assert np.abs(np.linalg.norm(traj.psi_hat, axis=1) - 1).max() < 1e-9

    def test_fermionic_accuracy_at_centigrid(self, dm_unit):
        t = np.linspace(0, 5, 501)  # dt = 0.01
        _, dev = integrate_nonlinear(dm_unit.h, dm_unit.algebra.basis_state("011"), t)
        assert dev <= 1e-7

    def test_fourth_order_richardson_ratio(self, dm_unit):
        v0 = dm_unit.algebra.basis_state("011")
        _, dev_coarse = integrate_nonlinear(dm_unit.h, v0, np.linspace(0, 5, 101))
        _, dev_fine = integrate_nonlinear(dm_unit.h, v0, np.linspace(0, 5, 201))
        assert 12 < dev_coarse / dev_fine < 20

    def test_substeps_refine_without_changing_grid(self, dm_unit):
        v0 = dm_unit.algebra.basis_state("011")
        t = np.linspace(0, 5, 101)
        _, dev1 = integrate_nonlinear(dm_unit.h, v0, t, substeps=1)
        _, dev4 = integrate_nonlinear(dm_unit.h, v0, t, substeps=4)
        assert dev4 < dev1 / 100

    def test_instability_raises_with_suggestion(self):
        h = 6.0 * np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InstabilityError, match="substeps"):
            integrate_nonlinear(h, np.array([1.0, 0.0]), np.linspace(0, 5, 6))

    @pytest.mark.parametrize("start", [0.5, -2.0, 3.0])
    def test_psi_hat0_is_the_state_at_the_first_grid_point(self, start):
        # the reference once took psi_hat0 as the state at t = 0: from 0.5 it deviated by 0.346
        rng = np.random.default_rng(1)
        h, v0 = random_hamiltonian(4, rng, "real_spectrum"), random_unit_vector(4, rng)
        t = np.linspace(start, start + 1.0, 41)
        traj, dev = integrate_nonlinear(h, v0, t, substeps=4)
        from_zero, _ = integrate_nonlinear(h, v0, t - start, substeps=4)
        assert dev <= 1e-10 and np.array_equal(traj.t_grid, t)
        assert np.abs(traj.psi_hat - from_zero.psi_hat).max() <= 1e-12

    def test_requires_uniform_grid(self, dm_unit):
        with pytest.raises(ConfigError, match="uniform"):
            integrate_nonlinear(
                dm_unit.h, dm_unit.algebra.basis_state("011"), [0.0, 0.1, 0.3]
            )

    def test_overflowing_run_raises_instability_without_warning(self):
        h = 1e3 * np.array([[0.0, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match="substeps"):
                integrate_nonlinear(h, np.array([1.0, 0.0]), np.linspace(0, 5, 60))

    def test_numpy_integer_substeps_is_an_int(self, dm_unit):
        v0 = dm_unit.algebra.basis_state("011")
        t = np.linspace(0, 1, 11)
        traj, dev = integrate_nonlinear(dm_unit.h, v0, t, np.int64(3))
        same, dev_same = integrate_nonlinear(dm_unit.h, v0, t, 3)
        assert np.array_equal(traj.psi, same.psi) and dev == dev_same

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 16),
        kind=st.sampled_from(["hermitian", "real_spectrum", "complex_spectrum"]),
        stretch=st.floats(1.0, 10.0),
        scale=st.floats(0.3, 4.0),
        t_end=st.floats(0.1, 10.0),
        points=st.integers(2, 40),  # coarse grids: about a quarter of the draws diverge
        substeps=st.integers(1, 4),
    )
    def test_matches_stage_by_stage_oracle(
        self, seed, n, kind, stretch, scale, t_end, points, substeps
    ):
        # the oracle's verdict is the integrator's rule on the oracle's own
        # states against per-point scipy exponentials: deviation not <= 0.1 raises
        rng = np.random.default_rng(seed)
        h = random_hamiltonian(n, rng, kind=kind, scale=scale, basis_stretch=stretch)
        v0 = random_unit_vector(n, rng)
        t = np.linspace(0.0, t_end, points)
        expected = rk4_nonlinear(h, v0, t, substeps)
        exact = trajectory_per_point(h, v0, t)
        exact_hat = exact / np.linalg.norm(exact, axis=1)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.max(np.linalg.norm(expected - exact_hat, axis=1))
        oracle_raises = InstabilityError if not gap <= 0.1 else None
        try:
            traj, _ = integrate_nonlinear(h, v0, t, substeps)
        except InstabilityError as exc:
            assert type(exc) is oracle_raises
        else:
            assert oracle_raises is None
            assert np.max(np.linalg.norm(traj.psi - expected, axis=1)) <= 1e-12


class TestIntegratorBits:
    """The buffered substep loop leaves every bit of the allocating one."""

    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    @pytest.mark.parametrize("substeps", [1, 4])
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_states_and_deviation_equal_the_allocating_loop(self, n, substeps, kind):
        rng = np.random.default_rng(1000 * n + substeps)
        h = random_hamiltonian(n, rng, kind=kind, basis_stretch=3.0)
        v0 = random_unit_vector(n, rng)
        t = np.linspace(0.0, 4.0, 81)
        traj, deviation = integrate_nonlinear(h, v0, t, substeps)
        expected = rk4_krylov_loop(h, v0, t, substeps)
        assert np.array_equal(traj.psi, expected)
        reference = exact_trajectory(h, v0, t).psi_hat
        assert deviation == np.max(np.linalg.norm(expected - reference, axis=1))

    def test_diverging_run_still_raises_without_warning(self):
        h = 30.0 * random_hamiltonian(5, np.random.default_rng(9), kind="complex_spectrum")
        v0 = random_unit_vector(5, np.random.default_rng(10))
        t = np.linspace(0.0, 5.0, 11)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(rk4_krylov_loop(h, v0, t)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match="substeps"):
                integrate_nonlinear(h, v0, t)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=10, max_size=10))
    def test_unrolled_weights_equal_the_quadratic_form(self, upper):
        g = np.zeros((4, 4))
        g[np.triu_indices(4)] = upper
        g = np.triu(g) + np.triu(g, 1).T
        got, expected = _rk4_weights(g.tolist()), rk4_weights_quadratic_form(g.tolist())
        assert np.array_equal(got, expected, equal_nan=True)


class TestBuffersNeverAlias:
    """C-contiguous complex128 arguments reach the loops uncopied; the loops' buffers
    are their own, so no argument is written and no two results share memory."""

    def arguments(self, n=6):
        rng = np.random.default_rng(61)
        h = random_hamiltonian(n, rng, kind="complex_spectrum")
        psi0 = random_unit_vector(n, rng)
        x = random_matrix(n, rng)
        assert as_square_matrix(h) is h and as_square_matrix(x) is x
        assert np.shares_memory(as_state_vector(psi0), psi0)
        return h, psi0, x, np.linspace(0.0, 2.0, 61)

    def assert_fresh(self, inputs, kept, first, second):
        for a, copy in zip(inputs, kept):
            assert np.array_equal(a, copy)
        for a in first:
            assert not any(np.shares_memory(a, b) for b in (*second, *inputs))

    def test_gamma_series(self):
        h, _, x, _ = self.arguments()
        ctx = gamma_context(h)
        kept = [h.copy(), x.copy()]
        first, _ = nhdyn.gamma.gamma_series(ctx, x, 0.7)
        second, _ = nhdyn.gamma.gamma_series(ctx, x, 0.7)
        assert np.array_equal(first, second)
        self.assert_fresh([h, x], kept, [first], [second])

    def test_integrate_nonlinear(self):
        h, psi0, _, t = self.arguments()
        kept = [h.copy(), psi0.copy(), t.copy()]
        first, _ = integrate_nonlinear(h, psi0, t, 2)
        second, _ = integrate_nonlinear(h, psi0, t, 2)
        assert np.array_equal(first.psi, second.psi)
        self.assert_fresh([h, psi0, t], kept, [first.psi, first.psi_hat], [second.psi])

    def test_exact_trajectory(self):
        h, psi0, _, t = self.arguments()
        kept = [h.copy(), psi0.copy(), t.copy()]
        first = exact_trajectory(h, psi0, t)
        second = exact_trajectory(h, psi0, t)
        assert np.array_equal(first.psi, second.psi)
        self.assert_fresh([h, psi0, t], kept, [first.psi, first.psi_hat], [second.psi])


class TestMeans:
    def test_identity_mean_is_one(self):
        rng = np.random.default_rng(53)
        v = random_unit_vector(5, rng)
        assert mean_value(np.eye(5), v) == pytest.approx(1.0)

    def test_fermionic_initial_occupation(self, dm_unit):
        v = dm_unit.algebra.basis_state("011")
        assert abs(mean_value(dm_unit.algebra.number_ops[0], v)) < 1e-14

    def test_projector_component(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        p = np.diag([1.0, 0.0])
        assert mean_value(p, v) == pytest.approx(0.5)

    def test_hermitian_observable_real_mean(self):
        rng = np.random.default_rng(54)
        x = random_matrix(4, rng)
        x = x + x.conj().T
        v = random_unit_vector(4, rng)
        assert abs(mean_value(x, v).imag) < 1e-12


class TestDeltaPsiHat:
    def test_hermitian_reduces_to_gamma_derivation(self):
        rng = np.random.default_rng(55)
        h = random_hamiltonian(3, rng, kind="hermitian")
        x = random_matrix(3, rng)
        v = random_unit_vector(3, rng)
        gap = delta_psi_hat(h, x, v) - delta_gamma(gamma_context(h), x)
        assert op_norm(gap) < 1e-12

    def test_two_forms_agree(self):
        rng = np.random.default_rng(56)
        h = random_hamiltonian(4, rng, kind="complex_spectrum")
        x = random_matrix(4, rng)
        v = random_unit_vector(4, rng)
        direct = delta_psi_hat(h, x, v)
        hnl = h_nl(h, v)
        assert op_norm(direct - 1j * (hnl.conj().T @ x - x @ hnl)) < 1e-12

    def test_identity_has_zero_mean_but_nonzero_operator(self):
        rng = np.random.default_rng(57)
        h = random_hamiltonian(3, rng, kind="real_spectrum")
        v = random_unit_vector(3, rng)
        d = delta_psi_hat(h, np.eye(3), v)
        assert op_norm(d) > 1e-3
        assert abs(np.vdot(v, d @ v)) < 1e-13

    def test_norm_bound(self):
        rng = np.random.default_rng(58)
        h = random_hamiltonian(4, rng, kind="complex_spectrum")
        bound = 4 * op_norm(h)
        for _ in range(10):
            x = random_matrix(4, rng)
            v = random_unit_vector(4, rng)
            assert op_norm(delta_psi_hat(h, x, v)) <= bound * op_norm(x) * (1 + 1e-12)

    def test_fermionic_number_matches_assembled_expression(self, dm_unit, phi011_trajectory):
        alg = dm_unit.algebra
        b1, b2, b3 = alg.lowering
        eye = np.eye(8, dtype=complex)
        closed_dg = 1j * (b2.conj().T @ b1 - b1.conj().T @ b2) @ (eye + alg.number_ops[2])
        closed_dg += 1j * (b3.conj().T @ b1 - b1.conj().T @ b3) @ (eye + alg.number_ops[1])
        n_total = dm_unit.number_total
        for j in (0, 20, 50, 100):
            v = phi011_trajectory.psi_hat[j]
            t = phi011_trajectory.t_grid[j]
            scalar = -2j * t * 2.0 / (1 + 2 * t**2)  # lam = mu = 1
            expected = closed_dg - 1j * n_total * scalar
            assert np.abs(delta_psi_hat(dm_unit.h, n_total, v) - expected).max() < 1e-12

    def test_adjoint_stability(self):
        rng = np.random.default_rng(59)
        h = random_hamiltonian(4, rng, kind="real_spectrum")
        v = random_unit_vector(4, rng)
        for _ in range(5):
            a = random_matrix(4, rng)
            lhs = delta_psi_hat(h, a, v).conj().T
            rhs = delta_psi_hat(h, a.conj().T, v)
            assert np.abs(lhs - rhs).max() < 1e-13

    def test_module_identities(self):
        rng = np.random.default_rng(60)
        h = random_hamiltonian(4, rng, kind="real_spectrum")
        hd = h.conj().T
        v = random_unit_vector(4, rng)
        for _ in range(5):
            a = random_matrix(4, rng)
            left = delta_psi_hat(h, hd @ a, v) - hd @ delta_psi_hat(h, a, v)
            right = delta_psi_hat(h, a @ h, v) - delta_psi_hat(h, a, v) @ h
            assert np.abs(left).max() < 1e-12
            assert np.abs(right).max() < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(61)
        h = random_hamiltonian(3, rng, kind="complex_spectrum")
        v = random_unit_vector(3, rng)
        a, b = random_matrix(3, rng), random_matrix(3, rng)
        alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
        lhs = delta_psi_hat(h, alpha * a + beta * b, v)
        rhs = alpha * delta_psi_hat(h, a, v) + beta * delta_psi_hat(h, b, v)
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_residuals_propagate_through_the_module_actions(self):
        # if sup_t |delta(X)| = eps, then H^†X, XH, X^†, X^†H and H^†X^†
        # all have residuals within (2|H| + 1) eps
        rng = np.random.default_rng(90)
        h = random_hamiltonian(4, rng, kind="real_spectrum")
        hd = h.conj().T
        traj = exact_trajectory(h, random_unit_vector(4, rng), np.linspace(0, 2, 21))
        c = 2 * op_norm(h) + 1

        def residual(a):
            return max(op_norm(delta_psi_hat(h, a, v)) for v in traj.psi_hat)

        for _ in range(5):
            x = random_matrix(4, rng)
            eps = residual(x)
            derived = [hd @ x, x @ h, x.conj().T, x.conj().T @ h, hd @ x.conj().T]
            assert all(residual(a) <= c * eps * (1 + 1e-12) for a in derived)

    def test_frozen_series_partial_sums_stay_within_tail_bound(self):
        # with the derivation frozen at one grid point, partial sums form a
        # Cauchy sequence dominated by |X| sum_{k>K} (4|H|t)^k / k!
        rng = np.random.default_rng(62)
        h = random_hamiltonian(3, rng, kind="real_spectrum", scale=0.5)
        v = random_unit_vector(3, rng)
        x = random_matrix(3, rng)
        t = 0.8
        rate = 4 * op_norm(h) * t
        x_scale = op_norm(x)

        partial = x.astype(complex)
        term = x.astype(complex)
        previous = []
        tail_terms = [x_scale]
        for k in range(1, 60):
            term = (t / k) * delta_psi_hat(h, term, v)
            partial = partial + term
            previous.append(partial.copy())
            tail_terms.append(x_scale * rate**k / math.factorial(k))
        total = previous[-1]
        for k, p in enumerate(previous[:-1], start=1):
            tail_bound = sum(tail_terms[k + 1 :]) / (1 - min(rate / (k + 2), 0.99))
            assert op_norm(total - p) <= tail_bound + 1e-12


class TestMeanDerivative:
    def test_identity_is_conserved(self):
        rng = np.random.default_rng(63)
        h = random_hamiltonian(4, rng, kind="complex_spectrum")
        v = random_unit_vector(4, rng)
        assert abs(mean_derivative(h, np.eye(4), v)) < 1e-13

    def test_total_number_on_both_trajectories(self, dm_unit):
        n_total = dm_unit.number_total
        for label in ("011", "010"):
            traj = exact_trajectory(
                dm_unit.h, dm_unit.algebra.basis_state(label), np.linspace(0, 5, 51)
            )
            for v in traj.psi_hat[::10]:
                assert abs(mean_derivative(dm_unit.h, n_total, v)) < 1e-10

    def test_hermitian_energy_conservation(self):
        rng = np.random.default_rng(64)
        h = random_hamiltonian(3, rng, kind="hermitian")
        v = random_unit_vector(3, rng)
        assert abs(mean_derivative(h, h, v)) < 1e-13

    def test_matches_finite_difference_of_mean_value(self, dm_unit):
        n1 = dm_unit.algebra.number_ops[0]
        v0 = dm_unit.algebra.basis_state("011")
        t0, dt = 0.8, 1e-4
        traj = exact_trajectory(dm_unit.h, v0, [t0 - dt, t0, t0 + dt])
        fd = (
            mean_value(n1, traj.psi_hat[2]) - mean_value(n1, traj.psi_hat[0])
        ) / (2 * dt)
        analytic = mean_derivative(dm_unit.h, n1, traj.psi_hat[1])
        assert abs(fd - analytic) < 1e-6  # O(dt^2) with a modest constant


class TestClassify:
    def test_identity_for_non_hermitian(self):
        rng = np.random.default_rng(65)
        h = random_hamiltonian(4, rng, kind="real_spectrum")
        traj = exact_trajectory(h, random_unit_vector(4, rng), np.linspace(0, 3, 61))
        report = classify(h, np.eye(4), traj, name="identity")
        assert report.in_c_psi_hat_weak
        assert not report.in_c_psi_hat
        assert not report.in_c_gamma
        assert report.c_psi_hat_residual > 1e-3

    def test_total_number_is_weak_integral(self, dm_unit, phi011_trajectory):
        report = classify(dm_unit.h, dm_unit.number_total, phi011_trajectory, name="N")
        assert report.in_c_psi_hat_weak
        assert not report.in_c_psi_hat

    def test_gamma_symmetry_with_growing_norm_is_not_weak_integral(self):
        # certified symmetry with nonzero initial mean: its mean follows
        # x(0)/(1+t^2) on this growing-norm trajectory, hence moves
        x = np.array([[0.0, 0.0], [0.0, 1.0]])
        traj = exact_trajectory(NILPOTENT, np.array([0.0, 1.0]), np.linspace(0, 3, 61))
        report = classify(NILPOTENT, x, traj)
        assert report.in_c_gamma
        assert not report.in_c_psi_hat_weak
        assert report.c_psi_hat_weak_residual > 1e-2

    def test_strong_implies_weak_on_reports(self, dm_unit, phi011_trajectory):
        rng = np.random.default_rng(66)
        observables = [np.eye(8), dm_unit.number_total, random_matrix(8, rng)]
        for x in observables:
            report = classify(dm_unit.h, x, phi011_trajectory)
            assert (not report.in_c_psi_hat) or report.in_c_psi_hat_weak

    def test_ensemble_mode_keeps_worst_residuals(self):
        rng = np.random.default_rng(67)
        h = random_hamiltonian(3, rng, kind="real_spectrum")
        single = classify(
            h,
            np.eye(3),
            exact_trajectory(h, random_unit_vector(3, rng), np.linspace(0, 2, 41)),
        )
        ensemble = classify_ensemble(
            h, np.eye(3), np.linspace(0, 2, 41), 8, np.random.default_rng(5)
        )
        assert ensemble.c_psi_hat_residual >= single.c_psi_hat_residual * 0.5
        assert ensemble.in_c_psi_hat_weak

    @pytest.mark.parametrize("n_states", [1, 5])
    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    def test_ensemble_equals_per_state_worst_case(self, kind, n, n_states):
        rng = np.random.default_rng(69)
        h = random_hamiltonian(n, rng, kind=kind)
        x = random_matrix(n, rng)
        t = np.linspace(0, 2, 21)

        def per_state(tol):
            draws = np.random.default_rng(6)  # the ensemble's own draw order
            reports = []
            for _ in range(n_states):
                v0 = draws.normal(size=n) + 1j * draws.normal(size=n)
                traj = exact_trajectory(h, v0 / np.linalg.norm(v0), t)
                reports.append(classify(h, x, traj, tol, "x"))
            return reports

        # a threshold between the states' weak residuals mixes the verdicts
        tol = float(np.median([r.c_psi_hat_weak_residual for r in per_state(1.0)]))
        reports = per_state(tol)
        assert len({r.in_c_psi_hat_weak for r in reports}) == min(n_states, 2)

        ensemble = classify_ensemble(h, x, t, n_states, np.random.default_rng(6), tol, "x")
        for field in ("c_gamma_residual", "c_psi_hat_residual", "c_psi_hat_weak_residual"):
            worst, got = max(getattr(r, field) for r in reports), getattr(ensemble, field)
            if kind == "hermitian" and field == "c_psi_hat_residual":
                # a_t is roundoff for Hermitian H, so |D + a X| is flat to roundoff and
                # the last bit picks the extreme; got is some state's own value
                assert worst * (1 - 1e-15) <= got <= worst
            else:
                assert got == worst
        for flag in ("in_c_gamma", "in_c_psi_hat", "in_c_psi_hat_weak"):
            assert getattr(ensemble, flag) == all(getattr(r, flag) for r in reports)
        assert ensemble.observable_name == "x"
        assert ensemble.tol_class == tol

    def test_ensemble_takes_three_svds_for_all_its_states(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(1)
            return op_norm(a)

        monkeypatch.setattr(nhdyn.flow, "op_norm", counting)
        h = random_hamiltonian(4, np.random.default_rng(71), kind="complex_spectrum")
        classify_ensemble(h, np.eye(4), np.linspace(0, 2, 21), 5, np.random.default_rng(7))
        assert len(calls) == 3

    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    def test_residuals_match_the_per_point_oracle(self, kind):
        # the two extreme scalars pick the same maximum as one SVD per point,
        # up to which grid point roundoff makes the arg-max
        rng = np.random.default_rng(70)
        h = random_hamiltonian(6, rng, kind=kind, basis_stretch=3.0)
        traj = exact_trajectory(h, random_unit_vector(6, rng), np.linspace(0, 4, 41))
        for x in (np.eye(6), h, random_matrix(6, rng)):
            strong, weak = classify_per_point(h, x, traj.psi_hat)
            report = classify(h, x, traj)
            assert report.c_gamma_residual == op_norm(delta_gamma(gamma_context(h), x))
            assert report.c_psi_hat_residual == pytest.approx(strong, rel=1e-13, abs=0)
            assert abs(report.c_psi_hat_weak_residual - weak) <= 1e-13

    def test_trajectory_of_another_dimension_is_rejected(self, phi011_trajectory):
        with pytest.raises(DimensionError):
            classify(NILPOTENT, np.eye(2), phi011_trajectory)

    def test_unnormalized_trajectory_states_are_rejected(
        self, dm_unit, phi011_trajectory
    ):
        scaled = dataclasses.replace(
            phi011_trajectory, psi_hat=phi011_trajectory.psi_hat * 1.001
        )
        with pytest.raises(ConfigError, match="normalized"):
            classify(dm_unit.h, dm_unit.number_total, scaled)


class TestDecayLaw:
    def test_hermitian_symmetry_mean_is_constant(self):
        rng = np.random.default_rng(68)
        h = random_hamiltonian(3, rng, kind="hermitian")
        traj = exact_trajectory(h, random_unit_vector(3, rng), np.linspace(0, 4, 81))
        err = gamma_symmetry_decay_check(h, np.eye(3), traj)
        assert err < 1e-12

    def test_fermionic_symmetries_follow_inverse_norm(self, dm_unit, phi011_trajectory):
        basis = gamma_symmetry_basis(gamma_context(dm_unit.h))
        for x in basis.generators[::8]:
            assert gamma_symmetry_decay_check(dm_unit.h, x, phi011_trajectory) <= 1e-9

    def test_non_symmetry_is_rejected(self, dm_unit, phi011_trajectory):
        with pytest.raises(CertificationError):
            gamma_symmetry_decay_check(
                dm_unit.h, dm_unit.algebra.number_ops[0], phi011_trajectory
            )

    def test_an_rk4_trajectory_has_no_norm_history_to_check(self):
        # S_psi is an exact gamma-symmetry; the RK4 trajectory's norm_sq is its drift,
        # 1 +- 3e-11, not |psi(t)|^2 (0.81 to 1.01), and the check once read it as such: 0.223
        h = random_hamiltonian(4, np.random.default_rng(3), "real_spectrum")
        x, psi0, t = build_biorthogonal(h).s_psi, np.full(4, 0.5), np.linspace(0.0, 2.0, 41)
        exact = exact_trajectory(h, psi0, t)
        assert exact.anchor_route == "expm"
        assert gamma_symmetry_decay_check(h, x, exact) <= 1e-13
        rk4, deviation = integrate_nonlinear(h, psi0, t, substeps=4)
        assert rk4.anchor_route == "rk4" and deviation <= 1e-9
        with pytest.raises(ConfigError, match="^trajectory of integrate_nonlinear has no"):
            gamma_symmetry_decay_check(h, x, rk4)


    def test_operands_of_another_dimension_are_rejected(self, dm_unit, phi011_trajectory):
        with pytest.raises(DimensionError):
            gamma_symmetry_decay_check(NILPOTENT, np.eye(2), phi011_trajectory)
        with pytest.raises(DimensionError):
            gamma_symmetry_decay_check(dm_unit.h, np.eye(2), phi011_trajectory)


class TestNecessaryCondition:
    def test_identity_always_satisfies_it(self):
        rng = np.random.default_rng(69)
        h = random_hamiltonian(4, rng, kind="real_spectrum")
        traj = exact_trajectory(h, random_unit_vector(4, rng), np.linspace(0, 3, 61))
        result = necessary_condition_residual(h, np.eye(4), traj, 1.0)
        assert result.premise_ok
        assert result.max_residual <= 1e-10

    def test_total_number_with_occupation_two(self, dm_unit, phi011_trajectory):
        result = necessary_condition_residual(
            dm_unit.h, dm_unit.number_total, phi011_trajectory, 2.0
        )
        assert result.premise_ok
        assert result.max_residual <= 1e-9

    def test_total_number_with_occupation_one(self, dm_unit):
        traj = exact_trajectory(
            dm_unit.h, dm_unit.algebra.basis_state("010"), np.linspace(0, 5, 101)
        )
        result = necessary_condition_residual(dm_unit.h, dm_unit.number_total, traj, 1.0)
        assert result.premise_ok
        assert result.max_residual <= 1e-9

    def test_violated_premise_is_reported_not_raised(self, dm_unit, phi011_trajectory):
        result = necessary_condition_residual(
            dm_unit.h, dm_unit.algebra.number_ops[0], phi011_trajectory, 0.0
        )
        assert not result.premise_ok
        assert result.premise_residual > 1e-3

    def test_premise_equals_the_classify_weak_residual(self, dm_unit, phi011_trajectory):
        rng = np.random.default_rng(69)
        h = random_hamiltonian(4, rng, kind="real_spectrum")
        traj = exact_trajectory(h, random_unit_vector(4, rng), np.linspace(0, 3, 61))
        traj010 = exact_trajectory(
            dm_unit.h, dm_unit.algebra.basis_state("010"), np.linspace(0, 5, 101)
        )
        # the four cases above
        cases = [
            (h, np.eye(4), traj, 1.0),
            (dm_unit.h, dm_unit.number_total, phi011_trajectory, 2.0),
            (dm_unit.h, dm_unit.number_total, traj010, 1.0),
            (dm_unit.h, dm_unit.algebra.number_ops[0], phi011_trajectory, 0.0),
        ]
        for h, x, traj, x0 in cases:
            result = necessary_condition_residual(h, x, traj, x0)
            report = classify(h, x, traj)
            assert abs(result.premise_residual - report.c_psi_hat_weak_residual) <= 1e-13
            assert result.premise_ok == report.in_c_psi_hat_weak

    def test_trajectory_of_another_dimension_is_rejected(self, phi011_trajectory):
        with pytest.raises(DimensionError):
            necessary_condition_residual(NILPOTENT, np.eye(2), phi011_trajectory, 1.0)

    def test_unnormalized_trajectory_states_are_rejected(
        self, dm_unit, phi011_trajectory
    ):
        scaled = dataclasses.replace(
            phi011_trajectory, psi_hat=phi011_trajectory.psi_hat * 1.001
        )
        with pytest.raises(ConfigError, match="normalized"):
            necessary_condition_residual(dm_unit.h, dm_unit.number_total, scaled, 2.0)


class TestScalar:
    def test_scalar_is_purely_imaginary(self):
        rng = np.random.default_rng(70)
        h = random_hamiltonian(5, rng, kind="complex_spectrum")
        v = random_unit_vector(5, rng)
        assert abs(nonhermiticity_scalar(h, v).real) < 1e-14


class TestSharedPropagators:
    """The routes of one study on one H and one grid share their exponentials."""

    def run_study(self, h, psi0, x, t, between):
        ctx = gamma_context(h)
        steps = (
            lambda: integrate_nonlinear(h, psi0, t, substeps=4),
            lambda: classify_ensemble(h, np.eye(len(h)), t, 3, np.random.default_rng(5)),
            lambda: gamma_t(ctx, x, 0.5),
            lambda: gamma_t(ctx, x, 2.0),
            lambda: identity_norm_evolution(ctx, psi0, t),
        )
        out = []
        for step in steps:
            between()
            out.append(step())
        (traj, deviation), ensemble, *arrays = out
        return [traj.psi_hat.tobytes(), deviation, ensemble, *(a.tobytes() for a in arrays)]

    def test_api_study_takes_twelve_exponentials(self, monkeypatch):
        rng = np.random.default_rng(41)
        h = random_hamiltonian(16, rng, kind="complex_spectrum")
        psi0, x = random_unit_vector(16, rng), random_matrix(16, rng)
        t = np.linspace(0.0, 10.0, 201)
        calls = []
        for module in (nhdyn.flow, nhdyn.gamma):
            original = module.expm
            monkeypatch.setattr(module, "expm", lambda a, f=original: calls.append(1) or f(a))
        shared = self.run_study(h, psi0, x, t, lambda: None)
        # five trajectories of 10 exponentials each (the step and 9 anchors) and two
        # gamma_t times: 52 calls, of which the memo evaluates the 12 distinct ones
        assert len(calls) == 5 * 10 + 2
        assert _expm_exact.cache_info().misses == 12
        fresh = self.run_study(h, psi0, x, t, _expm_exact.cache_clear)
        assert shared == fresh

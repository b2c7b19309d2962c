import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from nhdyn import (
    ConfigError,
    DimensionError,
    DmModel,
    NumericRangeError,
    build_car,
    build_dm_model,
    classify,
    closed_form_occupations,
    closed_form_scalar,
    delta_gamma_number_check,
    exact_trajectory,
    expm,
    mean_value,
    occupations,
    simulate_occupations,
)


def scalar_mismatch(model, label, t):
    run = simulate_occupations(model, label, t)
    return np.abs(run.scalar - closed_form_scalar(model, label, run.t_grid)).max()


@pytest.fixture(scope="module")
def car3():
    return build_car(3)


class TestCarConstruction:
    def test_single_mode_matrices(self):
        alg = build_car(1)
        b = alg.lowering[0]
        assert np.array_equal(b, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.abs(b @ b.conj().T + b.conj().T @ b - np.eye(2)).max() == 0

    def test_all_anticommutators(self, car3):
        eye = np.eye(8)
        for j, k in itertools.product(range(3), range(3)):
            bj, bk = car3.lowering[j], car3.lowering[k]
            anti = bk @ bj.conj().T + bj.conj().T @ bk
            target = eye if j == k else 0 * eye
            assert np.abs(anti - target).max() <= 1e-14
            assert np.abs(bj @ bk + bk @ bj).max() <= 1e-14

    def test_squares_vanish(self, car3):
        for b in car3.lowering:
            assert np.abs(b @ b).max() == 0

    def test_vacuum_is_annihilated(self, car3):
        vac = car3.basis_state("000")
        assert vac[0] == 1.0
        for b in car3.lowering:
            assert np.abs(b @ vac).max() == 0

    def test_number_operators_idempotent(self, car3):
        for n in car3.number_ops:
            assert np.abs(n @ n - n).max() == 0

    def test_basis_built_by_ascending_creation(self, car3):
        b1d, b2d, b3d = (car3.raising(j) for j in (1, 2, 3))
        vac = car3.basis_state("000")
        built = {
            (1, 1, 0): b1d @ (b2d @ vac),
            (0, 1, 1): b2d @ (b3d @ vac),
            (1, 1, 1): b1d @ (b2d @ (b3d @ vac)),
        }
        for occ, vec in built.items():
            expected = car3.basis_state(occ)
            assert np.abs(vec - expected).max() <= 1e-14

    def test_label_to_column_index(self, car3):
        for occ, idx in car3.basis_labels.items():
            assert idx == 4 * occ[0] + 2 * occ[1] + occ[2]

    def test_occupation_bookkeeping(self, car3):
        v = car3.basis_state("110")
        values = [mean_value(n, v).real for n in car3.number_ops]
        assert values == pytest.approx([1.0, 1.0, 0.0])


class TestModel:
    def test_hamiltonian_assembly(self, car3):
        model = build_dm_model(2.0, 0.5)
        b1, b2, b3 = car3.lowering
        expected = b1.conj().T @ (2.0 * b2 + 0.5 * b3)
        assert np.abs(model.h - expected).max() == 0

    def test_nilpotency(self):
        model = build_dm_model(1.3, 0.7)
        assert np.abs(model.h @ model.h).max() <= 1e-14

    def test_propagator_is_linear_in_time(self):
        model = build_dm_model(1.0, 2.0)
        for t in (0.1, 1.0, 7.5):
            direct = expm(-1j * model.h * t)
            assert np.abs(direct - (np.eye(8) - 1j * model.h * t)).max() <= 1e-14

    def test_couplings_validated(self):
        with pytest.raises(ConfigError):
            build_dm_model(0.0, 1.0)
        with pytest.raises(ConfigError):
            build_dm_model(1.0, -2.0)
        with pytest.raises(ConfigError):
            build_dm_model(0.0, 0.0)
        # zero couplings, built directly: nothing moves
        zero = DmModel(build_car(3), 0.0, 0.0, np.zeros((8, 8), complex))
        run = simulate_occupations(zero, "011", [0.0, 1.0])
        assert np.array_equal(run.total, [2.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0, True, "1"])
    @pytest.mark.parametrize("which", ["lam", "mu"])
    def test_couplings_must_be_finite_positive_reals(self, which, bad):
        # NaN and inf couplings once built a non-finite H; True was taken as 1
        couplings = {"lam": 1.0, "mu": 1.0, which: bad}
        with pytest.raises(ConfigError, match=f"^{which} must be a finite positive number"):
            build_dm_model(**couplings)

    def test_couplings_are_kept_as_floats(self):
        model = build_dm_model(2, np.float64(0.5))
        assert (type(model.lam), type(model.mu)) == (float, float)
        assert np.array_equal(model.h, build_dm_model(2.0, 0.5).h)

    def test_initial_states_are_not_eigenvectors(self):
        for lam, mu in ((0.5, 0.5), (1.0, 1.0), (3.0, 2.0)):
            model = build_dm_model(lam, mu)
            for label in ("011", "010"):
                phi = model.algebra.basis_state(label)
                h_phi = model.h @ phi
                rayleigh = np.vdot(phi, h_phi)
                assert np.linalg.norm(h_phi - rayleigh * phi) > 0.1


class TestClosedForms:
    def test_symmetric_couplings_at_unit_time(self):
        model = build_dm_model(1.0, 1.0)
        n1, n2, n3 = closed_form_occupations(model, "011", 1.0)
        assert (n1, n2, n3) == pytest.approx((2 / 3, 2 / 3, 2 / 3))

    def test_initial_values(self):
        model = build_dm_model(2.7, 0.4)
        assert closed_form_occupations(model, "011", 0.0) == pytest.approx((0, 1, 1))
        assert closed_form_occupations(model, "010", 0.0) == pytest.approx((0, 1, 0))

    def test_single_mode_case(self):
        model = build_dm_model(1.0, 5.0)
        n1, n2, n3 = closed_form_occupations(model, "010", 1.0)
        assert (n1, n2, n3) == pytest.approx((0.5, 0.5, 0.0))

    def test_unsupported_label_raises(self):
        model = build_dm_model(1.0, 1.0)
        with pytest.raises(ConfigError, match="closed form"):
            closed_form_occupations(model, "111", 1.0)

    @pytest.mark.parametrize("label", ["011", "010"])
    def test_a_time_past_the_float_range_gives_the_limits_without_a_warning(self, label):
        # 1 + s t^2 overflows: the values as t -> inf, exact to within 1 / (1 + s t^2)
        lam, mu = 1.5, 0.5
        model = build_dm_model(lam, mu)
        s = lam**2 + mu**2 if label == "011" else lam**2
        limits = (1.0, mu**2 / s, lam**2 / s) if label == "011" else (1.0, 0.0, 0.0)
        t = np.array([-1e300, -1e200, 1e154, 1e200, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = closed_form_occupations(model, label, t)
            scalar = closed_form_scalar(model, label, t)
            one = (
                closed_form_occupations(model, label, 1e200),
                closed_form_scalar(model, label, 1e200),
            )
        for value, limit in zip(values, limits):
            assert np.array_equal(value, np.full(t.shape, limit))
        np.testing.assert_allclose(scalar, -2j / t, rtol=1e-15)
        assert one == (tuple(v[3] for v in values), scalar[3])
        # just inside the range the closed forms themselves are at the limits
        near = closed_form_occupations(model, label, 1e150)
        np.testing.assert_allclose(near, limits, rtol=1e-15, atol=1e-290)

    @pytest.mark.parametrize("label", ["011", "010"])
    def test_a_coupling_whose_square_overflows_gives_the_finite_values(self, label):
        # lam^2 = 1e320 overflows, but the values depend on x = lam t and y = mu t alone
        t = np.array([0.0, 1e-170, 1e-160, 1e-150])
        x, y = 1e160 * t, t if label == "011" else 0.0 * t
        d = 1.0 + x * x + y * y
        model = build_dm_model(1e160, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = closed_form_occupations(model, label, t)
            scalar = closed_form_scalar(model, label, t)
            far = closed_form_occupations(model, label, 1e300)
        n3 = (1 + x * x) / d if label == "011" else 0 * d
        expected = ((x * x + y * y) / d, (1 + y * y) / d, n3)
        for value, want in zip(values, expected):
            np.testing.assert_allclose(value, want, rtol=1e-15)
        assert scalar[0] == 0.0
        np.testing.assert_allclose(scalar[1:], -2j * (x * x + y * y)[1:] / (t * d)[1:], rtol=1e-15)
        assert far == ((1.0, 1e-320, 1.0) if label == "011" else (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("label", ["011", "010"])
    def test_couplings_scaled_by_a_power_of_two_give_the_same_bits(self, label):
        # couplings 2^600 larger at times 2^600 smaller: the same occupations, bit for bit,
        # and a scalar 2^600 larger
        t = np.linspace(0.0, 4.0, 9)
        big, small = build_dm_model(2.0**600, 0.7 * 2.0**600), build_dm_model(1.0, 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in zip(
                closed_form_occupations(big, label, 2.0**-600 * t),
                closed_form_occupations(small, label, t),
            ):
                assert np.array_equal(a, b)
            scalar = closed_form_scalar(big, label, 2.0**-600 * t)
        assert np.array_equal(scalar, 2.0**600 * closed_form_scalar(small, label, t))


class TestSimulation:
    def test_matches_closed_forms_pointwise(self):
        t = np.linspace(0, 10, 201)
        for lam, mu, label in ((1.0, 1.0, "011"), (2.0, 0.5, "011"), (1.5, 0.3, "010")):
            model = build_dm_model(lam, mu)
            run = simulate_occupations(model, label, t)
            ref = closed_form_occupations(model, label, t)
            assert np.abs(run.n1 - ref[0]).max() <= 1e-11
            assert np.abs(run.n2 - ref[1]).max() <= 1e-11
            assert np.abs(run.n3 - ref[2]).max() <= 1e-11

    def test_linear_propagator_oracle(self):
        # independent route: psi(t) = (1 - iHt) psi0, normalized by hand
        model = build_dm_model(1.7, 0.9)
        psi0 = model.algebra.basis_state("011")
        t = np.linspace(0, 4, 41)
        run = simulate_occupations(model, "011", t)
        for j, tj in enumerate(t):
            psi = psi0 - 1j * tj * (model.h @ psi0)
            psi = psi / np.linalg.norm(psi)
            for nj, column in zip(model.algebra.number_ops, (run.n1, run.n2, run.n3)):
                assert abs(column[j] - np.vdot(psi, nj @ psi).real) <= 1e-12

    def test_conservation_for_both_paper_states(self):
        t = np.linspace(0, 10, 201)
        model = build_dm_model(1.0, 1.0)
        run011 = simulate_occupations(model, "011", t)
        run010 = simulate_occupations(model, "010", t)
        assert np.abs(run011.total - 2.0).max() <= 1e-11
        assert np.abs(run010.total - 1.0).max() <= 1e-11
        assert np.abs(run010.n3).max() <= 1e-13

    def test_asymptotic_split_of_modes_two_and_three(self):
        model = build_dm_model(1.0, 2.0)
        run = simulate_occupations(model, "011", np.array([1e3]))
        assert abs(run.n2[0] - 0.8) <= 1e-5
        assert abs(run.n3[0] - 0.2) <= 1e-5

    def test_monotone_transfer_at_unit_couplings(self):
        model = build_dm_model(1.0, 1.0)
        run = simulate_occupations(model, "011", np.linspace(0, 10, 201))
        assert np.all(np.diff(run.n1) >= -1e-12)
        assert np.all(np.diff(run.n2) <= 1e-12)
        assert np.all(np.diff(run.n3) <= 1e-12)

    def test_arbitrary_label_is_simulable(self):
        model = build_dm_model(1.0, 1.0)
        run = simulate_occupations(model, "111", np.linspace(0, 5, 11))
        # mode 1 already filled: H annihilates phi_111, nothing moves
        assert np.abs(run.total - 3.0).max() <= 1e-12

    @pytest.mark.parametrize("label", ["011", "010", "101"])
    def test_read_out_of_a_given_trajectory_equals_simulation(self, label):
        model = build_dm_model(1.3, 0.7)
        t = np.linspace(0, 6, 61)
        states = exact_trajectory(model.h, model.algebra.basis_state(label), t)
        read = occupations(model, states)
        run = simulate_occupations(model, label, t)
        for name in ("t_grid", "n1", "n2", "n3", "total", "scalar"):
            assert np.array_equal(getattr(read, name), getattr(run, name))
        for name in ("t_grid", "psi", "psi_hat", "norm_sq"):
            assert np.array_equal(getattr(read.states, name), getattr(run.states, name))

    def test_read_out_rejects_a_trajectory_of_another_dimension(self):
        states = exact_trajectory(np.eye(4), np.eye(4)[0], [0.0, 1.0])
        with pytest.raises(DimensionError):
            occupations(build_dm_model(1.0, 1.0), states)

    def test_read_out_rejects_a_non_finite_trajectory(self):
        model = build_dm_model(1.0, 1.0)
        states = exact_trajectory(model.h, model.algebra.basis_state("011"), [0.0, 1.0])
        psi_hat = states.psi_hat.copy()
        psi_hat[1, 0] = np.nan
        with pytest.raises(NumericRangeError, match="psi_hat"):
            occupations(model, dataclasses.replace(states, psi_hat=psi_hat))


class TestDerivationIdentity:
    @pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.0, 0.5), (0.3, 2.9)])
    def test_closed_form_of_number_derivation(self, lam, mu):
        assert delta_gamma_number_check(build_dm_model(lam, mu)) <= 1e-12

    def test_zero_couplings_trivial(self):
        zero = DmModel(build_car(3), 0.0, 0.0, np.zeros((8, 8), complex))
        assert delta_gamma_number_check(zero) == 0.0


class TestScalarTerm:
    def test_symmetric_couplings_scalar_tracks_norm_growth(self):
        # at lam = mu the scalar is -4i lam^2 t / (1 + 2 lam^2 t^2): the
        # norm grows, so the scalar cannot vanish identically
        model = build_dm_model(1.0, 1.0)
        t = np.linspace(0, 5, 51)
        scalar = closed_form_scalar(model, "011", t)
        assert np.abs(scalar[1:]).min() > 0
        assert scalar_mismatch(model, "011", t) <= 1e-11

    def test_values_by_hand(self):
        model = build_dm_model(2.0, 1.0)
        # -2i t (lam^2 + mu^2) / (1 + t^2 (lam^2 + mu^2)) at t = 1: -10i/6
        assert closed_form_scalar(model, "011", 1.0) == pytest.approx(-10j / 6)
        model10 = build_dm_model(1.0, 3.0)
        # the 010 trajectory never sees mu: -2i t / (1 + t^2) at t = 1
        assert closed_form_scalar(model10, "010", 1.0) == pytest.approx(-1j)

    def test_scalar_equals_norm_log_derivative(self):
        # consistency oracle: i<psi,(H^†-H)psi> = d/dt |psi|^2, checked by
        # finite differences on the unnormalized trajectory
        model = build_dm_model(1.4, 0.6)
        t0, dt = 0.9, 1e-5
        traj = exact_trajectory(
            model.h, model.algebra.basis_state("011"), [t0 - dt, t0, t0 + dt]
        )
        fd = (traj.norm_sq[2] - traj.norm_sq[0]) / (2 * dt)
        scalar = closed_form_scalar(model, "011", t0)
        assert abs(1j * scalar * traj.norm_sq[1] - fd) < 1e-5

    @pytest.mark.parametrize("label", ["011", "010"])
    def test_simulated_scalar_matches_closed_form(self, label):
        model = build_dm_model(2.0, 0.5)
        assert scalar_mismatch(model, label, np.linspace(0, 8, 101)) <= 1e-11

    def test_unsupported_label(self):
        with pytest.raises(ConfigError):
            scalar_mismatch(build_dm_model(1.0, 1.0), "100", [0.0, 1.0])


class TestWeakIntegralCertification:
    @pytest.mark.parametrize("label,total", [("011", 2.0), ("010", 1.0)])
    def test_total_number_weak_but_not_operator_level(self, label, total):
        model = build_dm_model(1.0, 1.0)
        traj = exact_trajectory(
            model.h, model.algebra.basis_state(label), np.linspace(0, 5, 101)
        )
        report = classify(model.h, model.number_total, traj, name="N")
        assert report.in_c_psi_hat_weak
        assert not report.in_c_psi_hat
        assert report.c_psi_hat_residual > 1e-3
        first = mean_value(model.number_total, traj.psi_hat[0]).real
        assert first == pytest.approx(total)

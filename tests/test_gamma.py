import math
import warnings

import numpy as np
import pytest

from oracles import (
    gamma_series_reference,
    gamma_t_two_exponentials,
    intertwiner_kernel_brute,
    projector_onto,
    vec_by_loops,
)

import nhdyn.gamma
from nhdyn import (
    ConfigError,
    NumericRangeError,
    TruncationError,
    build_dm_model,
    delta_gamma,
    gamma_context,
    gamma_series,
    gamma_symmetry_basis,
    gamma_t,
    identity_norm_evolution,
    op_norm,
    similar_norm_preserving,
)
from nhdyn.ensembles import (
    haar_unitary,
    random_hamiltonian,
    random_matrix,
    random_unit_vector,
)
from nhdyn.gamma import DEFAULT_TOL_TRUNC

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
# (1 + iH^†)(1 - iH) for the nilpotent block, multiplied out by hand
GAMMA_ONE_NILPOTENT = np.array([[1.0, -1.0j], [1.0j, 2.0]])


@pytest.fixture
def hermitian_ctx():
    rng = np.random.default_rng(31)
    return gamma_context(random_hamiltonian(3, rng, kind="hermitian"))


class TestGammaT:
    def test_time_zero_is_identity_map(self):
        rng = np.random.default_rng(32)
        ctx = gamma_context(random_matrix(4, rng))
        x = random_matrix(4, rng)
        assert np.abs(gamma_t(ctx, x, 0.0) - x).max() < 1e-15

    def test_hermitian_fixes_identity(self, hermitian_ctx):
        for t in (0.5, 1.0, 2.0):
            g = gamma_t(hermitian_ctx, np.eye(3), t)
            assert np.abs(g - np.eye(3)).max() < 1e-12

    def test_nilpotent_identity_evolution_by_hand(self):
        ctx = gamma_context(NILPOTENT)
        g = gamma_t(ctx, np.eye(2), 1.0)
        assert np.abs(g - GAMMA_ONE_NILPOTENT).max() < 1e-14

    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    def test_one_exponential_matches_the_two_exponential_oracle(self, kind):
        for n in (2, 5, 16):
            rng = np.random.default_rng(100 + n)
            h = random_hamiltonian(n, rng, kind=kind)
            x = random_matrix(n, rng)
            ctx = gamma_context(h)
            for t in (0.5, 2.0):
                ref = gamma_t_two_exponentials(h, x, t)
                assert op_norm(gamma_t(ctx, x, t) - ref) <= 1e-12 * op_norm(ref)


class TestDeltaGamma:
    def test_commutant_of_hermitian_is_annihilated(self):
        ctx = gamma_context(np.diag([1.0, 1.0, 2.0]))
        x = np.zeros((3, 3), dtype=complex)
        x[:2, :2] = [[1.0, 2.0], [3.0, 4.0]]  # block commuting with H
        assert np.abs(delta_gamma(ctx, x)).max() < 1e-15

    def test_identity_yields_antihermitian_defect(self):
        ctx = gamma_context(NILPOTENT)
        expected = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        assert np.abs(delta_gamma(ctx, np.eye(2)) - expected).max() < 1e-15

    def test_matches_finite_difference_of_gamma_t(self):
        rng = np.random.default_rng(33)
        ctx = gamma_context(random_matrix(3, rng))
        x = random_matrix(3, rng)
        d = delta_gamma(ctx, x)
        for h in (1e-4, 5e-5):
            fd = (gamma_t(ctx, x, h) - gamma_t(ctx, x, -h)) / (2 * h)
            assert op_norm(fd - d) < 10 * h**2 * np.exp(2 * ctx.h_norm)

    def test_adjoint_stability(self):
        rng = np.random.default_rng(34)
        ctx = gamma_context(random_matrix(4, rng))
        x = random_matrix(4, rng)
        lhs = delta_gamma(ctx, x.conj().T)
        rhs = delta_gamma(ctx, x).conj().T
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_norm_continuity_constant(self):
        rng = np.random.default_rng(35)
        ctx = gamma_context(random_matrix(4, rng))
        for _ in range(10):
            x, y = random_matrix(4, rng), random_matrix(4, rng)
            gap = op_norm(delta_gamma(ctx, x) - delta_gamma(ctx, y))
            assert gap <= 2 * ctx.h_norm * op_norm(x - y) * (1 + 1e-12)


class TestGammaSeries:
    def test_time_zero_single_term(self):
        ctx = gamma_context(NILPOTENT)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        total, terms = gamma_series(ctx, x, 0.0, 1e-12)
        assert terms == 1
        assert np.array_equal(total, x.astype(complex))

    def test_nilpotent_matches_closed_form(self):
        ctx = gamma_context(NILPOTENT)
        total, _ = gamma_series(ctx, np.eye(2), 1.0, 1e-12)
        assert np.abs(total - GAMMA_ONE_NILPOTENT).max() < 1e-12

    def test_matches_exponential_route(self, hermitian_ctx):
        rng = np.random.default_rng(36)
        x = random_matrix(3, rng)
        total, _ = gamma_series(hermitian_ctx, x, 0.7, 1e-12)
        assert op_norm(total - gamma_t(hermitian_ctx, x, 0.7)) < 1e-11

    def test_non_hermitian_agreement_within_certified_tolerance(self):
        rng = np.random.default_rng(37)
        ctx = gamma_context(random_matrix(4, rng))
        x = random_matrix(4, rng)
        for tol in (1e-6, 1e-10):
            total, _ = gamma_series(ctx, x, 1.3, tol)
            assert op_norm(total - gamma_t(ctx, x, 1.3)) < tol + 1e-11

    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    def test_traceless_real_part_sums_like_the_reference(self, kind):
        # with Re tr H = 0 exactly the shift is 0 and the rate that of the
        # reference; the loop, stopped by its certificate, must reproduce the
        # reference loop cut at the same count bit for bit
        for n in (2, 5, 9, 16):
            rng = np.random.default_rng(200 + n)
            h = random_hamiltonian(n, rng, kind=kind)
            h -= np.diag(h.diagonal().real)
            x = random_matrix(n, rng)
            ctx = gamma_context(h)
            for t in (0.5, 2.0):
                total, terms = gamma_series(ctx, x, t)
                full, ref_terms = gamma_series_reference(h, x, t)
                cut, _ = gamma_series_reference(h, x, t, terms=terms)
                assert terms <= ref_terms
                assert np.array_equal(total, cut)
                assert op_norm(total - full) <= DEFAULT_TOL_TRUNC

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0, -5.0])
    def test_stop_holds_where_the_growth_bound_is_tight(self, tol, t):
        # delta(E_11) = 2a E_11 for H = diag(ia, -ia): every term grows at the
        # full rate r = 2a|t| = delta_bound |t|, with one sign for t > 0, so the
        # tail after a stop is as large as its certificate allows. X is scaled
        # to put term r, the first with q = r / (k + 1) < 1, just below tol.
        # The sum is exp(2at) X.
        a, r = 0.5, round(abs(t))
        ctx = gamma_context(np.diag([1j * a, -1j * a]))
        scale = 0.9 * tol * math.factorial(r) / r**r
        x = np.array([[scale, 0.0], [0.0, 0.0]])
        total, terms = gamma_series(ctx, x, t, tol)
        roundoff = 64 * np.finfo(float).eps * scale * np.exp(r)
        assert op_norm(total - np.exp(2 * a * t) * x) <= tol + roundoff
        cut, _ = gamma_series_reference(ctx.h, x, t, terms=terms)
        assert np.array_equal(total, cut)

    def test_ratio_of_exactly_one_waits_for_the_next_term(self):
        # rate delta_bound |t| = 5 exactly, so q = rate / (k + 1) is 1 at k = 4
        ctx = gamma_context(np.diag([0.5, -0.5]))
        assert ctx.delta_bound * 5.0 == 5.0
        x = np.array([[0.0, 1e-7], [0.0, 0.0]])
        with np.errstate(divide="raise", invalid="raise"):
            total, _ = gamma_series(ctx, x, 5.0, 1e-6)
        assert op_norm(total - np.exp(5j) * x) <= 1e-6

    @pytest.mark.parametrize("h", [NILPOTENT] + [
        build_dm_model(lam, mu).h for lam, mu in ((1.0, 1.0), (0.5, 2.0), (2.7, 0.4))
    ])
    def test_square_zero_stops_after_three_terms(self, h):
        # H^2 = 0 makes delta^3 = 0 exactly; the reference's a-priori count is far larger
        ctx = gamma_context(h)
        rng = np.random.default_rng(41)
        x = random_matrix(ctx.dim, rng)
        d1 = delta_gamma(ctx, x)
        d2 = delta_gamma(ctx, d1)
        for t in (0.5, 10.0):
            total, terms = gamma_series(ctx, x, t)
            ref, ref_terms = gamma_series_reference(h, x, t)
            assert terms == 3 < ref_terms
            assert np.array_equal(total, ref)
            closed = x + t * d1 + t**2 / 2 * d2
            assert op_norm(total - closed) <= 1e-14 * op_norm(closed)

    def test_real_shift_tightens_the_rate_not_the_sum(self):
        rng = np.random.default_rng(42)
        h = random_hamiltonian(6, rng, kind="hermitian")
        x = random_matrix(6, rng)
        far = gamma_context(h + 4.0 * np.eye(6))  # same derivation, |H| about 5x
        assert far.delta_bound < 2 * far.h_norm / 4
        total, terms = gamma_series(far, x, 0.5)
        ref, ref_terms = gamma_series_reference(far.h, x, 0.5)
        assert terms < ref_terms
        assert op_norm(total - ref) <= 2e-12
        assert op_norm(total - gamma_t(gamma_context(h), x, 0.5)) <= 1e-11

    def test_cached_delta_bound_leaves_no_svd(self, monkeypatch):
        # the certificate reads Frobenius norms of computed terms, not |X|_2
        rng = np.random.default_rng(43)
        ctx = gamma_context(random_matrix(6, rng))
        ctx.delta_bound
        calls = []
        original = nhdyn.gamma.op_norm
        monkeypatch.setattr(nhdyn.gamma, "op_norm", lambda a: calls.append(1) or original(a))
        for t in (0.0, 0.5, 3.0):
            gamma_series(ctx, random_matrix(6, rng), t)
        assert calls == []

    @pytest.mark.parametrize("x", [np.eye(2), np.diag([2.0, -3.0j]), np.zeros((2, 2))])
    def test_symmetry_at_a_large_rate_sums_exactly(self, x):
        # delta(X) = 0 for diagonal X, so T_1 is exactly zero and the sum is X at
        # rate 200, where a term count fixed in advance exceeds MAX_SERIES_TERMS
        ctx = gamma_context(np.diag([10.0, -10.0]))
        assert ctx.delta_bound * 10.0 == 200.0
        total, terms = gamma_series(ctx, x, 10.0)
        assert terms == 1
        assert np.array_equal(total, x)

    def test_nan_time_raises_before_any_product(self):
        class CountingMatrix(np.ndarray):
            def dot(self, other, out=None):
                products.append(1)
                return np.asarray(self).dot(other, out=out)

        products = []
        h = np.diag([1.0 + 0j, -1.0]).view(CountingMatrix)
        ctx = nhdyn.gamma.GammaContext(h)
        gamma_series(ctx, np.eye(2), 0.5)
        assert products  # one per summed term
        products.clear()
        with pytest.raises(TruncationError):
            gamma_series(ctx, np.eye(2), float("nan"))
        assert products == []

    def test_first_term_can_certify_the_sum(self):
        # |X|_F q / (1 - q) < tol_trunc already at T_0: no product is taken
        rng = np.random.default_rng(44)
        ctx = gamma_context(random_matrix(4, rng))
        x = random_matrix(4, rng)
        total, terms = gamma_series(ctx, x, 1e-16)
        assert terms == 1
        assert np.array_equal(total, x)

    def test_cap_without_a_certificate_raises_after_the_loop(self):
        # rate 300 is below the cap, but every term of exp(2t) E_11 up to the
        # cap is far above tol_trunc
        ctx = gamma_context(np.diag([1j, -1j]))
        x = np.diag([1.0, 0.0])
        with pytest.raises(TruncationError, match="needs more than 500 terms"):
            gamma_series(ctx, x, 150.0)

    def test_truncation_cap(self):
        # rate 2 |H| t = 1000 needs more than MAX_SERIES_TERMS = 500 terms
        ctx = gamma_context(50.0 * NILPOTENT)
        with pytest.raises(TruncationError):
            gamma_series(ctx, np.eye(2), 10.0, 1e-12)

    def test_rejects_bad_tolerance(self):
        ctx = gamma_context(NILPOTENT)
        with pytest.raises(ConfigError):
            gamma_series(ctx, np.eye(2), 1.0, 0.0)


class TestIdentityNormEvolution:
    def test_hermitian_norm_constant(self, hermitian_ctx):
        rng = np.random.default_rng(38)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi0 /= np.linalg.norm(psi0)
        rows = identity_norm_evolution(hermitian_ctx, psi0, np.linspace(0, 4, 41))
        assert np.abs(rows[:, 1] - 1.0).max() < 1e-11

    def test_antihermitian_diagonal_grows_exponentially(self):
        ctx = gamma_context(np.diag([1.0j, -1.0j]))
        t = np.linspace(0, 2, 21)
        rows = identity_norm_evolution(ctx, np.array([1.0, 0.0]), t)
        assert np.abs(rows[:, 1] - np.exp(2 * t)).max() < 1e-10

    def test_nilpotent_transfer_model_quadratic_growth(self):
        from nhdyn import build_dm_model

        model = build_dm_model(1.0, 1.0)
        ctx = gamma_context(model.h)
        t = np.linspace(0, 5, 51)
        rows = identity_norm_evolution(ctx, model.algebra.basis_state("011"), t)
        assert np.abs(rows[:, 1] - (1 + 2 * t**2)).max() < 1e-11

    def test_derivative_residual_is_second_order(self):
        ctx = gamma_context(np.diag([1.0j, -1.0j]) + np.array([[0, 0.5], [0, 0]]))
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        res_coarse = identity_norm_evolution(ctx, psi0, np.linspace(0, 1, 51))[:, 2]
        res_fine = identity_norm_evolution(ctx, psi0, np.linspace(0, 1, 101))[:, 2]
        ratio = res_coarse.max() / res_fine.max()
        assert 3.0 < ratio < 5.0

    def test_non_unit_state_scales_the_unit_state_rows(self):
        rng = np.random.default_rng(39)
        ctx = gamma_context(random_hamiltonian(4, rng, kind="complex_spectrum"))
        t = np.linspace(0, 3, 31)
        for scale, v in ((2.0, np.eye(4)[0]), (3.7, random_unit_vector(4, rng))):
            unit = identity_norm_evolution(ctx, v, t)
            rows = identity_norm_evolution(ctx, scale * v, t)
            assert np.array_equal(rows[:, 0], t)
            np.testing.assert_allclose(rows[:, 1], scale**2 * unit[:, 1], rtol=1e-12)
            np.testing.assert_allclose(
                rows[:, 2], scale**2 * unit[:, 2], rtol=0, atol=1e-12 * scale**2
            )

    def test_rejects_zero_vector_and_empty_grid(self):
        ctx = gamma_context(NILPOTENT)
        with pytest.raises(ConfigError):
            identity_norm_evolution(ctx, np.zeros(2), [0.0, 1.0])
        with pytest.raises(ConfigError):
            identity_norm_evolution(ctx, np.array([1.0, 0.0]), [])

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_norm_outside_the_float_range_is_a_range_error(self, c):
        # |psi0| itself is in range, its square is not: no warning, no misleading ConfigError
        ctx = gamma_context(NILPOTENT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError, match="float range"):
                identity_norm_evolution(ctx, np.array([c, c]), [0.0, 1.0])


class TestSymmetryBasis:
    def test_diagonal_hamiltonian_against_brute_force(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        basis = gamma_symmetry_basis(gamma_context(h))
        assert len(basis.generators) == 2
        lib_span = np.column_stack([vec_by_loops(g) for g in basis.generators])
        brute = intertwiner_kernel_brute(h)
        assert brute.shape[1] == 2
        # row-major vs column-major vec differ; compare projectors after
        # translating the brute kernel (row-major unknowns) to matrices
        brute_mats = [v.reshape(2, 2) for v in brute.T]
        brute_span = np.column_stack([vec_by_loops(m) for m in brute_mats])
        gap = projector_onto(lib_span) - projector_onto(brute_span)
        assert np.abs(gap).max() < 1e-12

    def test_nilpotent_kernel_matches_hand_solution(self):
        basis = gamma_symmetry_basis(gamma_context(NILPOTENT))
        assert len(basis.generators) == 2
        hand = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])]
        lib_span = np.column_stack([vec_by_loops(g) for g in basis.generators])
        hand_span = np.column_stack([vec_by_loops(m) for m in hand])
        gap = projector_onto(lib_span) - projector_onto(hand_span)
        assert np.abs(gap).max() < 1e-12
        assert basis.chain_closure_dim <= 2

    def test_generators_orthonormal_and_certified(self):
        rng = np.random.default_rng(39)
        h = random_hamiltonian(4, rng, kind="real_spectrum")
        ctx = gamma_context(h)
        basis = gamma_symmetry_basis(ctx)
        assert len(basis.generators) == 4  # distinct spectrum: dim equals N
        gram = np.array(
            [
                [np.vdot(vec_by_loops(a), vec_by_loops(b)) for b in basis.generators]
                for a in basis.generators
            ]
        )
        assert np.abs(gram - np.eye(4)).max() < 1e-12
        for g, r in zip(basis.generators, basis.residuals):
            assert r <= 1e-9 * ctx.h_norm * np.linalg.norm(g)

    def test_chain_members_are_symmetries(self):
        rng = np.random.default_rng(40)
        h = random_hamiltonian(4, rng, kind="real_spectrum")
        ctx = gamma_context(h)
        basis = gamma_symmetry_basis(ctx)
        x = basis.generators[0]
        power = np.eye(4, dtype=complex)
        for _ in range(4):
            member = x @ power
            assert np.linalg.norm(h.conj().T @ member - member @ h) <= 1e-9
            for t in (0.5, 1.0, 2.0):
                assert op_norm(gamma_t(ctx, member, t) - member) <= 1e-8
            power = power @ h

    def test_empty_kernel_is_valid(self):
        # different diagonals for H and H^†: H^† X = X H forces X = 0
        h = np.diag([1.0j, 2.0j])
        basis = gamma_symmetry_basis(gamma_context(h))
        assert basis.generators == []
        assert basis.chain_closure_dim == 0


class TestProductRule:
    def test_hermitian_gamma_is_multiplicative(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            ctx = gamma_context(random_hamiltonian(3, rng, kind="hermitian"))
            x, y = random_matrix(3, rng), random_matrix(3, rng)
            lhs = gamma_t(ctx, x @ y, 1.0)
            rhs = gamma_t(ctx, x, 1.0) @ gamma_t(ctx, y, 1.0)
            assert op_norm(lhs - rhs) < 1e-10

    def test_non_hermitian_moves_the_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            ctx = gamma_context(random_hamiltonian(3, rng, kind="real_spectrum"))
            assert op_norm(gamma_t(ctx, np.eye(3), 1.0) - np.eye(3)) > 1e-4

    def test_state_semigroup(self):
        rng = np.random.default_rng(43)
        h = random_matrix(4, rng)
        from nhdyn import expm

        for t, s in ((0.3, 0.9), (1.1, -0.4)):
            lhs = expm(-1j * h * (t + s))
            rhs = expm(-1j * h * t) @ expm(-1j * h * s)
            assert op_norm(lhs - rhs) < 1e-11


class TestSimilarNormPreserving:
    def test_unitary_conjugation_stays_hermitian(self):
        rng = np.random.default_rng(44)
        h0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        u = haar_unitary(3, rng)
        built = similar_norm_preserving(h0, u)
        assert built.commutator_residual < 1e-12
        assert np.abs(built.h - built.h.conj().T).max() < 1e-12

    def test_commuting_diagonal_factors_are_trivial(self):
        built = similar_norm_preserving(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
        assert built.commutator_residual == 0.0
        assert np.abs(built.h - np.diag([1.0, 2.0])).max() < 1e-14

    def test_commuting_construction_preserves_norms(self):
        rng = np.random.default_rng(45)
        h0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        r = haar_unitary(3, rng) @ np.diag([0.5, 2.0, 1.25])
        built = similar_norm_preserving(h0, r)
        assert built.commutator_residual < 1e-12
        from nhdyn import expm

        for t in np.linspace(0.0, 5.0, 11):
            prod = expm(1j * built.h.conj().T * t) @ expm(-1j * built.h * t)
            assert op_norm(prod - np.eye(3)) <= 1e-9

    def test_noncommuting_construction_varies_norms(self):
        h0 = np.diag([1.0, 2.0]).astype(complex)
        theta = 0.7
        q = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        r = np.diag([1.0, 2.0]) @ q
        built = similar_norm_preserving(h0, r)
        assert built.commutator_residual > 1e-3
        ctx = gamma_context(built.h)
        rows = identity_norm_evolution(ctx, np.array([1.0, 1.0]) / np.sqrt(2), np.linspace(0, 5, 51))
        assert rows[:, 1].max() - rows[:, 1].min() > 1e-3

    def test_rejects_non_hermitian_seed(self):
        with pytest.raises(ConfigError):
            similar_norm_preserving(NILPOTENT, np.eye(2))

    def test_hermitian_check_survives_overflowing_norms(self):
        # unscaled, both Frobenius norms overflow and inf > 1e-12 * inf is False
        with pytest.raises(ConfigError, match="not Hermitian"):
            similar_norm_preserving([[1e200, 1e190], [0, 2]], np.eye(2))
        built = similar_norm_preserving([[1e200, 0], [0, 2]], np.eye(2))
        assert np.array_equal(built.h, np.diag([1e200, 2.0]))

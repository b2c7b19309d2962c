import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from oracles import (
    gamma_series_reference,
    gamma_t_exact,
    gamma_t_two_exponentials,
    intertwiner_kernel_brute,
    projector_onto,
    symmetry_basis_reference,
    vec_by_loops,
)

import nhdyn.flow
import nhdyn.gamma
from nhdyn import (
    ConfigError,
    NumericRangeError,
    TruncationError,
    build_biorthogonal,
    build_dm_model,
    delta_gamma,
    eigenstate_context,
    exact_trajectory,
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
from nhdyn.gamma import DEFAULT_TOL_TRUNC, EPS
from nhdyn.linalg import EIG_COND_MAX, eig_general, mean_values

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

    def test_a_conjugation_past_the_float_range_raises(self):
        # H = diag(0, 50i): U = diag(1, e^(50 t)) is finite at t = 10, but U^† X U holds
        # e^(100 t) = e^1000, past the float range; e^700 at t = 7 is inside it
        ctx = gamma_context(np.diag([0.0, 50j]))
        assert np.isfinite(gamma_t(ctx, np.ones((2, 2)), 7.0)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            with pytest.raises(NumericRangeError, match=r"float range at t = 1\.000e\+01"):
                gamma_t(ctx, np.ones((2, 2)), 10.0)


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

    def test_matches_exponential_route(self, hermitian_ctx, series_route):
        rng = np.random.default_rng(36)
        x = random_matrix(3, rng)
        assert hermitian_ctx.series_route(1e-12) == series_route
        total, _ = gamma_series(hermitian_ctx, x, 0.7, 1e-12)
        assert op_norm(total - gamma_t(hermitian_ctx, x, 0.7)) < 1e-11

    def test_non_hermitian_agreement_within_certified_tolerance(self, series_route):
        rng = np.random.default_rng(37)
        ctx = gamma_context(random_matrix(4, rng))
        x = random_matrix(4, rng)
        for tol in (1e-6, 1e-10):
            assert ctx.series_route(tol) == series_route
            total, _ = gamma_series(ctx, x, 1.3, tol)
            assert op_norm(total - gamma_t(ctx, x, 1.3)) < tol + 1e-11

    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    def test_traceless_real_part_sums_like_the_reference(self, kind, failing_eigensolver):
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
    def test_stop_holds_where_the_growth_bound_is_tight(self, tol, t, failing_eigensolver):
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

    def test_ratio_of_exactly_one_waits_for_the_next_term(self, failing_eigensolver):
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

    def test_real_shift_tightens_the_rate_not_the_sum(self, failing_eigensolver):
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

    def test_cached_delta_bound_leaves_no_svd(self, monkeypatch, failing_eigensolver):
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
    def test_symmetry_at_a_large_rate_sums_exactly(self, x, failing_eigensolver):
        # delta(X) = 0 for diagonal X, so T_1 is exactly zero and the sum is X at
        # rate 200, where a term count fixed in advance exceeds MAX_SERIES_TERMS
        ctx = gamma_context(np.diag([10.0, -10.0]))
        assert ctx.delta_bound * 10.0 == 200.0
        total, terms = gamma_series(ctx, x, 10.0)
        assert terms == 1
        assert np.array_equal(total, x)

    def test_nan_time_raises_before_any_product(self, failing_eigensolver):
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
        with pytest.raises(ConfigError, match="^t must be finite real times in a 1-D array"):
            gamma_series(ctx, np.eye(2), float("nan"))
        assert products == []

    def test_first_term_can_certify_the_sum(self, failing_eigensolver):
        # |X|_F q / (1 - q) < tol_trunc already at T_0: no product is taken
        rng = np.random.default_rng(44)
        ctx = gamma_context(random_matrix(4, rng))
        x = random_matrix(4, rng)
        total, terms = gamma_series(ctx, x, 1e-16)
        assert terms == 1
        assert np.array_equal(total, x)

    def test_cap_without_a_certificate_raises_after_the_loop(self, failing_eigensolver):
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

    def test_a_zero_term_stops_at_every_time(self):
        # H^2 = 0: T_3 is exactly zero, so every nonzero time stops at three terms
        ctx = gamma_context(NILPOTENT)
        x = random_matrix(2, np.random.default_rng(46))
        d1 = delta_gamma(ctx, x)
        d2 = delta_gamma(ctx, d1)
        for t, count in ((10.0, 3), (0.5, 3), (-2.0, 3), (0.0, 1)):
            total, terms = gamma_series(ctx, x, t)
            assert terms == count
            closed = x + t * d1 + t**2 / 2 * d2
            assert np.abs(total - closed).max() <= 1e-15 * np.abs(closed).max()

    def test_bad_times_raise(self):
        ctx = gamma_context(NILPOTENT)
        message = r"^t must be finite real times in a 1-D array of >= 1$"
        for t in ([], float("nan"), (0.5, 1.0)):
            with pytest.raises(ConfigError, match=message):
                gamma_series(ctx, np.eye(2), t)
        with pytest.raises(TruncationError, match="keeps q >= 1"):
            gamma_series(ctx, np.eye(2), 1e6)


SERIES_TIME_SETS = [(10.0, 0.5), (0.5, 10.0), (2.0, 0.5, -1.0, 0.0, 1e-3), (-5.0, 3.0, 5.0)]


def _term_mass(h, x, s, terms):
    """sum_k |T_k(s)|_F over the first ``terms`` terms: the scale of a sum's rounding."""
    term, mass = x, np.linalg.norm(x)
    for k in range(1, terms):
        term = 1j * s / k * (h.conj().T @ term - term @ h)
        mass += np.linalg.norm(term)
    return mass


class TestSeriesAtTimes:
    """One context summed at several times, one ``gamma_series`` call per time."""

    @pytest.mark.parametrize("times", SERIES_TIME_SETS)
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    def test_sums_match_one_time_sums(self, kind, n, times, request):
        # a context that has summed at other times (its delta bound, V^-1 and expm memo
        # cached) sums each time with the bits and count of a fresh context; the term route
        # is within tol_trunc + 16 eps sum_k |T_k|_F of g_t and the eig route within
        # 1e-12 max(1, |g_t|_2), where these 36 cases peak at 0.63 and 0.02 of the bounds
        rng = np.random.default_rng(7 * n)
        h = random_hamiltonian(n, rng, kind=kind, scale=0.8)
        x = random_matrix(n, rng)
        for route in ("eig", "terms"):
            if route == "terms":  # H's eigensolve fails from here on
                request.getfixturevalue("failing_eigensolver")
            fresh = functools.partial(gamma_context, h)
            ctx = fresh()
            assert ctx.series_route(DEFAULT_TOL_TRUNC) == route
            for s in times:
                total, terms = gamma_series(ctx, x, s)
                alone, alone_terms = gamma_series(fresh(), x, s)
                assert terms == alone_terms and np.array_equal(total, alone)
                exact = gamma_t(ctx, x, s)
                if route == "terms":
                    bound = DEFAULT_TOL_TRUNC + 16 * EPS * _term_mass(h, x, s, terms)
                else:
                    bound = 1e-12 * max(1.0, op_norm(exact))
                assert op_norm(total - exact) <= bound


KINDS = ("hermitian", "real_spectrum", "complex_spectrum")


def _errors_against_40_digits(shifted, x, t, tol_trunc=DEFAULT_TOL_TRUNC):
    """The 2-norm errors against g_t at 40 digits of the series of an eigenstate context's
    H - E on its spectrum and of the term loop on H - E alone, which a failed eigensolve
    leaves it, and |g_t|_2."""
    exact = gamma_t_exact(shifted.h, x, t)
    eig = gamma_series(shifted, x, t, tol_trunc)[0]
    terms = gamma_series(gamma_context(shifted.h), x, t, tol_trunc)[0]
    return op_norm(eig - exact), op_norm(terms - exact), op_norm(exact)


class TestSeriesInTheEigenbasis:
    """Route "eig" of ``gamma_series``: a context on a well-conditioned ``Spectrum``."""

    def test_route_follows_the_guard_and_the_rounding_floor(self, request):
        h = random_hamiltonian(6, np.random.default_rng(50), kind="complex_spectrum")
        assert gamma_context(h).series_route(1e-12) == "eig"  # a route is H's alone
        assert gamma_context(eig_general(h)).series_route(1e-12) == "eig"
        for defective in (NILPOTENT, build_dm_model(1.0, 1.0).h):
            assert gamma_context(eig_general(defective)).series_route(1e-12) == "terms"

        def spectrum_at(cond):  # H = V diag(1, 2) V^-1 with cond(V) near ``cond``
            v = np.diag([1.0, 1.0 / cond]) @ haar_unitary(2, np.random.default_rng(51))
            return eig_general(v @ np.diag([1.0, 2.0]) @ np.linalg.inv(v))

        spec = spectrum_at(1e2)  # eps cond(V)^2 lies between 1e-12 and 1e-10
        assert 1e-12 < EPS * spec.condition_estimate**2 < 1e-10
        assert gamma_context(spec).series_route(1e-12) == "terms"
        assert gamma_context(spec).series_route(1e-10) == "eig"
        spec = spectrum_at(1e5)  # the floor passes at 0.5, the guard does not
        assert not spec.well_conditioned and EPS * spec.condition_estimate**2 < 0.5
        assert gamma_context(spec).series_route(0.5) == "terms"
        request.getfixturevalue("failing_eigensolver")
        assert gamma_context(h).series_route(1e-12) == "terms"  # no spectrum

    @pytest.mark.parametrize("stretch", [1.0, 5.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_no_less_accurate_than_the_term_loop_against_40_digits(self, kind, stretch, request):
        # 27 cases each: where both routes lose digits to cancellation (complex spectra at
        # |t| = 9.5) the eig route stays within 2x the term loop's error, else within 1e-12
        cases = []
        for seed, n in itertools.product(range(3), (2, 4, 6)):
            rng = np.random.default_rng(seed)
            h = random_hamiltonian(n, rng, kind=kind, basis_stretch=stretch)
            cases.append((eigenstate_context(h).shifted, random_matrix(n, rng)))
        request.getfixturevalue("failing_eigensolver")  # the term loop on H - E alone
        for shifted, x in cases:
            for t in (-7.0, 2.0, 9.5):
                eig, terms, size = _errors_against_40_digits(shifted, x, t)
                assert shifted.series_route(DEFAULT_TOL_TRUNC) == "eig"
                assert eig <= 2.0 * terms or eig <= 1e-12 * max(1.0, size)

    @pytest.mark.parametrize("cond", [1e1, 1e2, 1e3, 1e4])
    def test_cond_sweep_up_to_the_guard(self, cond, request):
        # V with singular values from 1 down to 1 / cond and |H|_2 = 1, at |t| <= 2: at
        # tol_trunc 1e-12 the route turns to the term loop once eps cond(V)^2 passes it; at
        # 1e-6 the eig route runs up to the guard and keeps the tolerance
        cases = []
        for seed, kind in itertools.product(range(2), KINDS[1:]):
            rng = np.random.default_rng(seed)
            values = np.sort(rng.uniform(-1.0, 1.0, 5)).astype(complex)
            if kind == "complex_spectrum":
                values += 1j * rng.uniform(-1.0, 1.0, 5)
            v = haar_unitary(5, rng) @ np.diag(np.geomspace(1.0, 1.0 / cond, 5))
            v = v @ haar_unitary(5, rng)
            h = v @ np.diag(values) @ np.linalg.inv(v)
            cases.append((eigenstate_context(h / op_norm(h)).shifted, random_matrix(5, rng)))
        request.getfixturevalue("failing_eigensolver")  # the term loop on H - E alone
        for shifted, x in cases:
            cond_v = shifted.spectrum.condition_estimate
            for t in (-2.0, 0.5, 2.0):
                exact = gamma_t_exact(shifted.h, x, t)
                for tol in (1e-12, 1e-6):
                    eig_route = cond_v <= EIG_COND_MAX and EPS * cond_v**2 <= tol
                    assert shifted.series_route(tol) == ("eig" if eig_route else "terms")
                    eig = op_norm(gamma_series(shifted, x, t, tol)[0] - exact)
                    terms = op_norm(gamma_series(gamma_context(shifted.h), x, t, tol)[0] - exact)
                    assert eig <= 2.0 * terms or eig <= max(1e-12, tol) * max(1.0, op_norm(exact))

    @pytest.mark.parametrize("t", [0.0, 1e-3, -1.0, 10.0])
    def test_one_term_only_at_time_zero(self, t):
        # one term (t = 0) returns a copy of X itself; every other time takes e^(t d) in
        # closed form, which truncates nothing and counts no term
        rng = np.random.default_rng(52)
        ctx = eigenstate_context(random_hamiltonian(6, rng, kind="complex_spectrum")).shifted
        x = random_matrix(6, rng)
        total, terms = gamma_series(ctx, x, t)
        assert terms == (1 if t == 0.0 else 0)
        if t == 0.0:
            assert np.array_equal(total, x) and not np.shares_memory(total, x)

    @pytest.mark.parametrize("rate", [20.0, 80.0, 200.0, 1e3])
    @pytest.mark.parametrize("orbit", ["hermitian", "real_spectrum", "decaying"])
    def test_closed_form_holds_40_digits_on_bounded_and_decaying_orbits(self, orbit, rate):
        # |t| max|d_ab| = rate, where one Taylor polynomial at the full rate cancels: the
        # entrywise e^(t d) holds 1e-12 max(1, |g_t|_2) wherever no entry of it grows (a
        # complex spectrum moved below the real axis decays for t > 0), up to the phase
        # that rounding lam costs t d, about eps rate: at rate 1e3, N = 6 reads 1.2e-12
        kind = "complex_spectrum" if orbit == "decaying" else orbit
        for seed, n in itertools.product(range(2), (2, 4, 6)):
            rng = np.random.default_rng(seed)
            h = random_hamiltonian(n, rng, kind=kind)
            if orbit == "decaying":
                h = h - 1j * np.linalg.eigvals(h).imag.max() * np.eye(n)
            ctx = gamma_context(eig_general(h))
            assert ctx.series_route(DEFAULT_TOL_TRUNC) == "eig"
            lam = ctx.spectrum.eigenvalues
            span = np.abs(lam.conj()[:, None] - lam[None, :]).max()
            x = random_matrix(n, rng)
            for sign in (1.0,) if orbit == "decaying" else (1.0, -1.0):
                t = sign * rate / span
                exact = gamma_t_exact(h, x, t)
                total, _ = gamma_series(ctx, x, t)
                bound = max(1e-12, 8 * EPS * rate)  # 1e-12 up to rate 200
                assert op_norm(total - exact) <= bound * max(1.0, op_norm(exact))

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0, -5.0])
    def test_stop_holds_where_the_growth_bound_is_tight(self, tol, t):
        # TestGammaSeries' case on H's spectrum: V = 1, and d_11 = 2a is the largest |d_ab|,
        # so the certificate is as tight as the term loop's
        a, r = 0.5, round(abs(t))
        ctx = gamma_context(eig_general(np.diag([1j * a, -1j * a])))
        assert ctx.series_route(tol) == "eig"
        scale = 0.9 * tol * math.factorial(r) / r**r
        x = np.array([[scale, 0.0], [0.0, 0.0]])
        total, _ = gamma_series(ctx, x, t, tol)
        roundoff = 64 * np.finfo(float).eps * scale * np.exp(r)
        assert op_norm(total - np.exp(2 * a * t) * x) <= tol + roundoff

    def test_term_route_cap_raises(self, failing_eigensolver):
        # H - E = diag(18, 0) without its spectrum: rate 180 passes the up-front test, but
        # e^180 needs more than 500 terms; rate 540 fails it
        ctx = gamma_context(np.diag([18.0, 0.0]))
        x = random_matrix(2, np.random.default_rng(53))
        with pytest.raises(TruncationError, match="needs more than 500 terms at rate 1.800e"):
            gamma_series(ctx, x, 10.0)
        with pytest.raises(TruncationError, match="keeps q >= 1"):
            gamma_series(ctx, x, 30.0)

    @pytest.mark.parametrize("t", [10.0, 30.0])
    def test_eig_route_sums_past_the_term_cap(self, t):
        # the same H - E on its spectrum: e^(t d) in closed form has no cap, truncates
        # nothing and counts no term, and the sum is g_t's
        h = np.diag([18.0, 0.0])
        x = random_matrix(2, np.random.default_rng(53))
        total, terms = gamma_series(gamma_context(eig_general(h)), x, t)
        exact = gamma_t_exact(h, x, t)
        assert op_norm(total - exact) <= 1e-12 * max(1.0, op_norm(exact))
        assert terms == 0

    def test_growth_past_the_float_range_raises(self):
        # H = diag(50i, 0): |e^(t d_11)| = e^(100 t) is finite up to t = 7.09 (at 7.05 a
        # truncation tolerance once divided by it overflowed) and past the float range at
        # 7.2, where the sum would hold inf
        h = np.diag([50j, 0.0])
        ctx = gamma_context(eig_general(h))
        x = random_matrix(2, np.random.default_rng(55))
        for t in (7.0, 7.05, 7.09):
            total, _ = gamma_series(ctx, x, t)
            grown = x * np.exp(t * np.array([[100.0, 50.0], [50.0, 0.0]]))
            assert np.abs(total - grown).max() <= 1e-12 * np.abs(grown).max()
        message = r"float range at rate 7\.200e\+02: .* e\^7\.200e\+02"
        with pytest.raises(NumericRangeError, match=message):
            gamma_series(ctx, x, 7.2)

    def test_a_rate_past_one_over_eps_raises(self):
        # past a rate of 2^52 = 1/eps, t d_ab holds no digit of its phase
        ctx = gamma_context(eig_general(np.diag([1.0, -1.0])))
        gamma_series(ctx, np.eye(2), 2.0**50)
        message = r"rate 9\.007e\+15 is past 2\^52 = 1/eps"
        with pytest.raises(TruncationError, match=message):
            gamma_series(ctx, np.eye(2), 2.0**52)

    def test_v_inverse_is_taken_once_per_spectrum(self, monkeypatch):
        # three probes at two times, on the spectrum and on its shift by an eigenvalue, the
        # symmetry basis and the biorthogonal system share one V^-1, which the basis copies
        # before it scales its rows
        h = random_hamiltonian(5, np.random.default_rng(54), kind="real_spectrum")
        spec = eig_general(h)
        inverses = []
        original = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(1) or original(a))
        ctx = gamma_context(spec)
        for seed, t in itertools.product(range(3), (2.0, 0.5)):
            p = random_matrix(5, np.random.default_rng(seed))
            gamma_series(ctx, p, t)
            gamma_series(eigenstate_context(h).shifted, p, t)
        assert gamma_symmetry_basis(ctx).route == "eig"
        assert np.array_equal(build_biorthogonal(h).psi, original(spec.right_vectors).conj().T)
        assert len(inverses) == 1
        assert np.array_equal(spec.left_vectors, original(spec.right_vectors))


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

    @pytest.mark.parametrize(
        "grid",
        [
            [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0], [0.0, 1.0, 2.0, 2.0], [1.0, 1e20, 2.0],
            [0.0, 1e-200, 2e-200, 1.0],
        ],
    )
    def test_a_grid_the_derivative_divides_by_zero_on_is_a_config_error(self, grid, monkeypatch):
        # t[i+1] == t[i] or t[i+1] == t[i-1] (as the spacings round), or two spacings whose
        # product underflows though the largest spacing is 1: raised before any propagation,
        # with no warning
        def no_propagation(*args, **kwargs):
            raise AssertionError("propagated")

        monkeypatch.setattr(nhdyn.flow, "exact_trajectory", no_propagation)
        ctx = gamma_context(np.array([[1.0, 2.0], [0.0, 3.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="t_grid must hold no time at or too near"):
                identity_norm_evolution(ctx, np.array([1.0, 0.0]), grid)

    @pytest.mark.parametrize(
        "grid", [[0.0, 1e-200, 3e-200], [0.0, 1e-170, 3e-170], [0.0, 5e-324, 1e-323]]
    )
    def test_a_grid_whose_spacing_products_underflow_gives_finite_rows(self, grid):
        # np.gradient divides by products of spacings that underflow to 0 here; on the
        # grid scaled by a power of two they do not
        ctx = gamma_context(np.array([[1.0, 2.0], [0.0, 3.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = identity_norm_evolution(ctx, np.array([1.0, 0.0]), grid)
        assert np.array_equal(rows[:, 0], grid)
        assert np.array_equal(rows[:, 1], np.ones(len(grid)))
        assert np.isfinite(rows).all()

    @pytest.mark.parametrize(
        "grid", [np.linspace(0.0, 1.0, 51), [0.0, 0.3, 0.35, 1.0, 1.1], [0.0, 1e-100, 3e-100]]
    )
    def test_a_grid_with_normal_spacing_products_keeps_the_derivative_bits(self, grid):
        # the scaled grid's derivative is the unscaled one's, bit for bit
        ctx = gamma_context(np.diag([1.0j, -1.0j]) + np.array([[0, 0.5], [0, 0]]))
        psi0 = np.array([1.0, 0.0])
        rows = identity_norm_evolution(ctx, psi0, grid)
        traj = exact_trajectory(ctx.h, psi0, grid)
        exact_rate = (1j * mean_values(ctx.h.conj().T - ctx.h, traj.psi)).real
        fd_rate = np.gradient(traj.norm_sq, np.asarray(grid), edge_order=2)
        assert np.array_equal(rows[:, 2], np.abs(fd_rate - exact_rate))

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 0.5], [2.0, 1.0, 0.0], [3.0, 0.0, -0.5, -2.0]])
    def test_a_grid_that_turns_or_falls_is_taken(self, grid):
        ctx = gamma_context(np.array([[1.0, 2.0], [0.0, 3.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = identity_norm_evolution(ctx, np.array([1.0, 0.0]), grid)
        assert np.array_equal(rows[:, 0], grid)
        assert np.isfinite(rows).all()

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_norm_outside_the_float_range_is_a_range_error(self, c):
        # |psi0| itself is in range, its square is not: no warning, no misleading ConfigError
        ctx = gamma_context(NILPOTENT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError, match="float range"):
                identity_norm_evolution(ctx, np.array([c, c]), [0.0, 1.0])


class TestSymmetryBasis:
    def test_diagonal_hamiltonian_against_brute_force(self, basis_route):
        h = np.diag([1.0, 2.0]).astype(complex)
        basis = gamma_symmetry_basis(gamma_context(h))
        assert basis.route == basis_route
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

    def test_generators_orthonormal_and_certified(self, basis_route):
        rng = np.random.default_rng(39)
        h = random_hamiltonian(4, rng, kind="real_spectrum")
        ctx = gamma_context(h)
        basis = gamma_symmetry_basis(ctx)
        assert basis.route == basis_route
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

    def test_chain_members_are_symmetries(self, basis_route):
        rng = np.random.default_rng(40)
        h = random_hamiltonian(4, rng, kind="real_spectrum")
        ctx = gamma_context(h)
        basis = gamma_symmetry_basis(ctx)
        assert basis.route == basis_route
        x = basis.generators[0]
        power = np.eye(4, dtype=complex)
        for _ in range(4):
            member = x @ power
            assert np.linalg.norm(h.conj().T @ member - member @ h) <= 1e-9
            for t in (0.5, 1.0, 2.0):
                assert op_norm(gamma_t(ctx, member, t) - member) <= 1e-8
            power = power @ h

    def test_empty_kernel_is_valid(self, basis_route):
        # different diagonals for H and H^†: H^† X = X H forces X = 0
        h = np.diag([1.0j, 2.0j])
        basis = gamma_symmetry_basis(gamma_context(h))
        assert basis.route == basis_route
        assert basis.generators.shape == (0, 2, 2)
        assert basis.chain_closure_dim == 0


def _structured(kind, n, rng):
    """A Hamiltonian V J V^-1 with the spectral structure named by ``kind``."""
    if kind == "hermitian":
        return random_hamiltonian(n, rng, kind="hermitian")
    if kind == "real":
        return random_hamiltonian(n, rng, kind="real_spectrum")
    # neighbours at least 1.6 / (n - 1) apart, so no two blocks nearly share an eigenvalue
    reals = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.2, 0.2, size=n) / (n - 1)
    j = np.zeros((n, n), dtype=complex)
    if kind == "conj_closed":  # every eigenvalue beside its conjugate
        half = reals[: n // 2] + 1j * rng.uniform(0.2, 1.0, size=n // 2)
        j[np.diag_indices(n)] = np.concatenate([half, half.conj()])
    elif kind == "generic_complex":  # no conjugate pair: no symmetry at all
        j[np.diag_indices(n)] = reals + 1j * rng.uniform(0.2, 1.0, size=n)
    else:  # n / 2 Jordan blocks of size 2 on distinct real eigenvalues
        j[np.diag_indices(n)] = np.repeat(reals[: n // 2], 2)
        j[np.arange(0, n - 1, 2), np.arange(1, n, 2)] = 0.5
    v = haar_unitary(n, rng) @ np.diag(np.exp(rng.uniform(0.0, 0.7, size=n))) @ haar_unitary(n, rng)
    return v @ j @ np.linalg.inv(v)


def _jordan_similar() -> np.ndarray:
    # V J V^{-1} with two 2-blocks, on eigenvalues 1 and 2
    rng = np.random.default_rng(7)
    v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    j = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
    j[0, 1] = j[2, 3] = 1.0
    return v @ j @ np.linalg.inv(v)


def _case(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A case's H, and the H0 with the same symmetries whose reference basis it is compared to:
    a real shift or a positive scale leaves H^† X = X H alone."""
    rng = np.random.default_rng(n)
    if kind == "identity":
        h = 1.5 * np.eye(n, dtype=complex)
    elif kind == "repeated_similar":  # two 8-fold eigenvalues in a non-unitary frame: d = 128
        v = haar_unitary(n, rng) @ np.diag(np.exp(rng.uniform(0.0, 0.7, n))) @ haar_unitary(n, rng)
        h = v @ np.diag(np.repeat([1.0, 2.0], n // 2)) @ np.linalg.inv(v)
    elif kind.startswith("repeated"):  # a chain of 3 < N: the projections show
        h = np.diag([1.0, 1.0, 1.0, 2.0, 3.0, 3.0]).astype(complex)
        if kind == "repeated_rotated":
            u = haar_unitary(n, rng)
            h = u @ h @ u.conj().T
    elif kind == "jordan_similar":
        h = _jordan_similar()
    elif kind == "fermion_dm":
        h = build_dm_model(1.0, 1.0).h
    elif kind in ("nilpotent", "zero", "diag_1_2"):
        fixed = {"nilpotent": NILPOTENT, "zero": np.zeros((n, n)), "diag_1_2": np.diag([1.0, 2.0])}
        h = fixed[kind].astype(complex)
    elif kind.endswith("shifted"):  # shift 100, or scale 1e6 and shift 1e8: |c| = 100 s |H0|
        h0 = _structured(kind.removesuffix("_shifted").removesuffix("_scaled"), n, rng)
        s, c = (1e6, 1e8) if "scaled" in kind else (1.0, 1e2)
        return s * h0 + c * np.eye(n), h0
    else:
        h = _structured(kind, n, rng)
    return h, h


class TestSymmetryBasisMatchesTheStackedRoute:
    """Both routes span the space of ``oracles.symmetry_basis_reference``, with its chain."""

    CASES = [
        *[(kind, n) for kind in ("hermitian", "real", "conj_closed", "generic_complex", "jordan")
          for n in (8, 16, 24)],
        ("identity", 6),
        ("repeated_diagonal", 6),
        ("repeated_rotated", 6),
        ("repeated_similar", 16),
        ("jordan_similar", 4),
        ("nilpotent", 2),
        ("fermion_dm", 8),
        ("zero", 3),
        ("diag_1_2", 2),
        *[(f"{kind}_shifted", 8) for kind in ("hermitian", "real", "conj_closed")],
        ("hermitian_scaled_shifted", 8),
        ("real_scaled_shifted", 8),
    ]
    DEFECTIVE = ("jordan", "jordan_similar", "nilpotent", "fermion_dm")  # cond(V) > EIG_COND_MAX

    @staticmethod
    def assert_matches_the_reference(basis, ctx, h0):
        n = ctx.dim
        gens, _, chain_dim = symmetry_basis_reference(h0)
        assert len(basis.generators) == len(gens)
        assert basis.chain_closure_dim == chain_dim
        new, old = (g.reshape(len(g), n * n).T for g in (basis.generators, gens))
        gap = new @ new.conj().T - old @ old.conj().T
        assert np.linalg.norm(gap, 2) <= 1e-12
        assert np.abs(new.conj().T @ new - np.eye(len(gens))).max(initial=0.0) <= 1e-12
        assert max(basis.residuals, default=0.0) <= 1e-8 * ctx.h_norm
        g, h = basis.generators, ctx.h
        direct = np.linalg.norm(h.conj().T @ g - g @ h, axis=(1, 2))  # closed forms agree
        assert np.abs(direct - basis.residuals).max(initial=0.0) <= 1e-12 * ctx.h_norm

    @pytest.mark.parametrize("kind, n", CASES, ids=[f"{k}-{n}" for k, n in CASES])
    def test_same_space_and_chain_as_the_reference(self, kind, n, failing_eigensolver):
        h, h0 = _case(kind, n)
        ctx = gamma_context(h)
        basis = gamma_symmetry_basis(ctx)
        assert basis.route == "schur"  # a failed eigensolve
        self.assert_matches_the_reference(basis, ctx, h0)

    @pytest.mark.parametrize("kind, n", CASES, ids=[f"{k}-{n}" for k, n in CASES])
    def test_eigenvector_route_where_v_is_well_conditioned(self, kind, n):
        h, h0 = _case(kind, n)
        ctx = gamma_context(eig_general(h))
        basis = gamma_symmetry_basis(ctx)
        assert basis.route == ("schur" if kind in self.DEFECTIVE else "eig")
        self.assert_matches_the_reference(basis, ctx, h0)


class TestRoutesAreHsAlone:
    """Every route reads H's spectrum from the ``eig_general`` memo, so a context picks the
    same route, and the same bits, whether it was built on H or on H's ``Spectrum``."""

    CASES = [("hermitian", 4), ("real_spectrum", 6), ("complex_spectrum", 8), ("jordan", 5)]

    @staticmethod
    def hamiltonian(kind, n):
        if kind == "jordan":  # defective: cond(V) past EIG_COND_MAX
            return (0.5 - 0.2j) * np.eye(n) + np.eye(n, k=1)
        return random_hamiltonian(n, np.random.default_rng(n), kind=kind)

    @pytest.mark.parametrize("kind, n", CASES)
    def test_a_matrix_and_its_spectrum_take_one_route(self, kind, n):
        h = self.hamiltonian(kind, n)
        x = random_matrix(n, np.random.default_rng(60))
        contexts = gamma_context(h), gamma_context(eig_general(h))
        routes = {c.series_route(DEFAULT_TOL_TRUNC) for c in contexts}
        assert routes == {"terms" if kind == "jordan" else "eig"}
        for t in (0.5, 2.0):
            (a, ka), (b, kb) = (gamma_series(c, x, t) for c in contexts)
            assert ka == kb and a.tobytes() == b.tobytes()
        a, b = (gamma_symmetry_basis(c) for c in contexts)
        assert a.route == b.route == ("schur" if kind == "jordan" else "eig")
        assert a.generators.tobytes() == b.generators.tobytes()
        assert (a.residuals, a.chain_closure_dim) == (b.residuals, b.chain_closure_dim)

    @pytest.mark.parametrize("kind, n", CASES)
    def test_delta_gamma_and_gamma_t_solve_nothing(self, kind, n, monkeypatch):
        calls = []
        original = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(1) or original(a))
        ctx = gamma_context(self.hamiltonian(kind, n))
        x = random_matrix(n, np.random.default_rng(61))
        delta_gamma(ctx, x)
        gamma_t(ctx, x, 0.5)
        assert calls == []

    @pytest.mark.parametrize("kind, n", CASES)
    def test_the_operator_norm_solves_nothing(self, kind, n, monkeypatch):
        # |H|_2 is the spectrum's where one was taken, else op_norm of the same bytes
        h = self.hamiltonian(kind, n)
        on_spectrum = gamma_context(eig_general(h))
        calls = []
        original = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(1) or original(a))
        ctx = gamma_context(h)
        assert (ctx.h_norm, ctx.delta_bound) == (on_spectrum.h_norm, on_spectrum.delta_bound)
        assert calls == [] and "spectrum" not in ctx.__dict__


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

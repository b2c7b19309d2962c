"""Properties of the paper's identities over the seeded ensembles.

Each example draws a seed, a spectral kind, a dimension and a grid;
``nhdyn.ensembles`` turns the seed into the Hamiltonian and the initial
state, so every example is reproducible from its printed arguments.
The draws are derandomized, so every run checks the same examples.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import eigensolver_fails
from oracles import (
    classify_per_point,
    gamma_series_reference,
    intertwiner_kernel_brute,
    trajectory_per_point,
    trajectory_stepped_per_point,
)

from nhdyn import (
    build_dm_model,
    classify,
    delta_gamma,
    eigenstate_context,
    exact_trajectory,
    expm,
    gamma_context,
    gamma_series,
    gamma_symmetry_basis,
    gamma_symmetry_decay_check,
    h_nl,
    op_norm,
    weak_identity_report,
)
from nhdyn.ensembles import random_hamiltonian, random_matrix, random_unit_vector
from nhdyn.flow import ANCHOR, STEP_TOL
from nhdyn.linalg import eig_general

KINDS = ("hermitian", "real_spectrum", "complex_spectrum")
seeds = st.integers(min_value=0, max_value=2**32 - 1)
properties = settings(derandomize=True, deadline=None, max_examples=30)


def _draw(seed: int, n: int, kind: str, stretch: float = 2.0):
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(n, rng, kind=kind, basis_stretch=stretch)
    return h, random_unit_vector(n, rng), rng


def _basis(h: np.ndarray, spectrum: bool):
    """The symmetry basis on the route H's ``Spectrum`` gives, or on the Schur route, which
    a failed eigensolve leaves it."""
    if spectrum:
        return gamma_symmetry_basis(gamma_context(h))
    with eigensolver_fails():
        return gamma_symmetry_basis(gamma_context(h))


@properties
@given(seed=seeds, n=st.integers(2, 8), kind=st.sampled_from(KINDS))
def test_nonlinear_hamiltonian_sum_rule(seed, n, kind):
    h, psi0, _ = _draw(seed, n, kind)
    traj = exact_trajectory(h, psi0, np.linspace(0.0, 2.0, 11))
    for v in traj.psi_hat:
        hnl = h_nl(h, v)
        assert op_norm(hnl + hnl.conj().T - (h + h.conj().T)) <= 1e-13


@properties
@given(seed=seeds, n=st.integers(2, 6), kind=st.sampled_from(KINDS[:2]))
def test_symmetry_means_follow_the_decay_law(seed, n, kind):
    # a real spectrum pairs every eigenvalue with its conjugate, so the
    # symmetry space is N-dimensional; mix its generators at random
    h, psi0, rng = _draw(seed, n, kind)
    weights = rng.normal(size=n) + 1j * rng.normal(size=n)
    traj = exact_trajectory(h, psi0, np.linspace(0.0, 2.0, 41))
    for spectrum in (False, True):
        generators = _basis(h, spectrum).generators
        assert len(generators) == n
        x = sum(w * g for w, g in zip(weights, generators))
        assert gamma_symmetry_decay_check(h, x, traj) <= 1e-9


@properties
@given(
    seed=seeds,
    n=st.integers(2, 16),
    kind=st.sampled_from(KINDS),
    stretch=st.floats(1.0, 10.0),
    points=st.integers(1, 120),
    t_start=st.floats(-5.0, 5.0),
    length=st.floats(0.1, 10.0),
)
def test_stepped_trajectory_equals_per_point_exponentials(
    seed, n, kind, stretch, points, t_start, length
):
    h, psi0, _ = _draw(seed, n, kind, stretch)
    t = np.linspace(t_start, t_start + length, points)
    traj = exact_trajectory(h, psi0, t)
    oracle = trajectory_per_point(h, psi0, t)
    gap = np.linalg.norm(traj.psi - oracle, axis=1) / np.linalg.norm(oracle, axis=1)
    # the guard holds each stepped segment within STEP_TOL at its anchor; on
    # [0, 10] the drift stays near 1e-14 (test_flow), off it up to 7e-13 was seen
    assert gap.max() <= 2 * STEP_TOL


@properties
@given(
    seed=seeds,
    n=st.integers(2, 16),
    stretch=st.floats(1.0, 10.0),
    points=st.integers(3, 201),
    t_end=st.floats(0.5, 10.0),
)
def test_growing_orbit_segments_stay_within_the_scaled_guard(seed, n, stretch, points, t_end):
    # E with the most negative imaginary part: every other mode of the orbit
    # exp(-i(H - E)t) phi grows. The anchor's own roundoff grows with
    # cond = max(1, |U|_F / sqrt(N)) / |U phi|, so each segment is held to
    # STEP_TOL * cond of its closing anchor
    h, _, _ = _draw(seed, n, "complex_spectrum", stretch)
    ctx = eigenstate_context(h, int(np.argmin(eig_general(h).eigenvalues.imag)))
    t = np.linspace(0.0, t_end, points)
    traj = exact_trajectory(ctx.shifted.h, ctx.phi_k0, t)
    oracle = trajectory_per_point(ctx.shifted.h, ctx.phi_k0, t)
    gap = np.linalg.norm(traj.psi - oracle, axis=1) / np.linalg.norm(oracle, axis=1)
    anchors = sorted({*range(0, t.size, ANCHOR), t.size - 1})
    for a, b in zip(anchors, anchors[1:]):
        u = scipy.linalg.expm(-1j * ctx.shifted.h * t[b])
        cond = max(1.0, np.linalg.norm(u) / np.sqrt(n)) / np.linalg.norm(u @ ctx.phi_k0)
        assert gap[a + 1 : b + 1].max() <= STEP_TOL * cond


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    seed=seeds,
    n=st.integers(2, 16),
    kind=st.sampled_from(KINDS),
    stretch=st.sampled_from([1.0, 10.0, 1e2, 1e3]),
    points=st.integers(3, 130),
    t_start=st.floats(-5.0, 5.0).filter(bool),
    length=st.floats(0.1, 20.0),
    descending=st.booleans(),
)
# redone segments before a re-stepped one and a short last segment, run backwards or not
@example(2542691317, 14, "complex_spectrum", 1e3, 117, -3.71, 9.39, True)  # 3 of 5 redone
@example(2814845268, 7, "complex_spectrum", 1e3, 129, 4.08, 3.79, True)  # 5 of 6
@example(439012204, 9, "complex_spectrum", 1e3, 69, -3.87, 5.72, False)  # 2 of 3
def test_segments_stepped_at_once_equal_the_per_point_loop(
    seed, n, kind, stretch, points, t_start, length, descending
):
    # grids shorter than ANCHOR and short last segments, off t = 0 and run backwards. A
    # stretch of 1e3 makes the guard redo segments, so the chained redo is compared too.
    # Stretch 1e4 stays out: there a stepped state can sit on the guard's threshold, and
    # the two summation orders then decide it either way (3 redone segments against 5
    # were seen), both within the guard
    h, psi0, _ = _draw(seed, n, kind, stretch)
    t = np.linspace(t_start, t_start - length if descending else t_start + length, points)
    spec = eig_general(h)
    traj = exact_trajectory(h, psi0, t)
    loop, _, fallbacks = trajectory_stepped_per_point(
        expm, h, psi0, t, spec if spec.well_conditioned else None, ANCHOR, STEP_TOL
    )
    assert traj.anchor_route == ("eig" if spec.well_conditioned else "expm")
    assert traj.fallback_segments == fallbacks
    assert traj.psi[0].tobytes() == loop[0].tobytes()
    # one segment's products in one order or the other: 1,000 draws of these ranges peaked
    # at 0.23 of this bound
    gap = np.linalg.norm(traj.psi - loop, axis=1) / np.linalg.norm(loop, axis=1)
    assert gap.max() <= STEP_TOL * max(1.0, spec.condition_estimate)


@properties
@given(
    seed=seeds,
    n=st.integers(2, 6),
    k0=st.integers(0, 5),
    t_end=st.sampled_from([0.5, 1.0, 2.0]),
    reach=st.floats(0.0, 700.0),
)
def test_identity_mean_does_not_move_with_an_imaginary_shift(seed, n, k0, t_end, reach):
    # H = A + i c 1 has the H_k0 = H - E of A, so the identity mean stays at roundoff for
    # every c t_end from 0 to 700: past about 355 |exp(-iHt) phi|^2 = e^{2 Im E t} overflows
    a, _, _ = _draw(seed, n, "complex_spectrum")
    t = np.linspace(0.0, t_end, 21)
    for ct in (0.0, 299.0, 301.0, reach, 700.0):
        ctx = eigenstate_context(a + 1j * (ct / t_end) * np.eye(n), k0 % n)
        report = weak_identity_report(ctx, t, np.random.default_rng(seed))
        assert report.identity_mean_residual <= 1e-11


@properties
@given(
    seed=seeds,
    n=st.integers(2, 16),
    kind=st.sampled_from(KINDS),
    stretch=st.floats(1.0, 10.0),
    t=st.floats(-10.0, 10.0),
)
def test_expm_matches_scipy(seed, n, kind, stretch, t):
    h, _, _ = _draw(seed, n, kind, stretch)
    ours, oracle = expm(-1j * h * t), scipy.linalg.expm(-1j * h * t)
    norm1 = lambda a: np.abs(a).sum(axis=0).max()  # noqa: E731
    assert norm1(ours - oracle) <= 1e-13 * norm1(oracle)


@properties
@given(
    seed=seeds,
    n=st.integers(2, 16),
    kind=st.sampled_from(KINDS),
    stretch=st.floats(1.0, 10.0),
    t=st.floats(-10.0, 10.0),
)
def test_gamma_series_on_shifted_rate_matches_reference(seed, n, kind, stretch, t):
    # the eigenstate context's H - E is the shifted Hamiltonian the scenario sums; where
    # its eigensolve fails the context sums by terms, as the reference does
    h, _, rng = _draw(seed, n, kind, stretch)
    shifted = eigenstate_context(h).shifted.h
    x = random_matrix(n, rng)
    with eigensolver_fails():
        ctx = gamma_context(shifted)
        assert op_norm(delta_gamma(ctx, x)) <= ctx.delta_bound * op_norm(x) * (1 + 1e-12)
        total, terms = gamma_series(ctx, x, t, 1e-12)
    ref, ref_terms = gamma_series_reference(ctx.h, x, t, 1e-12)
    assert terms <= ref_terms
    assert op_norm(total - ref) <= 2e-12


@properties
@given(
    seed=seeds,
    n=st.integers(2, 16),
    kind=st.sampled_from(KINDS),
    t=st.floats(-10.0, 10.0),
    tol_trunc=st.sampled_from([1e-6, 1e-10, 1e-12]),
)
def test_stopped_series_is_within_tol_trunc_of_the_full_reference(seed, n, kind, t, tol_trunc):
    # both loops sum the same terms; the stop drops a tail its certificate
    # bounds by tol_trunc, where the reference sums every a-priori term
    h, _, rng = _draw(seed, n, kind)
    x = random_matrix(n, rng)
    with eigensolver_fails():  # the term loop
        total, terms = gamma_series(gamma_context(h), x, t, tol_trunc)
    full, ref_terms = gamma_series_reference(h, x, t, tol_trunc)
    assert terms <= ref_terms
    assert op_norm(total - full) <= tol_trunc * (1 + 1e-12)


@properties
@given(seed=seeds, n=st.integers(2, 8), kind=st.sampled_from(KINDS))
def test_convex_classify_equals_per_point_classify(seed, n, kind):
    h, psi0, rng = _draw(seed, n, kind)
    traj = exact_trajectory(h, psi0, np.linspace(0.0, 3.0, 31))
    for x in (np.eye(n), h, random_matrix(n, rng)):
        strong, weak = classify_per_point(h, x, traj.psi_hat)
        report = classify(h, x, traj)
        scale = max(1.0, op_norm(h) * op_norm(x))
        assert abs(report.c_psi_hat_residual - strong) <= 1e-13 * scale
        assert abs(report.c_psi_hat_weak_residual - weak) <= 1e-13 * scale


def _jordan_similar() -> np.ndarray:
    # V J V^{-1} with two 2-blocks, on eigenvalues 1 and 2
    rng = np.random.default_rng(7)
    v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    j = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
    j[0, 1] = j[2, 3] = 1.0
    return v @ j @ np.linalg.inv(v)


def _assert_symmetries_match_oracle(h: np.ndarray) -> None:
    """On the Schur route and on the route H's spectrum gives, which may be Schur too."""
    n = h.shape[0]
    ref = intertwiner_kernel_brute(h)  # row-major unknowns, as in g.ravel()
    for spectrum in (False, True):
        q = np.reshape(_basis(h, spectrum).generators, (-1, n * n)).T
        assert q.shape[1] == ref.shape[1]
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max(initial=0.0) <= 1e-12
        assert op_norm(ref - q @ (q.conj().T @ ref)) <= 1e-10


@properties
@given(
    seed=seeds,
    n=st.integers(2, 8),
    kind=st.sampled_from(KINDS),
    stretch=st.floats(1.0, 10.0),
)
def test_symmetry_basis_spans_the_kronecker_kernel(seed, n, kind, stretch):
    h, _, _ = _draw(seed, n, kind, stretch)
    _assert_symmetries_match_oracle(h)


@pytest.mark.parametrize(
    "h",
    [
        _jordan_similar(),
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        build_dm_model(1.0, 1.0).h,
        np.zeros((3, 3), dtype=complex),
        np.diag([1.0, 2.0]).astype(complex),
    ],
    ids=["jordan", "nilpotent", "fermion_dm", "zero", "diag_1_2"],
)
def test_symmetry_basis_on_degenerate_and_defective_cases(h):
    _assert_symmetries_match_oracle(h)


@properties
@given(
    seed=seeds,
    n=st.integers(2, 12),
    kind=st.sampled_from(KINDS[:2]),
    log_s=st.floats(-3.0, 6.0),
    shift=st.floats(-1.0, 1.0),
    spectrum=st.booleans(),
)
def test_symmetry_dimension_ignores_real_shifts_and_units(seed, n, kind, log_s, shift, spectrum):
    # H^† X = X H is unchanged by a real shift c and a scale s > 0; the rank cut is
    # relative to |H|, the size of the roundoff, so d follows once the gaps stand above it
    h, _, _ = _draw(seed, n, kind)
    size = op_norm(h)
    lam = np.linalg.eigvals(h)
    assume(np.abs(lam[:, None] - lam[None, :])[~np.eye(n, dtype=bool)].min() >= 1e-3 * size)
    s = 10.0**log_s
    shifted = s * h + shift * 1e7 * s * size * np.eye(n)
    assert len(_basis(shifted, spectrum).generators) == len(_basis(h, False).generators) == n


@properties
@given(
    seed=seeds,
    n=st.integers(2, 12),
    log_s=st.floats(-3.0, 6.0),
    shift=st.floats(-1.0, 1.0),
    spectrum=st.booleans(),
)
def test_a_hermitian_h_has_the_identity_among_n_or_more_symmetries(
    seed, n, log_s, shift, spectrum
):
    h, _, _ = _draw(seed, n, "hermitian")
    s = 10.0**log_s
    shifted = s * h + shift * 1e7 * s * op_norm(h) * np.eye(n)
    gens = _basis(shifted, spectrum).generators
    assert len(gens) >= n
    q = gens.reshape(len(gens), n * n).T
    one = np.eye(n).ravel() / np.sqrt(n)
    assert np.linalg.norm(one - q @ (q.conj().T @ one)) <= 1e-8


@pytest.mark.parametrize("spectrum", [False, True], ids=["schur", "spectrum"])
@pytest.mark.parametrize("eps", [0.0, 1e-16, 1e-14, 1e-12, 1e-6, 1e-4])
def test_a_near_multiple_of_the_identity(eps, spectrum):
    # 1.5 + eps E: within the cut every operator is a symmetry, beyond it the N powers of H
    n = 12
    rng = np.random.default_rng(12)
    e = random_hamiltonian(n, rng, kind="hermitian")
    e = (e + e.conj().T) / 2  # exactly Hermitian
    h = 1.5 * np.eye(n) + eps * e / op_norm(e)
    assert len(_basis(h, spectrum).generators) == (n * n if eps <= 1e-12 else n)


@properties
@given(seed=seeds, n=st.one_of(st.integers(2, 8), st.sampled_from([24, 32])))
def test_chain_closes_on_distinct_hermitian_spectra(seed, n):
    h, _, _ = _draw(seed, n, "hermitian")
    assert _basis(h, False).chain_closure_dim == _basis(h, True).chain_closure_dim == n

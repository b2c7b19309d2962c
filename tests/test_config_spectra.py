"""Property: configs over structured spectra keep the exit-code contract.

Each draw builds an N <= 8 matrix Hamiltonian of one spectral kind (a Jordan
block, nilpotent, c*1, an oblique projector, repeated eigenvalues, PT pairs,
zero or random), scales its 2-norm to between 1e-3 and 1e2, and asks for a
random subset of the tasks on 2 to 201 points up to t = 60; ``eigenstate_k0``
may be N, one past the last eigenvalue. ``nhdyn run`` ends with exit status
0, 2 or 3 without a traceback, and ``nhdyn validate`` rejects the config
(exit 2) exactly when ``run`` does."""

import json
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nhdyn.cli import main
from nhdyn.ensembles import random_matrix, random_unit_vector

TASKS = ["trajectory", "symmetries", "classify", "eigenstate_case", "biortho"]
KINDS = ["jordan", "nilpotent", "scalar", "projector", "repeated", "pt_pairs", "zero", "random"]


def _spectral_kind(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """An n x n Hamiltonian of ``kind``; the similar ones are S D S^-1, S random."""
    s = random_matrix(n, rng) + np.eye(n)
    similar = lambda d: s @ d @ np.linalg.inv(s)  # noqa: E731
    c = complex(rng.normal(), rng.normal())
    if kind == "jordan":
        return similar(c * np.eye(n) + np.eye(n, k=1))
    if kind == "nilpotent":
        return np.triu(random_matrix(n, rng), 1)
    if kind == "scalar":
        return c * np.eye(n, dtype=complex)
    if kind == "projector":
        return similar(np.diag(rng.integers(0, 2, n)).astype(complex))
    if kind == "repeated":
        return similar(np.diag(np.repeat([c, -c.conjugate()], (n + 1) // 2)[:n]))
    if kind == "pt_pairs":  # blocks [[i g, k], [k, -i g]]: real, exceptional or complex pairs
        h = np.zeros((n, n), dtype=complex)
        for i in range(0, n - 1, 2):
            g, k = rng.uniform(0.0, 2.0, 2)
            h[i : i + 2, i : i + 2] = [[1j * g, k], [k, -1j * g]]
        return h
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    return random_matrix(n, rng)


@st.composite
def configs(draw):
    seed, n = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 8))
    kind, scale = draw(st.sampled_from(KINDS)), 10.0 ** draw(st.floats(-3.0, 2.0))
    rng = np.random.default_rng(seed)
    h = _spectral_kind(kind, n, rng)
    norm = np.linalg.norm(h, 2)
    h = h * (scale / norm) if norm > 0 else h
    psi0 = random_unit_vector(n, rng)
    return {
        "hamiltonian": np.stack([h.real, h.imag], -1).tolist(),
        "initial_state": np.stack([psi0.real, psi0.imag], -1).tolist(),
        "time": {"t_end": draw(st.floats(1e-3, 60.0)), "points": draw(st.integers(2, 201))},
        "observables": ["identity", "H"],
        "tasks": draw(st.lists(st.sampled_from(TASKS), min_size=1, max_size=5, unique=True)),
        "eigenstate_k0": draw(st.sampled_from([None, 0, n - 1, n])),  # n: both exit 2
    }


@settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=configs())
def test_structured_spectra_keep_the_exit_codes(tmp_path, capsys, doc):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        run_err = capsys.readouterr().err
        validated = main(["validate", "--config", str(cfg)])
        validate_err = capsys.readouterr().err
    assert status in (0, 2, 3)
    assert (validated == 2) == (status == 2)
    for err in (run_err, validate_err):
        assert "Traceback" not in err and len(err.splitlines()) <= 1
    assert not caught, [str(w.message) for w in caught]

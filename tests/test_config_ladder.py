"""Property: configs whose numbers span the whole float range, 1e-320 to
1e308, keep the exit-code contract. Each draw picks one of the three
Hamiltonian forms (a matrix, ``fermion_dm`` or ``similar``) and takes every
coupling, entry, time and tolerance from a magnitude ladder. ``nhdyn run``
ends with exit status 0, 2 or 3, ``nhdyn validate`` rejects the config
(exit 2) exactly when ``run`` does, and neither prints more than one line
to stderr or raises a warning."""

import json
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nhdyn.cli import main

TASKS = ["trajectory", "symmetries", "classify", "eigenstate_case", "biortho"]
TOLERANCES = ["tol_class", "tol_trunc", "rank_tol_rel", "tol_distinct"]
EDGES = [-320, -308, 154, 306, 307, 308]  # denormals, the normal floor, |x|^2 and the top


@st.composite
def ladder(draw, wide, positive=False):
    """A float mantissa * 10^e, finite and nonzero (its sign drawn).

    ``wide`` draws e from [-320, 308], from near one or from the edges of the
    range, where overflow and underflow begin; otherwise |e| <= 1, so that
    a config of such numbers mostly runs to the end.
    """
    near_one = st.integers(-1, 1)
    exponents = st.integers(-320, 308) | near_one | st.sampled_from(EDGES) if wide else near_one
    value = draw(st.floats(1.0, 1.79)) * 10.0 ** draw(exponents)
    return value if positive or draw(st.booleans()) else -value


@st.composite
def matrices(draw, n, wide, hermitian=False):
    rows = [[[draw(ladder(wide)), draw(ladder(wide))] for _ in range(n)] for _ in range(n)]
    if hermitian:
        for i in range(n):
            rows[i][i][1] = 0.0
            for j in range(i):
                rows[i][j] = [rows[j][i][0], -rows[j][i][1]]
    return rows


@st.composite
def hamiltonians(draw, wide):
    """A Hamiltonian field of one of the three forms, its dimension and whether
    it is ``fermion_dm`` (which alone takes occupation labels)."""
    form = draw(st.sampled_from(["matrix", "fermion_dm", "similar"]))
    if form == "fermion_dm":
        couplings = {key: draw(ladder(wide, positive=True)) for key in ("lambda", "mu")}
        return {"fermion_dm": couplings}, 8, True
    n = draw(st.integers(1, 3))
    if form == "matrix":
        return draw(matrices(n, wide)), n, False
    h0, r = draw(matrices(n, wide, hermitian=True)), draw(matrices(n, wide))
    return {"similar": {"h0": h0, "r": r}}, n, False


@st.composite
def configs(draw):
    wide = draw(st.booleans())  # a config of numbers near one, or over the whole range
    hamiltonian, n, fermionic = draw(hamiltonians(wide))
    t_start = draw(st.just(0.0) | ladder(wide))
    tolerances = draw(st.lists(st.sampled_from(TOLERANCES), max_size=4, unique=True))
    doc = {
        "hamiltonian": hamiltonian,
        "time": {"t_start": t_start, "t_end": t_start + draw(ladder(wide, positive=True)),
                 "points": draw(st.integers(2, 4))},
        "tolerances": {key: draw(ladder(wide, positive=True)) for key in tolerances},
        "observables": ["identity", "H"] + (["N"] if fermionic else []),
        "tasks": draw(st.lists(st.sampled_from(TASKS), min_size=1, max_size=3, unique=True)),
    }
    if fermionic:
        doc["initial_state"] = draw(st.sampled_from(["010", "011", "100"]))
    else:
        k = draw(st.integers(0, n - 1))
        doc["initial_state"] = [[1.0 if i == k else 0.0, 0.0] for i in range(n)]
    return doc


@settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=configs())
@example(  # |H| t near 1e307: the odd Pade term overflowed where exp(-iHt) is finite
    doc={
        "hamiltonian": {"fermion_dm": {"lambda": 1.0, "mu": 1e307}},
        "initial_state": "010",
        "time": {"t_end": 1.0, "points": 2},
        "tasks": ["trajectory"],
    }
)
def test_float_range_configs_keep_the_exit_codes(tmp_path, capsys, doc):
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
    assert len(run_err.splitlines()) <= 1 and len(validate_err.splitlines()) <= 1
    assert not caught, [str(w.message) for w in caught]

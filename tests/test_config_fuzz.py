"""Property: whatever JSON value a config field holds, ``nhdyn run`` ends
with exit status 0, 2 or 3 and never lets an exception escape, and
``nhdyn validate`` rejects the config (exit 2) exactly when ``run`` does."""

import json
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nhdyn.cli import main

BASE = {
    "hamiltonian": [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [-1.0, 0.5]]],
    "initial_state": [[1.0, 0.0], [0.0, 0.0]],
    "time": {"t_start": 0.0, "t_end": 1.0, "points": 11},
    "observables": ["identity", "H", {"name": "X", "matrix": [[0, 1], [1, 0]]}],
    "tolerances": {"tol_class": 1e-8, "tol_trunc": 1e-12, "rank_tol_rel": 1e-10},
    "tasks": ["trajectory", "symmetries", "classify", "eigenstate_case", "biortho"],
    "seed": 3,
    "eigenstate_k0": 0,
}

# every place one generated value may replace; each path exists in BASE
FIELDS = [
    ("hamiltonian",),
    ("hamiltonian", 0),
    ("hamiltonian", 1, 1),
    ("hamiltonian", 1, 1, 0),
    ("initial_state",),
    ("initial_state", 0),
    ("time",),
    ("time", "t_start"),
    ("time", "t_end"),
    ("time", "points"),
    ("observables",),
    ("observables", 0),
    ("observables", 2, "name"),
    ("observables", 2, "matrix"),
    ("tolerances",),
    ("tolerances", "tol_class"),
    ("tolerances", "tol_trunc"),
    ("tolerances", "rank_tol_rel"),
    ("tasks",),
    ("tasks", 0),
    ("seed",),
    ("eigenstate_k0",),
]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)


def _nested(depth: int):
    """A scalar, or a list or object nested at most ``depth`` levels deep."""
    if depth == 0:
        return scalars
    inner = _nested(depth - 1)
    return (
        scalars
        | st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    )


json_values = _nested(3)


def _replace(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


@settings(
    derandomize=True,
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(field=st.sampled_from(FIELDS), value=json_values)
def test_any_field_value_exits_zero_two_or_three(tmp_path, capsys, field, value):
    doc = json.loads(json.dumps(BASE))
    _replace(doc, field, value)
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        status = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        validated = main(["validate", "--config", str(cfg)])
    assert status in (0, 2, 3)
    assert (validated == 2) == (status == 2)
    capsys.readouterr()

"""``report.json`` and the echo ``nhdyn validate`` prints are the bytes of
``oracles.report_json_stdlib``, ``json.dumps(indent=2, sort_keys=True)``, for the
sections of every task. ``complex_to_json`` keeps a -0.0, and strict JSON rejects a
non-finite number, also inside an array, before any file is written.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from oracles import report_json_stdlib

import nhdyn.scenario
from nhdyn.cli import main
from nhdyn.ensembles import random_hamiltonian, random_unit_vector
from nhdyn.scenario import _json_text, complex_to_json, load_config, parse_config, run


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
def test_writer_rejects_a_non_finite_number_inside_an_array(bad):
    stack = np.ones((3, 5, 5, 2))
    stack[2, 4, 3, 1] = bad
    with pytest.raises(ValueError):
        _json_text({"generators": stack.tolist()})


def _inline(n, kind, seed):
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(n, rng, kind=kind)
    return complex_to_json(h), complex_to_json(random_unit_vector(n, rng))


def _scenarios():
    h_sym, _ = _inline(10, "hermitian", 7)
    h_dense, psi = _inline(12, "real_spectrum", 8)
    return {
        "readme_fermion": {
            "hamiltonian": {"fermion_dm": {"lambda": 1.0, "mu": 1.0}},
            "initial_state": "011",
            "time": {"t_start": 0.0, "t_end": 10.0, "points": 201},
            "observables": ["N", "identity"],
            "tasks": ["fermion_demo", "classify", "symmetries"],
            "seed": 42,
        },
        "symmetries": {"hamiltonian": h_sym, "tasks": ["symmetries", "biortho"]},
        "dense": {
            "hamiltonian": h_dense,
            "initial_state": psi,
            "time": {"t_start": 0.0, "t_end": 2.0, "points": 41},
            "observables": ["identity", "H"],
            "tasks": ["trajectory", "classify", "biortho", "eigenstate_case"],
        },
        "similar": {
            "hamiltonian": {
                "similar": {
                    "h0": [[1.0, 0.0], [0.0, 2.0]],
                    "r": [[2.0, [0.5, 0.25]], [[0.0, -0.0], 1.0]],
                }
            },
            "tasks": ["symmetries", "biortho"],
        },
    }


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_report_file_equals_the_stdlib_encoder(tmp_path, name):
    report = run(parse_config(_scenarios()[name]), tmp_path)
    text = (tmp_path / "report.json").read_bytes().decode("utf-8")
    assert text == report_json_stdlib(report.to_dict())
    if name == "similar":  # the echo of r keeps the sign of its zero
        r = json.loads(text)["config_echo"]["hamiltonian"]["similar"]["r"]
        assert math.copysign(1.0, r[1][0][1]) == -1.0


def test_validate_prints_the_stdlib_layout(tmp_path, capsys):
    ones = {"name": "X", "matrix": [[1.0] * 12] * 12}
    doc = dict(_scenarios()["dense"], observables=["identity", ones])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == report_json_stdlib(load_config(path).echo)
    # the inline H is echoed by the file name run would write; validate writes none
    assert json.loads(out)["hamiltonian"] == {"npy": "hamiltonian.npy"}
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


def test_non_finite_generator_exits_three_without_writing(tmp_path, capsys, monkeypatch):
    original = nhdyn.scenario.gamma_symmetry_basis

    def poisoned(*args, **kwargs):
        basis = original(*args, **kwargs)
        generators = basis.generators.copy()
        generators[-1, -1, -1] = complex(1.0, np.inf)
        return dataclasses.replace(basis, generators=generators)

    monkeypatch.setattr(nhdyn.scenario, "gamma_symmetry_basis", poisoned)
    h, _ = _inline(6, "hermitian", 9)
    cfg = tmp_path / "scenario.json"
    doc = {"hamiltonian": h, "tasks": ["symmetries"]}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []

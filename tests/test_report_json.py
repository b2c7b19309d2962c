"""``report.json`` is ``json.dumps(indent=2, sort_keys=True)`` and a newline: one
written report is checked byte for byte, and the echo ``nhdyn validate`` prints is
``oracles.report_json_stdlib``. ``complex_to_json`` keeps a -0.0, and strict JSON
rejects a non-finite number, also inside an array, before any file is written.
"""

import dataclasses
import json

import numpy as np
import pytest

from oracles import report_json_stdlib

import nhdyn.scenario
from nhdyn.cli import main
from nhdyn.ensembles import random_hamiltonian, random_unit_vector
from nhdyn.scenario import _json_text, complex_to_json, load_config, parse_config, run

# every value exact: a diagonal H0 and a unit R, whose echo keeps the sign of its zero
SIMILAR = {
    "hamiltonian": {
        "similar": {"h0": [[1.0, 0.0], [0.0, 2.0]], "r": [[1.0, [0.0, -0.0]], [0.0, 1.0]]}
    },
    "tasks": ["symmetries", "biortho"],
}
SIMILAR_REPORT = """\
{
  "artifacts": [
    "symmetries.npy"
  ],
  "config_echo": {
    "eigenstate_k0": null,
    "hamiltonian": {
      "similar": {
        "h0": [
          [
            [
              1.0,
              0.0
            ],
            [
              0.0,
              0.0
            ]
          ],
          [
            [
              0.0,
              0.0
            ],
            [
              2.0,
              0.0
            ]
          ]
        ],
        "r": [
          [
            [
              1.0,
              0.0
            ],
            [
              0.0,
              -0.0
            ]
          ],
          [
            [
              0.0,
              0.0
            ],
            [
              1.0,
              0.0
            ]
          ]
        ]
      }
    },
    "initial_state": null,
    "observables": [],
    "seed": 42,
    "tasks": [
      "symmetries",
      "biortho"
    ],
    "time": {
      "points": 201,
      "t_end": 10.0,
      "t_start": 0.0
    },
    "tolerances": {
      "rank_tol_rel": 1e-10,
      "tol_class": 1e-08,
      "tol_distinct": 1e-08,
      "tol_trunc": 1e-12
    }
  },
  "tasks": {
    "biortho": {
      "biortho_residual": 0.0,
      "condition_estimate": 1.0,
      "eigenvalues": [
        [
          1.0,
          0.0
        ],
        [
          2.0,
          0.0
        ]
      ],
      "intertwining_residuals": [
        0.0,
        0.0
      ],
      "real_spectrum": true
    },
    "similar_construction": {
      "commutator_residual": 0.0,
      "hermiticity_defect": 0.0
    },
    "symmetries": {
      "chain_closure_dim": 2,
      "dimension": 2,
      "npy": "symmetries.npy",
      "residuals": [
        0.0,
        0.0
      ],
      "route": "eig"
    }
  }
}
"""


def test_writer_rejects_a_non_finite_number_inside_an_array():
    for bad in (np.nan, np.inf, -np.inf):
        stack = np.ones((3, 5, 5, 2))
        stack[2, 4, 3, 1] = bad
        with pytest.raises(ValueError):
            _json_text({"generators": stack.tolist()})


def test_written_report_is_these_bytes(tmp_path):
    run(parse_config(SIMILAR), tmp_path)
    assert (tmp_path / "report.json").read_bytes() == SIMILAR_REPORT.encode("utf-8")


def _inline(n, kind, seed):
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(n, rng, kind=kind)
    return complex_to_json(h), complex_to_json(random_unit_vector(n, rng))


def _dense():
    h, psi = _inline(12, "real_spectrum", 8)
    return {
        "hamiltonian": h,
        "initial_state": psi,
        "time": {"t_start": 0.0, "t_end": 2.0, "points": 41},
        "observables": ["identity", "H"],
        "tasks": ["trajectory", "classify", "biortho", "eigenstate_case"],
    }


def test_validate_prints_the_stdlib_layout(tmp_path, capsys):
    ones = {"name": "X", "matrix": [[1.0] * 12] * 12}
    doc = dict(_dense(), observables=["identity", ones])
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

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import csv_text_per_value

import nhdyn.cli
import nhdyn.eigenstate
import nhdyn.fermions
import nhdyn.flow
import nhdyn.gamma
import nhdyn.linalg
import nhdyn.scenario
from nhdyn.cli import main
from nhdyn.ensembles import random_hamiltonian, random_unit_vector
from nhdyn.errors import ConfigError
from nhdyn.linalg import _expm_exact
from nhdyn.scenario import (
    complex_to_json,
    emit_csv,
    load_config,
    parse_config,
    run,
)

MINIMAL_FERMION = {
    "hamiltonian": {"fermion_dm": {"lambda": 1.0, "mu": 1.0}},
    "initial_state": "011",
    "tasks": ["fermion_demo"],
}

NILPOTENT_JSON = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows)


class TestValidation:
    def test_points_below_two(self):
        doc = dict(MINIMAL_FERMION, time={"points": 1})
        with pytest.raises(ConfigError, match=r"time\.points must be >= 2"):
            parse_config(doc)

    def test_time_ordering(self):
        doc = dict(MINIMAL_FERMION, time={"t_start": 2.0, "t_end": 1.0})
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(doc)

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            parse_config(dict(MINIMAL_FERMION, extra=1))

    def test_non_square_hamiltonian(self):
        with pytest.raises(ConfigError, match="square"):
            parse_config({"hamiltonian": [[0.0, 1.0]], "tasks": ["symmetries"]})

    def test_bad_complex_entry(self):
        with pytest.raises(ConfigError, match=r"hamiltonian\[0\]\[1\]"):
            parse_config({"hamiltonian": [[0.0, [1.0]], [0.0, 0.0]], "tasks": ["symmetries"]})

    def test_occupation_label_requires_fermion_model(self):
        doc = {"hamiltonian": NILPOTENT_JSON, "initial_state": "01", "tasks": ["trajectory"]}
        with pytest.raises(ConfigError, match="occupation labels"):
            parse_config(doc)

    def test_initial_state_must_be_normalized(self):
        doc = {
            "hamiltonian": NILPOTENT_JSON,
            "initial_state": [1.0, 1.0],
            "tasks": ["trajectory"],
        }
        with pytest.raises(ConfigError, match="normalized"):
            parse_config(doc)

    def test_initial_state_of_another_dimension_exits_two(self, tmp_path, capsys):
        doc = {
            "hamiltonian": NILPOTENT_JSON,
            "initial_state": [1.0, 0.0, 0.0],
            "tasks": ["trajectory"],
        }
        with pytest.raises(ConfigError, match=r"^initial_state has dim 3, expected 2$"):
            parse_config(doc)
        assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 2

    def test_state_needed_by_tasks(self):
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config({"hamiltonian": NILPOTENT_JSON, "tasks": ["trajectory"]})

    def test_unknown_task(self):
        with pytest.raises(ConfigError, match=r"tasks\[0\]"):
            parse_config(dict(MINIMAL_FERMION, tasks=["plot"]))

    def test_builtin_number_operator_needs_fermion_model(self):
        doc = {
            "hamiltonian": NILPOTENT_JSON,
            "initial_state": [1.0, 0.0],
            "observables": ["N1"],
            "tasks": ["classify"],
        }
        with pytest.raises(ConfigError, match="fermion_dm"):
            parse_config(doc)

    def test_duplicate_observable_names(self):
        doc = dict(MINIMAL_FERMION, observables=["N", "N"])
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(doc)

    def test_tolerances_must_be_positive(self):
        doc = dict(MINIMAL_FERMION, tolerances={"tol_class": 0.0})
        with pytest.raises(ConfigError, match=r"tolerances\.tol_class"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("time", [0.0, 1.0], "time must be an object"),
            ("time", {"zeta": 1, "dt": 0.1}, "time has unknown fields ['dt', 'zeta']"),
            ("tolerances", "tight", "tolerances must be an object"),
            ("tolerances", {"tol": 1e-9}, "tolerances has unknown fields ['tol']"),
            ("fermion_dm", [1.0, 1.0], "hamiltonian.fermion_dm must be an object"),
            (
                "fermion_dm",
                {"lambda": 1.0, "nu": 2.0},
                "hamiltonian.fermion_dm has unknown fields ['nu']",
            ),
        ],
    )
    def test_config_object_errors_give_the_full_text(self, key, value, message):
        if key == "fermion_dm":
            doc = dict(MINIMAL_FERMION, hamiltonian={"fermion_dm": value})
        else:
            doc = dict(MINIMAL_FERMION, **{key: value})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([MINIMAL_FERMION], "config root must be a JSON object"),
            (dict(MINIMAL_FERMION, zeta=1, extra=2), "config has unknown fields ['extra', 'zeta']"),
            ({"extra": 1, "tasks": ["symmetries"]}, "config has unknown fields ['extra']"),
            (
                {"hamiltonian": [[0.0, 1.0], [0.0]], "tasks": ["symmetries"]},
                "hamiltonian[1] has 1 entries, expected 2",
            ),
            (
                {"hamiltonian": [[0.0, 1.0], 5.0], "tasks": ["symmetries"]},
                "hamiltonian[1] must be a non-empty list",
            ),
            (
                {"hamiltonian": [[], [0.0]], "tasks": ["symmetries"]},
                "hamiltonian[0] must be a non-empty list",
            ),
            (
                {"hamiltonian": [[0.0, 1.0], []], "tasks": ["symmetries"]},
                "hamiltonian[1] must be a non-empty list",
            ),
            (
                {"hamiltonian": [[0.0, 1.0], [0.0, "x"]], "tasks": ["symmetries"]},
                "hamiltonian[1][1] must be a finite real number or an [re, im] pair",
            ),
            (
                {"hamiltonian": NILPOTENT_JSON, "initial_state": [1.0, [0.0]],
                 "tasks": ["trajectory"]},
                "initial_state[1] must be a finite real number or an [re, im] pair",
            ),
            (
                {"hamiltonian": [[0.0, 1.0], [0.0, "x", 2.0]], "tasks": ["symmetries"]},
                "hamiltonian[1] has 3 entries, expected 2",
            ),
            (
                {"hamiltonian": [[0.0, 1.0]], "tasks": ["symmetries"]},
                "hamiltonian must be square, got shape (1, 2)",
            ),
            (
                {"hamiltonian": NILPOTENT_JSON, "tasks": ["symmetries"],
                 "observables": [{"name": "X", "matrix": np.eye(3).tolist()}]},
                "observables[0].matrix has dim 3, expected 2",
            ),
            (
                {"hamiltonian": NILPOTENT_JSON, "tasks": ["symmetries"],
                 "observables": [{"name": "X", "matrix": np.ones((3, 2)).tolist()}]},
                "observables[0].matrix must be square, got shape (3, 2)",
            ),
            (
                {"hamiltonian": NILPOTENT_JSON, "tasks": ["symmetries"], "observables": ["Q"]},
                "observables[0] unknown builtin 'Q'; use "
                "('identity', 'H', 'N', 'N1', 'N2', 'N3')",
            ),
            (
                {"hamiltonian": NILPOTENT_JSON, "tasks": ["symmetries"],
                 "observables": ["identity", "N1"]},
                "observables[1] builtin 'N1' needs a fermion_dm Hamiltonian",
            ),
            (
                {"hamiltonian": NILPOTENT_JSON, "initial_state": [1.0, 1.0],
                 "tasks": ["trajectory"]},
                "initial_state must be normalized, |initial_state| = 1.41421356237",
            ),
        ],
    )
    def test_config_error_texts(self, tmp_path, capsys, doc, message):
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == message
        assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 2
        assert capsys.readouterr().err == f"nhdyn: config error: {message}\n"

    def test_dimension_cap_from_environment(self, monkeypatch):
        # the cap is the fixed desk scale; no environment variable raises it
        monkeypatch.setenv("NHDYN_MAX_DIM", "100")
        doc = {"hamiltonian": np.zeros((65, 65)).tolist(), "tasks": ["symmetries"]}
        with pytest.raises(ConfigError, match="exceeds 64"):
            parse_config(doc)

    def test_defaults_materialized_in_echo(self):
        cfg = parse_config(MINIMAL_FERMION)
        assert cfg.echo["time"] == {"t_start": 0.0, "t_end": 10.0, "points": 201}
        assert cfg.echo["tolerances"]["tol_class"] == 1e-8
        assert cfg.echo["seed"] == 42
        assert cfg.echo["observables"] == []
        assert cfg.echo["initial_state"] == "011"


class TestCsvFormat:
    def test_seventeen_digit_round_trip(self, tmp_path):
        values = np.array([1 / 3, np.pi, 1e-17, 123456.789012345678])
        path = tmp_path / "out.csv"
        emit_csv(path, ["x"], [values])
        _, rows = read_csv(path)
        assert np.array_equal(rows[:, 0], values)

    def test_header_column_mismatch(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_csv(tmp_path / "x.csv", ["a", "b"], [np.array([1.0])])

    def test_mismatched_column_lengths(self, tmp_path):
        with pytest.raises(ConfigError, match=r"mismatched lengths \[1, 2\]"):
            emit_csv(tmp_path / "x.csv", ["a", "b"], [np.array([1.0]), np.zeros(2)])
        assert not (tmp_path / "x.csv").exists()

    def test_edge_values_match_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(51)
        randoms = rng.normal(size=10_000) * 10.0 ** rng.integers(-320, 300, size=10_000)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e-300,
                 1.7976931348623157e308, 0.1, 1 / 3, 2.0, 123456789012345678.0]
        columns = [randoms, randoms[::-1].copy()]
        cases = {
            "random": (["a", "b"], columns),
            "edges": (["v", "neg"], [np.array(edges), -np.array(edges)]),
            "bools": (["b", "i"], [np.array([True, False]), np.array([3, -7])]),
            "zero_rows": (["a", "b"], [np.zeros(0), np.zeros(0)]),
            "zero_columns": ([], []),
        }
        for name, (header, cols) in cases.items():
            path = tmp_path / f"{name}.csv"
            emit_csv(path, header, cols)
            assert path.read_bytes() == csv_text_per_value(header, cols).encode(), name

    @pytest.mark.parametrize("scenario", ["fermion", "dense"])
    def test_scenario_csvs_match_per_value_formatting(self, tmp_path, monkeypatch, scenario):
        if scenario == "fermion":
            doc = dict(MINIMAL_FERMION, observables=["N", "N1", "identity"],
                       tasks=["fermion_demo", "trajectory"])
        else:
            rng = np.random.default_rng(52)
            h = random_hamiltonian(16, rng, kind="complex_spectrum", basis_stretch=10.0)
            doc = {
                "hamiltonian": complex_to_json(h),
                "initial_state": complex_to_json(random_unit_vector(16, rng)),
                "observables": ["identity", "H"],
                "tasks": ["trajectory"],
            }
        written = []
        original = nhdyn.scenario.emit_csv

        def recording(path, header, columns):
            written.append((path, header, columns))
            original(path, header, columns)

        monkeypatch.setattr(nhdyn.scenario, "emit_csv", recording)
        run(parse_config(doc), tmp_path)
        assert len(written) == (2 if scenario == "fermion" else 1)
        for path, header, columns in written:
            assert path.read_bytes() == csv_text_per_value(header, columns).encode()


class TestRunner:
    def test_minimal_fermion_demo(self, tmp_path):
        cfg = parse_config(MINIMAL_FERMION)
        report = run(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "fermion_demo.csv")
        assert header == ["t", "n1", "n2", "n3", "sum", "scalar_re", "scalar_im"]
        assert rows.shape[0] == 201
        assert np.abs(rows[:, 4] - 2.0).max() <= 1e-11
        assert report.exit_status == 0
        assert report.tasks["fermion_demo"]["conservation_residual"] <= 1e-11

    def test_symmetries_task_on_inline_nilpotent(self, tmp_path):
        cfg = parse_config({"hamiltonian": NILPOTENT_JSON, "tasks": ["symmetries"]})
        report = run(cfg, tmp_path)
        section = report.tasks["symmetries"]
        assert section["dimension"] == 2
        assert max(section["residuals"]) <= 1e-12
        assert len(section["generators"]) == 2
        assert len(section["generators"][0]) == 2  # rows of a 2x2 complex matrix

    def test_trajectory_csv_columns_without_observables(self, tmp_path):
        doc = {
            "hamiltonian": NILPOTENT_JSON,
            "initial_state": [0.0, 1.0],
            "time": {"t_start": 0.0, "t_end": 2.0, "points": 21},
            "tasks": ["trajectory"],
        }
        run(parse_config(doc), tmp_path)
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "norm_sq"]
        t = rows[:, 0]
        assert np.abs(rows[:, 1] - (1 + t**2)).max() <= 1e-12

    def test_trajectory_csv_with_observable_means(self, tmp_path):
        doc = dict(
            MINIMAL_FERMION,
            observables=["N", "identity"],
            tasks=["trajectory"],
            time={"t_start": 0.0, "t_end": 5.0, "points": 11},
        )
        run(parse_config(doc), tmp_path)
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "norm_sq", "re_N", "im_N", "re_identity", "im_identity"]
        assert np.abs(rows[:, 2] - 2.0).max() <= 1e-11
        assert np.abs(rows[:, 3]).max() <= 1e-13
        assert np.abs(rows[:, 4] - 1.0).max() <= 1e-13

    def test_classify_section_flags_weak_integral(self, tmp_path):
        doc = dict(MINIMAL_FERMION, observables=["N", "identity"], tasks=["classify"])
        report = run(parse_config(doc), tmp_path)
        by_name = {r["name"]: r for r in report.tasks["classify"]["reports"]}
        assert by_name["N"]["in_c_psi_hat_weak"] is True
        assert by_name["N"]["in_c_psi_hat"] is False
        assert by_name["identity"]["in_c_psi_hat_weak"] is True

    def test_biortho_task_and_eigenstate_case(self, tmp_path):
        doc = {
            "hamiltonian": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
            "tasks": ["biortho", "eigenstate_case"],
            "time": {"t_start": 0.0, "t_end": 2.0, "points": 11},
        }
        report = run(parse_config(doc), tmp_path)
        bio = report.tasks["biortho"]
        assert bio["real_spectrum"] is True
        assert [e[0] for e in bio["eigenvalues"]] == pytest.approx([1.0, 2.0])
        assert max(bio["intertwining_residuals"]) <= 1e-10
        eig = report.tasks["eigenstate_case"]
        assert eig["series_vs_conjugation"] <= 1e-10
        assert eig["identity_mean_residual"] <= 1e-10

    def test_similar_hamiltonian_config(self, tmp_path):
        doc = {
            "hamiltonian": {
                "similar": {
                    "h0": [[1.0, 0.0], [0.0, 2.0]],
                    "r": [[2.0, 0.0], [0.0, 1.0]],
                }
            },
            "tasks": ["symmetries"],
        }
        report = run(parse_config(doc), tmp_path)
        assert report.tasks["similar_construction"]["commutator_residual"] == 0.0

    def test_report_written_and_relative_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL_FERMION)
        report = run(cfg, tmp_path)
        on_disk = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert on_disk == report.to_dict()
        assert on_disk["artifacts"] == ["fermion_demo.csv"]

    def test_byte_identical_reports_for_same_seed(self, tmp_path):
        doc = dict(
            MINIMAL_FERMION,
            tasks=["fermion_demo", "eigenstate_case", "classify"],
            observables=["N"],
        )
        run(parse_config(doc), tmp_path / "a")
        run(parse_config(doc), tmp_path / "b")
        assert (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()

    def test_echoed_config_reproduces_the_report(self, tmp_path):
        doc = dict(
            MINIMAL_FERMION,
            tasks=["fermion_demo", "eigenstate_case"],
            time={"t_start": 0.0, "t_end": 4.0, "points": 41},
        )
        first = run(parse_config(doc), tmp_path / "a")
        again = run(parse_config(first.config_echo), tmp_path / "b")
        assert first.to_json() == again.to_json()

    def test_each_run_evolves_the_initial_state_once(self, tmp_path, monkeypatch):
        calls = []
        original = nhdyn.flow.exact_trajectory

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # patch every name the library reaches the propagator through
        monkeypatch.setattr(nhdyn.flow, "exact_trajectory", counting)
        monkeypatch.setattr(nhdyn.fermions, "exact_trajectory", counting)
        doc = dict(
            MINIMAL_FERMION,
            observables=["N", "identity"],
            tasks=["trajectory", "classify", "fermion_demo"],
            time={"t_start": 0.0, "t_end": 4.0, "points": 41},
        )
        cfg = parse_config(doc)
        first = run(cfg, tmp_path / "a")
        assert len(calls) == 1
        # the trajectory does not depend on the seed, so another run reuses it
        second = run(cfg, tmp_path / "b", seed=7)
        assert len(calls) == 1
        assert first.tasks == second.tasks
        assert first.tasks["fermion_demo"]["scalar_residual"] <= 1e-11

    def test_biortho_and_eigenstate_case_share_one_eigensolve(self, tmp_path, monkeypatch):
        calls = []
        original = nhdyn.linalg.eig_general

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # patch every nhdyn namespace that binds the eigensolver
        bound = [
            m for name, m in sys.modules.items()
            if name.split(".")[0] == "nhdyn" and getattr(m, "eig_general", None) is original
        ]
        assert {m.__name__ for m in bound} >= {"nhdyn.biortho", "nhdyn.eigenstate", "nhdyn.scenario"}
        for module in bound:
            monkeypatch.setattr(module, "eig_general", counting)
        doc = {
            "hamiltonian": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.5, 1.0]]],
            "tasks": ["biortho", "eigenstate_case"],
            "time": {"t_start": 0.0, "t_end": 2.0, "points": 11},
        }
        cfg = parse_config(doc)
        first = run(cfg, tmp_path / "a")
        assert len(calls) == 1
        second = run(cfg, tmp_path / "b", seed=7)
        assert len(calls) == 1
        assert first.tasks["biortho"] == second.tasks["biortho"]

    def test_eigenstate_case_forms_one_exponential_per_time(self, tmp_path):
        # the witness and the probes share t_end; the probes alone take 0.5. Beside
        # them, phi_k0's H-orbit takes the step and 9 anchors of the default grid
        doc = {
            "hamiltonian": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.5, 1.0]]],
            "tasks": ["eigenstate_case"],
        }
        run(parse_config(doc), tmp_path)
        assert _expm_exact.cache_info().misses == 1 + 9 + 2

    @pytest.mark.parametrize("kind", ["hermitian", "real_spectrum", "complex_spectrum"])
    def test_eigenstate_section_does_not_depend_on_the_other_tasks(self, tmp_path, kind):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            h = random_hamiltonian(8, rng, kind=kind, basis_stretch=10.0)
            doc = {
                "hamiltonian": complex_to_json(h),
                "initial_state": complex_to_json(random_unit_vector(8, rng)),
            }
            alone, beside = (
                run(parse_config(dict(doc, tasks=tasks)), tmp_path / f"{seed}-{len(tasks)}")
                for tasks in (["eigenstate_case"], ["trajectory", "eigenstate_case"])
            )
            assert json.dumps(alone.tasks["eigenstate_case"]) == json.dumps(
                beside.tasks["eigenstate_case"]
            )

    def test_trajectory_section_reports_the_stepping_path(self, tmp_path):
        doc = dict(MINIMAL_FERMION, tasks=["trajectory"])
        section = run(parse_config(doc), tmp_path).tasks["trajectory"]
        assert 0.0 <= section["anchor_gap"] <= nhdyn.flow.STEP_TOL
        assert section["fallback_segments"] == 0

    def test_seed_override_changes_random_sections(self, tmp_path):
        doc = {
            "hamiltonian": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.5, 1.0]]],
            "tasks": ["eigenstate_case"],
        }
        rep1 = run(parse_config(doc), tmp_path / "a", seed=1)
        rep2 = run(parse_config(doc), tmp_path / "b", seed=2)
        assert (
            rep1.tasks["eigenstate_case"]["automorphism_witness"]
            != rep2.tasks["eigenstate_case"]["automorphism_witness"]
        )
        assert rep1.config_echo["seed"] == 1


class TestCli:
    def test_run_and_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_FERMION)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "report.json" in out

    def test_validation_failure_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(MINIMAL_FERMION, time={"points": 1}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "time.points must be >= 2" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        # the transfer Hamiltonian is nilpotent: biortho must refuse it
        doc = dict(MINIMAL_FERMION, tasks=["biortho"])
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        assert "collide" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "hamiltonian, t_end, shared",
        [
            # E = -380i: |Im E| t_end = 380 is past ORBIT_RANGE, and |psi|^2 of phi_k0's
            # H-orbit, e^{-760 t}, would underflow to 0 (exit 3 if it were read)
            ([[[0, -360], [0, 0]], [[0, 0], [0, -380]]], 1.0, False),
            # bottom E = -3i of a non-normal H, |Im E| t_end = 15: the orbit grows
            # relative to E, and phi_k0's H-orbit shares the trajectory's exponentials
            ([[[0, 0], [1, 0]], [[0, 0], [0, -3]]], 5.0, True),
        ],
        ids=["beyond-range", "growing-orbit"],
    )
    def test_eigenstate_orbit_shares_the_propagation_inside_the_float_range(
        self, tmp_path, capsys, monkeypatch, hamiltonian, t_end, shared
    ):
        doc = {
            "hamiltonian": hamiltonian,
            "initial_state": [[1, 0], [0, 0]],
            "time": {"t_end": t_end, "points": 11},
            "tasks": ["trajectory", "eigenstate_case"],
        }
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
        # the trajectory's step and its two anchors, which phi_k0's H-orbit finds in the
        # memo, then gamma_t at t_end and at 0.5. The shifted orbit stepped on the grid
        # takes its own step and anchors, and gamma_t finds its last anchor and, where
        # the step is dt = 0.5 (t_end = 5), its step as well
        stepped = 6 if shared else 7
        assert _expm_exact.cache_info().misses == (5 if shared else stepped)
        monkeypatch.setattr(nhdyn.eigenstate, "ORBIT_RANGE", -np.inf)  # always step
        _expm_exact.cache_clear()
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
        assert _expm_exact.cache_info().misses == stepped
        a, b = (json.loads((tmp_path / d / "report.json").read_bytes()) for d in "ab")
        case_a, case_b = a["tasks"].pop("eigenstate_case"), b["tasks"].pop("eigenstate_case")
        assert a == b
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
            tmp_path / "b" / "trajectory.csv"
        ).read_bytes()
        if shared:
            # the same orbit's roundoff, grown by e^{3 t} either way
            residuals = [case.pop("identity_mean_residual") for case in (case_a, case_b)]
            assert max(residuals) <= 1e-9
            assert case_a == case_b
        else:
            assert (tmp_path / "a" / "report.json").read_bytes() == (
                tmp_path / "b" / "report.json"
            ).read_bytes()

    def test_top_of_the_float_range_never_exits_one(self, tmp_path, capsys):
        # |H t| = 1e307: the nilpotent H has exp(-iHt) = 1 - iHt, finite, but a Pade term
        # overflows and its solve fails; that is a numerical failure, not a crash
        doc = {
            "hamiltonian": {"fermion_dm": {"lambda": 1.0, "mu": 1e307}},
            "initial_state": "010",
            "time": {"t_end": 1.0, "points": 2},
            "tasks": ["trajectory"],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg)]) == 0
        status = main(["run", "--config", str(cfg), "--out-dir", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        assert status in (0, 3)
        if status == 0:
            section = json.loads((out / "report.json").read_text())["tasks"]["trajectory"]
            assert np.isfinite(section["norm_sq_max"])

    def test_out_of_memory_exits_three_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(nhdyn.cli, "run", exhausted)
        cfg = write_config(tmp_path, MINIMAL_FERMION)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "nhdyn: numerical failure: out of memory\n"
        assert captured.out == ""

    @staticmethod
    def run_subprocess(tmp_path, doc, command="run"):
        cfg = write_config(tmp_path, doc)
        src = str(Path(nhdyn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        out = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
        return subprocess.run(
            [sys.executable, "-m", "nhdyn.cli", command, "--config", str(cfg), *out],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_complex_spectrum_run_leaves_stderr_empty(self, tmp_path):
        # the report records the complex spectrum; the process writes
        # nothing to stderr
        doc = {"hamiltonian": [[[0, 1], 1], [0, [0, -1]]], "tasks": ["biortho"]}
        done = self.run_subprocess(tmp_path, doc)
        assert done.returncode == 0
        assert done.stderr == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["tasks"]["biortho"]["real_spectrum"] is False

    def test_overflowing_run_prints_one_line(self, tmp_path):
        # the eigenstate case overflows at t = 100; numpy's RuntimeWarnings stay
        # off stderr, and the run still exits 3 with its one-line failure
        doc = {
            "hamiltonian": [[[0, 1], 0], [0, [0, -1]]],
            "initial_state": [1, 0],
            "tasks": ["trajectory", "eigenstate_case"],
            "time": {"t_end": 100},
        }
        done = self.run_subprocess(tmp_path, doc)
        assert done.returncode == 3
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("nhdyn: numerical failure:")

    @pytest.mark.parametrize(
        "r, command",
        [([[1, 0], [0, 1]], "validate"), ([[1, 0], [0, 1]], "run"), ([[1, 1], [0, 1]], "validate")],
        ids=["validate", "run", "validate-overflowing-commutator"],
    )
    def test_large_hermitian_seed_leaves_stderr_empty(self, tmp_path, r, command):
        # the Hermitian check of h0 overflows no norm; with a shear r the norm of
        # [H0, R^† R] overflows while the config loads, under the CLI's errstate
        similar = {"h0": [[1e200, 0], [0, 2]], "r": r}
        doc = {"hamiltonian": {"similar": similar}, "tasks": ["biortho"]}
        done = self.run_subprocess(tmp_path, doc, command)
        assert done.returncode == 0
        assert done.stderr == ""

    @pytest.mark.parametrize(
        "doc, validate_status, run_status",
        [
            (
                {
                    "hamiltonian": [[0, 1], [0, 0]],
                    "initial_state": [0, 1],
                    "time": {"t_end": 1e160, "points": 3},
                    "tasks": ["classify"],
                    "observables": ["identity"],
                },
                0,
                3,
            ),
            (
                {
                    "hamiltonian": {"fermion_dm": {"lambda": 1e160, "mu": 1}},
                    "initial_state": "011",
                    "tasks": ["classify"],
                    "observables": ["N"],
                },
                0,
                3,
            ),
            (
                {
                    "hamiltonian": {"fermion_dm": {"lambda": 1e160, "mu": 1}},
                    "initial_state": "011",
                    "time": {"t_end": 1e-10},
                    "tasks": ["fermion_demo"],
                },
                0,
                3,
            ),
            (
                {
                    "hamiltonian": {
                        "similar": {"h0": [[1e200, 1e190], [0, 2]], "r": [[1, 0], [0, 1]]}
                    },
                    "tasks": ["biortho"],
                },
                2,
                2,
            ),
        ],
        ids=["state-norm", "fermion-state-norm", "closed-form-coupling", "non-hermitian-seed"],
    )
    def test_overflowing_input_keeps_the_exit_contract(
        self, tmp_path, capsys, doc, validate_status, run_status
    ):
        # finite input whose intermediate norms or squares overflow: validate and
        # run agree on exit 2, and a run that fails numerically exits 3 and writes nothing
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg)]) == validate_status
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == run_status
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if run_status == 3:
            assert "non-finite" in err
        assert not out.exists() or list(out.iterdir()) == []

    def test_validate_prints_materialized_echo(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_FERMION)
        assert main(["validate", "--config", str(cfg)]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["time"]["points"] == 201
        assert echo["tolerances"]["rank_tol_rel"] == 1e-10

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["validate", "--config", str(missing)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    # json.dumps writes NaN and Infinity tokens, which json.loads accepts
    @pytest.mark.parametrize(
        "change, where",
        [
            ({"hamiltonian": [[float("nan"), 0.0], [0.0, 1.0]]}, "hamiltonian[0][0]"),
            ({"hamiltonian": [[[1.0, float("inf")], 0.0], [0.0, 1.0]]}, "hamiltonian[0][0]"),
            ({"hamiltonian": {"fermion_dm": {"lambda": float("nan")}}}, "fermion_dm"),
            ({"hamiltonian": {"fermion_dm": {"mu": float("inf")}}}, "fermion_dm"),
            ({"time": {"t_end": float("inf")}}, "time"),
            ({"time": {"t_start": float("-inf")}}, "time"),
            ({"time": {"points": float("inf")}}, "time"),
            ({"tolerances": {"tol_class": float("inf")}}, "tolerances.tol_class"),
            ({"tolerances": {"tol_trunc": float("nan")}}, "tolerances.tol_trunc"),
            ({"time": {"t_start": -1e308, "t_end": 1e308, "points": 3}}, "time span"),
        ],
    )
    def test_non_finite_input_exits_two(self, tmp_path, capsys, change, where):
        doc = dict(MINIMAL_FERMION, tasks=["trajectory"], **change)
        if isinstance(doc["hamiltonian"], list):
            doc["initial_state"] = [1.0, 0.0]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_seed_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(MINIMAL_FERMION, seed=-1))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_negative_seed_override_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_FERMION)
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--out-dir", str(out), "--seed", "-1"]
        assert main(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"time": {"points": 2.9}}, "time.points must be an integer"),
            ({"time": {"points": 201.0}}, "time.points must be an integer"),
            ({"time": {"points": "201"}}, "time.points must be an integer"),
            ({"time": {"points": True}}, "time.points must be an integer"),
            ({"time": {"points": 100_001}}, "time.points must be <= 100000"),
            ({"time": {"points": 10_000_000}}, "time.points must be <= 100000"),
            ({"time": {"t_end": "5"}}, "time fields must be finite numbers"),
            ({"time": {"t_start": True}}, "time fields must be finite numbers"),
            ({"time": {"t_end": 10**400}}, "time fields must be finite numbers"),
            ({"hamiltonian": {"fermion_dm": {"lambda": "2"}}}, "fermion_dm"),
            ({"hamiltonian": {"fermion_dm": {"mu": True}}}, "fermion_dm"),
            ({"hamiltonian": {"fermion_dm": {"mu": 10**400}}}, "fermion_dm"),
            ({"eigenstate_k0": 8}, "eigenstate_k0 must lie in [0, 7]"),
            ({"eigenstate_k0": -1}, "eigenstate_k0 must lie in [0, 7]"),
            ({"tolerances": {"rank_tol_rel": 2}}, "tolerances.rank_tol_rel must be below 1"),
            ({"time": {"t_start": -1e308, "t_end": 1e308}}, "time span t_end - t_start"),
        ],
    )
    def test_non_number_time_and_couplings_exit_two(
        self, tmp_path, capsys, change, message
    ):
        # validate parses exactly as run does, and never starts a job
        cfg = write_config(tmp_path, dict(MINIMAL_FERMION, **change))
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_time_bounds_beyond_int64_are_parsed_as_floats(self):
        start = -(2**63) - 1
        cfg = parse_config(dict(MINIMAL_FERMION, time={"t_start": start, "t_end": 0}))
        assert cfg.t_grid[0] == float(start)
        assert cfg.echo["time"]["t_start"] == float(start)

    def test_largest_grid_is_accepted(self):
        cfg = parse_config(dict(MINIMAL_FERMION, time={"points": 100_000}))
        assert cfg.t_grid.size == 100_000

    def test_integer_literal_beyond_float_range_exits_two(self, tmp_path, capsys):
        doc = {"hamiltonian": [[10**400, 0], [0, 1]], "tasks": ["symmetries"]}
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "hamiltonian[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\rb"])
    def test_csv_breaking_observable_name_exits_two(self, tmp_path, capsys, name):
        doc = {
            "hamiltonian": NILPOTENT_JSON,
            "initial_state": [1.0, 0.0],
            "observables": [{"name": name, "matrix": NILPOTENT_JSON}],
            "tasks": ["trajectory"],
        }
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "observables[0].name" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("below", [None, "sub"], ids=["file", "below-file"])
    def test_out_dir_at_or_below_a_file_exits_two(self, tmp_path, capsys, below):
        cfg = write_config(tmp_path, MINIMAL_FERMION)
        out = tmp_path / "blocker"
        out.write_text("", encoding="utf-8")
        if below:
            out = out / below
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe{", "cannot read config"),
            (b"[" * 100_000, "not valid JSON"),
        ],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_unreadable_config_bytes_exit_two(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "scenario.json"
        cfg.write_bytes(content)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_FERMION)
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_non_finite_report_exits_three_without_writing_it(self, tmp_path, capsys):
        # finite input whose symmetry residuals overflow to inf
        doc = {"hamiltonian": [[1e300, 1e300], [1e300, -1e300]], "tasks": ["symmetries"]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            status = main(["run", "--config", str(cfg), "--out-dir", str(out)])
        assert status == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_numerical_failure_writes_no_files(self, tmp_path, capsys):
        # |psi(400)|^2 = e^800 overflows although the state itself is finite
        doc = {
            "hamiltonian": [[[0, 1], 0], [0, 0]],
            "initial_state": [1, 0],
            "time": {"t_end": 400, "points": 5},
            "tasks": ["trajectory"],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            status = main(["run", "--config", str(cfg), "--out-dir", str(out)])
        assert status == 3
        assert "non-finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def test_load_config_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL_FERMION)
    cfg = load_config(cfg_path)
    assert cfg.initial_label == "011"
    assert cfg.t_grid.shape == (201,)

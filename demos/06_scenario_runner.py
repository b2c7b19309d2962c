"""
Declarative scenarios: JSON in, CSV and a reproducible report out
=================================================================

Every capability is also reachable without writing Python: a scenario
config names the Hamiltonian, initial state, grid, observables and
tasks. The same document drives the command line:

    nhdyn run --config scenario.json --out-dir out/
    nhdyn validate --config scenario.json

Reports are byte-stable for a fixed config and seed. Bulk results sit
beside report.json, which names them: CSV time series, the symmetry
generators as symmetries.npy and an inline Hamiltonian as hamiltonian.npy.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from nhdyn.scenario import load_config, run

scenario = {
    "hamiltonian": {"fermion_dm": {"lambda": 1.0, "mu": 1.0}},
    "initial_state": "011",
    "time": {"t_start": 0.0, "t_end": 10.0, "points": 201},
    "observables": ["N", "N1", "identity"],
    "tasks": ["fermion_demo", "classify", "symmetries", "trajectory"],
    "seed": 42,
}

with tempfile.TemporaryDirectory() as tmp:
    cfg_path = Path(tmp) / "scenario.json"
    cfg_path.write_text(json.dumps(scenario, indent=2), encoding="utf-8")

    cfg = load_config(cfg_path)
    report = run(cfg, Path(tmp) / "out")

    print("artifacts:", report.artifacts)
    print("echoed defaults:", report.config_echo["tolerances"])

    demo = report.tasks["fermion_demo"]
    print(f"conservation residual: {demo['conservation_residual']:.2e}")
    print(f"closed-form residual:  {demo['closed_form_residual']:.2e}")

    sym = report.tasks["symmetries"]
    print(f"symmetry space dimension: {sym['dimension']} "
          f"(worst residual {max(sym['residuals']):.1e})")
    generators = np.load(Path(tmp) / "out" / sym["npy"], allow_pickle=False)
    print(f"{sym['npy']}: shape {generators.shape}, dtype {generators.dtype}")

    for entry in report.tasks["classify"]["reports"]:
        print(f"{entry['name']:>8}: weak={entry['in_c_psi_hat_weak']} "
              f"operator={entry['in_c_psi_hat']} gamma={entry['in_c_gamma']}")

    csv_head = (Path(tmp) / "out" / "fermion_demo.csv").read_text().splitlines()[:3]
    print("\nfermion_demo.csv head:")
    for line in csv_head:
        print(" ", line)

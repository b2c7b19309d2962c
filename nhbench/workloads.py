"""The four benchmark workloads: how each job is built, run and checked.

A job is what one user waits for: one ``nhdyn run`` of a scenario file
(called in-process through ``nhdyn.cli.main``) or one library study
through the Python API. Inputs come from ``inputs.py``; nhdyn sees only
the generated configs and arrays. Calls into nhdyn go through module
attributes at call time, so wrappers installed by the tracer are seen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import warnings
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import nhdyn.biortho
import nhdyn.cli
import nhdyn.flow
import nhdyn.gamma

import calib
import inputs
from checks import ACC, Check, above, at_most, equal

TIME = {"t_start": 0.0, "t_end": 10.0, "points": 201}
T_GRID = np.linspace(TIME["t_start"], TIME["t_end"], TIME["points"])


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


class ScenarioJob:
    """One ``nhdyn run`` on a config file the benchmark wrote."""

    def __init__(self, config: dict, checker: Callable, workdir: Path):
        self.config = config
        self.checker = checker
        self.cfg_path = workdir / "scenario.json"
        self.out_dir = workdir / "out"
        self.report_path = self.out_dir / "report.json"

    def prepare(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.out_dir.iterdir():
            stale.unlink()
        self.cfg_path.write_text(json.dumps(self.config), encoding="utf-8")

    def run(self) -> int:
        argv = ["run", "--config", str(self.cfg_path), "--out-dir", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return nhdyn.cli.main(argv)

    def digest(self) -> str:
        """sha256 over report.json and the CSVs, by file name."""
        return _sha256_files(sorted(self.out_dir.iterdir()))

    def report_bytes(self) -> int:
        return self.report_path.stat().st_size

    def check(self) -> list[Check]:
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        return self.checker(report, self.out_dir)


# ---------------------------------------------------------------- checks


def _trajectory_checks(out_dir: Path) -> list[Check]:
    csv = _read_csv(out_dir / "trajectory.csv")
    gap = max(np.abs(csv["re_identity"] - 1.0).max(), np.abs(csv["im_identity"]).max())
    return [
        at_most("trajectory.initial_norm", abs(csv["norm_sq"][0] - 1.0), 1e-12, "tests/test_flow.py"),
        at_most("trajectory.identity_mean", gap, 1e-10, f"{ACC}#12"),
    ]


def _named(reports: list[dict], name: str) -> dict:
    return next(r for r in reports if r["name"] == name)


def _identity_checks(ident: dict, hermitian: bool) -> list[Check]:
    """Checks on the classification of the identity observable."""
    out = [at_most("classify.identity_weak", ident["c_psi_hat_weak_residual"], 1e-10, f"{ACC}#12")]
    if hermitian:
        out.append(at_most("classify.identity_gamma", ident["c_gamma_residual"], 1e-8, f"{ACC}#6"))
    else:
        out.append(above("classify.identity_not_operator", ident["c_psi_hat_residual"], 1e-3, f"{ACC}#12"))
    return out


def _biortho_checks(section: dict, built: inputs.Built) -> list[Check]:
    out = [
        at_most("biortho.residual", section["biortho_residual"], 1e-10, "README biorthogonality 1e-10"),
        equal("biortho.real_spectrum", section["real_spectrum"], built.real_spectrum, "README"),
    ]
    if built.real_spectrum:
        # S_psi intertwines H and H^† only when the spectrum is real
        bound = 1e-8 * section["condition_estimate"]
        out.append(at_most("biortho.intertwining", max(section["intertwining_residuals"]), bound, f"{ACC}#11"))
    return out


def _symmetry_checks(section: dict, h_norm: float, dimension: int) -> list[Check]:
    worst = max(section["residuals"], default=0.0)
    return [
        equal("symmetries.dimension", section["dimension"], dimension, "README complete enumeration"),
        at_most("symmetries.residual", worst, 1e-8 * h_norm, f"{ACC}#5"),
    ]


def _eigenstate_checks(section: dict) -> list[Check]:
    return [
        at_most("eigenstate.series_vs_conjugation", section["series_vs_conjugation"], 1e-10, "README 1e-10"),
    ]


# ---------------------------------------------------------------- workloads


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    mix: int  # a run ends on a multiple of this many jobs: a rotation of job kinds
    period: int  # jobs until every combination of kinds has run once
    make: Callable[[int, int, Path], object]  # (seed, job index, workdir) -> job
    setup_code: str  # what a user's fresh interpreter runs before any work
    probe: calib.Probe  # gauges the host at work like this workload's jobs


SCENARIO_SETUP = (
    "import sys; sys.path.insert(0, 'src'); import nhdyn.cli; "
    "from nhdyn.scenario import load_config; load_config(sys.argv[1])"
)


def make_fermion(seed: int, j: int, workdir: Path) -> ScenarioJob:
    rng = inputs.job_rng(seed, j)
    lam, mu = (float(x) for x in rng.uniform(0.5, 2.0, size=2))
    label = ("011", "010")[j % 2]
    config = {
        "hamiltonian": {"fermion_dm": {"lambda": lam, "mu": mu}},
        "initial_state": label,
        "time": TIME,
        "observables": ["N", "N1", "identity"],
        "tasks": ["fermion_demo", "trajectory", "classify", "symmetries", "eigenstate_case"],
        "seed": int(rng.integers(2**31)),
    }

    def checker(report: dict, out_dir: Path) -> list[Check]:
        tasks = report["tasks"]
        demo = _read_csv(out_dir / "fermion_demo.csv")
        ref = inputs.fermion_occupations(lam, mu, label, demo["t"])
        closed = max(np.abs(demo[k] - r).max() for k, r in zip(("n1", "n2", "n3"), ref))
        reports = tasks["classify"]["reports"]
        n_weak = _named(reports, "N")["c_psi_hat_weak_residual"]
        return [
            at_most("fermion.closed_form", closed, 1e-11, f"{ACC}#1"),
            at_most("fermion.sum_conservation", np.abs(demo["sum"] - demo["sum"][0]).max(), 1e-10, f"{ACC}#2"),
            at_most("classify.N_weak", n_weak, 1e-10, f"{ACC}#2"),
            *_trajectory_checks(out_dir),
            *_identity_checks(_named(reports, "identity"), hermitian=False),
            *_symmetry_checks(tasks["symmetries"], np.hypot(lam, mu), inputs.fermion_symmetry_dimension()),
            *_eigenstate_checks(tasks["eigenstate_case"]),
        ]

    return ScenarioJob(config, checker, workdir)


def make_dense(seed: int, j: int, workdir: Path) -> ScenarioJob:
    rng = inputs.job_rng(seed, j)
    kind = inputs.DENSE_KINDS[j % 3]
    built = inputs.build_hamiltonian(kind, 64, rng, stretch=(2.0, 10.0)[(j // 3) % 2])
    config = {
        "hamiltonian": inputs.matrix_json(built.h),
        "initial_state": inputs.vector_json(inputs.random_unit_vector(64, rng)),
        "time": TIME,
        "observables": ["identity", "H"],
        "tasks": ["trajectory", "classify", "biortho", "eigenstate_case"],
        "seed": int(rng.integers(2**31)),
    }

    def checker(report: dict, out_dir: Path) -> list[Check]:
        tasks = report["tasks"]
        return [
            *_trajectory_checks(out_dir),
            *_identity_checks(_named(tasks["classify"]["reports"], "identity"), hermitian=kind == "hermitian"),
            *_biortho_checks(tasks["biortho"], built),
            *_eigenstate_checks(tasks["eigenstate_case"]),
        ]

    return ScenarioJob(config, checker, workdir)


# N=24 is the common size, so the median job of a run falls inside the
# N=24 group instead of on an edge between sizes, where it would jump
# with the number of jobs a run completes. Spectra shift
# by one slot per rotation, so every size meets every spectrum within 25
# jobs and each rotation mixes three spectra at N=24.
SCAN_SIZES = (24, 16, 24, 32, 24)


def make_scan(seed: int, j: int, workdir: Path) -> ScenarioJob:
    rng = inputs.job_rng(seed, j)
    n = SCAN_SIZES[j % 5]
    kind = inputs.SCAN_SPECTRA[(j + j // 5) % 5]
    built = inputs.build_hamiltonian(kind, n, rng)
    tasks = ["symmetries"] + (["biortho"] if built.diagonalizable else [])
    config = {"hamiltonian": inputs.matrix_json(built.h), "tasks": tasks, "seed": 0}
    h_norm = float(np.linalg.norm(built.h, 2))

    def checker(report: dict, out_dir: Path) -> list[Check]:
        out = _symmetry_checks(report["tasks"]["symmetries"], h_norm, built.symmetry_dimension)
        if built.diagonalizable:
            out += _biortho_checks(report["tasks"]["biortho"], built)
        return out

    return ScenarioJob(config, checker, workdir)


class ApiJob:
    """One library study at N=16 through the Python API."""

    N = 16

    def __init__(self, seed: int, j: int):
        rng = inputs.job_rng(seed, j)
        self.kind = inputs.DENSE_KINDS[j % 3]
        self.built = inputs.build_hamiltonian(self.kind, self.N, rng)
        self.psi0 = inputs.random_unit_vector(self.N, rng)
        self.x = rng.normal(size=(self.N, self.N)) + 1j * rng.normal(size=(self.N, self.N))
        self.ensemble_seed = int(rng.integers(2**31))
        self.result: dict | None = None

    def prepare(self) -> None:
        self.result = None

    def run(self) -> int:
        h = self.built.h
        eye = np.eye(self.N, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj, deviation = nhdyn.flow.integrate_nonlinear(h, self.psi0, T_GRID, substeps=4)
            ens = nhdyn.flow.classify_ensemble(
                h, eye, T_GRID, 3, np.random.default_rng(self.ensemble_seed), name="identity"
            )
            ctx = nhdyn.gamma.gamma_context(h)
            series = {t: nhdyn.gamma.gamma_series(ctx, self.x, t)[0] for t in (0.5, 2.0)}
            conj = {t: nhdyn.gamma.gamma_t(ctx, self.x, t) for t in (0.5, 2.0)}
            system = nhdyn.biortho.build_biorthogonal(h)
            intertwining = nhdyn.biortho.verify_intertwining(system, h)
            rows = nhdyn.gamma.identity_norm_evolution(ctx, self.psi0, T_GRID)
        self.result = {
            "psi_hat": traj.psi_hat,
            "deviation": deviation,
            "ensemble": ens,
            "series": series,
            "conj": conj,
            "system": system,
            "intertwining": intertwining,
            "rows": rows,
        }
        return 0

    def digest(self) -> str:
        r = self.result
        hsh = hashlib.sha256()
        for a in (r["psi_hat"], r["rows"], r["system"].s_psi, *r["series"].values(), *r["conj"].values()):
            hsh.update(np.ascontiguousarray(a).tobytes())
        hsh.update(repr((r["deviation"], r["ensemble"], r["intertwining"])).encode())
        return hsh.hexdigest()

    def report_bytes(self) -> int:
        return 0

    def check(self) -> list[Check]:
        r = self.result
        h = self.built.h
        props = [scipy.linalg.expm(-1j * h * t) for t in T_GRID]
        psi = np.array([u @ self.psi0 for u in props])
        norm_sq = np.einsum("ij,ij->i", psi.conj(), psi).real
        psi_hat = psi / np.sqrt(norm_sq)[:, None]
        deviation = np.linalg.norm(r["psi_hat"] - psi_hat, axis=1).max()
        unit = np.abs(np.linalg.norm(r["psi_hat"], axis=1) - 1.0).max()
        norm_gap = (np.abs(r["rows"][:, 1] - norm_sq) / np.maximum(1.0, norm_sq)).max()
        series_gap = conj_gap = 0.0
        for t in (0.5, 2.0):
            ref = scipy.linalg.expm(1j * h.conj().T * t) @ self.x @ scipy.linalg.expm(-1j * h * t)
            series_gap = max(series_gap, np.linalg.norm(r["series"][t] - ref, 2))
            conj_gap = max(conj_gap, np.linalg.norm(r["conj"][t] - ref, 2))
        section = {
            "biortho_residual": r["system"].biortho_residual,
            "real_spectrum": r["system"].real_spectrum,
            "condition_estimate": r["system"].condition_estimate,
            "intertwining_residuals": list(r["intertwining"]),
        }
        return [
            at_most("integrate.deviation", deviation, 1e-7, "tests/test_flow.py"),
            at_most("integrate.unit_norm", unit, 1e-9, "tests/test_flow.py"),
            *_identity_checks(dataclasses.asdict(r["ensemble"]), hermitian=self.kind == "hermitian"),
            at_most("gamma.series_vs_conjugation", series_gap, 1e-10, f"{ACC}#4"),
            at_most("gamma.gamma_t_vs_conjugation", conj_gap, 1e-10, f"{ACC}#4"),
            at_most("gamma.norm_evolution", norm_gap, 1e-10, "tests/test_gamma.py"),
            *_biortho_checks(section, self.built),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fermion_report", 2, 2, make_fermion, SCENARIO_SETUP, calib.INTERPRETER),
        Workload("dense_dynamics", 6, 6, make_dense, SCENARIO_SETUP, calib.KERNEL),
        Workload("symmetry_scan", 5, 25, make_scan, SCENARIO_SETUP, calib.KERNEL),
        Workload(
            "api_sweep",
            3,
            3,
            lambda seed, j, workdir: ApiJob(seed, j),
            "import sys; sys.path.insert(0, 'src'); import nhdyn",
            calib.INTERPRETER,
        ),
    )
}

"""Declarative scenario configs, the batch runner, and report emission.

A scenario is a JSON document describing one Hamiltonian, an optional
initial state, a time grid, observables, tolerances and a set of tasks:

    {
      "hamiltonian": [[[0,0],[1,0]],[[0,0],[0,0]]]
                     | {"fermion_dm": {"lambda": 1.0, "mu": 1.0}}
                     | {"similar": {"h0": <matrix>, "r": <matrix>}},
      "initial_state": [<entry>, ...] | "011",
      "time": {"t_start": 0.0, "t_end": 10.0, "points": 201},
      "observables": ["identity", "N", {"name": "X", "matrix": <matrix>}],
      "tolerances": {"tol_class": 1e-8, "tol_trunc": 1e-12,
                     "rank_tol_rel": 1e-10, "tol_distinct": 1e-8},
      "tasks": ["trajectory", "symmetries", "classify",
                "eigenstate_case", "fermion_demo", "biortho"],
      "seed": 42,
      "eigenstate_k0": 0
    }

Matrix entries are complex numbers written as [re, im] pairs (bare reals
are accepted on input); every complex number in emitted JSON is a
[re, im] pair. Absent fields get the documented defaults and the echoed
config in the report always shows the materialized values, except that an
inline matrix Hamiltonian is echoed as ``{"npy": "hamiltonian.npy"}`` and
written to that file as an (N, N) ``complex128`` array. Reports are byte-stable
for a fixed config and seed and written by
``json.dumps(indent=2, sort_keys=True, allow_nan=False)``. Tasks hand bulk results
to ``run`` as artifacts, a writer per file name: CSV time series and
``symmetries.npy``, the (d, N, N) ``complex128`` generator stack; the report names
them. The Hamiltonian dimension is capped at MAX_DIM = 64, the desk scale the
package is built for.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import fermions, flow
from .biortho import DEFAULT_TOL_DISTINCT, build_biorthogonal, verify_intertwining
from .eigenstate import eigenstate_context, weak_identity_report
from .errors import ConfigError, NumericalError, NumericRangeError
from .gamma import (
    DEFAULT_TOL_TRUNC,
    gamma_context,
    gamma_symmetry_basis,
    similar_norm_preserving,
)
from .linalg import (
    DEFAULT_RANK_TOL, MAX_DIM, as_square_matrix, as_unit_vector, check_integer, check_tolerance,
    frob, is_number, mean_values,
)

DEFAULT_TOLERANCES = {
    "tol_class": flow.DEFAULT_TOL_CLASS,
    "tol_trunc": DEFAULT_TOL_TRUNC,
    "rank_tol_rel": DEFAULT_RANK_TOL,
    "tol_distinct": DEFAULT_TOL_DISTINCT,
}
DEFAULT_TIME = {"t_start": 0.0, "t_end": 10.0, "points": 201}
DEFAULT_COUPLINGS = {"lambda": 1.0, "mu": 1.0}
MAX_POINTS = 100_000
DEFAULT_SEED = 42
BUILTIN_OBSERVABLES = ("identity", "H", "N", "N1", "N2", "N3")
# every root field and its default; "hamiltonian" has none, parse_config requires it
DEFAULT_CONFIG = {
    "hamiltonian": None, "initial_state": None, "time": {}, "observables": [],
    "tolerances": {}, "tasks": None, "seed": DEFAULT_SEED, "eigenstate_k0": None,
}
STATE_TASKS = frozenset({"trajectory", "classify", "fermion_demo"})  # read cfg.trajectory


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path} {message}")


def _parse_entry(value, path: str, j: int) -> complex:
    """One complex entry, a real or an [re, im] pair; ``path[j]`` is built only on failure."""
    pair = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0)
    if all(is_number(v, real=True) for v in pair):
        return complex(*pair)
    raise _fail(f"{path}[{j}]", "must be a finite real number or an [re, im] pair")


def _as_pairs(value, depth: int) -> np.ndarray | None:
    """``value`` as a complex array if it nests lists ``depth`` deep to [re, im] pairs of
    finite ints and floats, else None. ``np.array`` also takes tuples, bools, strings and
    ints just past the float range; ``view`` keeps a -0.0 real part, ``re + 1j*im`` not."""
    try:
        a = np.array(value, float)
    except (TypeError, ValueError, OverflowError):  # non-numeric, ragged, huge ints
        return None
    if a.shape[depth:] != (2,) or not (abs(a) < sys.float_info.max).all():
        return None
    nested, types = [value], {type(value)}
    for _ in range(depth + 1):
        nested = [x for xs in nested for x in xs]
        types.update(map(type, nested))
    return a.view(complex)[..., 0] if types <= {list, int, float} else None


def _parse_matrix(value, path: str) -> np.ndarray:
    if (fast := _as_pairs(value, 2)) is not None:
        return fast
    if not isinstance(value, list) or not value:
        raise _fail(path, "must be a non-empty list of rows")
    rows = []
    for i, row in enumerate(value):
        # a ragged row reports its width before _parse_vector reaches its entries
        if i and isinstance(row, list) and 0 < len(row) != len(rows[0]):
            raise _fail(f"{path}[{i}]", f"has {len(row)} entries, expected {len(rows[0])}")
        rows.append(_parse_vector(row, f"{path}[{i}]"))
    return np.array(rows)


def _parse_vector(value, path: str) -> np.ndarray:
    if (fast := _as_pairs(value, 1)) is not None:
        return fast
    if not isinstance(value, list) or not value:
        raise _fail(path, "must be a non-empty list")
    return np.array([_parse_entry(v, path, j) for j, v in enumerate(value)], complex)


def complex_to_json(a) -> list:
    """A complex scalar, vector, matrix or stack of matrices as nested [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


@dataclass
class ScenarioConfig:
    """A validated scenario with all defaults materialized; its tasks share H's one eigensolve."""

    hamiltonian: np.ndarray
    initial_state: np.ndarray | None
    initial_label: str | None
    t_grid: np.ndarray
    observables: list[tuple[str, np.ndarray]]
    tolerances: dict[str, float]
    tasks: list[str]
    seed: int
    eigenstate_k0: int | None
    fermion_model: fermions.DmModel | None
    similar_commutator_residual: float | None
    echo: dict = field(repr=False)

    @cached_property
    def trajectory(self) -> flow.StateTrajectory:
        """The initial state evolved once and shared read-only."""
        return flow.exact_trajectory(self.hamiltonian, self.initial_state, self.t_grid)


def _validate_hamiltonian(raw, echo: dict):
    model = None
    commutator = None

    if isinstance(raw, dict) and set(raw) == {"fermion_dm"}:
        params = _fields(raw["fermion_dm"], "hamiltonian.fermion_dm", DEFAULT_COUPLINGS)
        try:
            model = fermions.build_dm_model(params["lambda"], params["mu"])
        except ConfigError as exc:
            raise _fail("hamiltonian.fermion_dm", "lambda and mu must be finite and > 0") from exc
        h = model.h
        echo["hamiltonian"] = {"fermion_dm": {"lambda": model.lam, "mu": model.mu}}
    elif isinstance(raw, dict) and set(raw) == {"similar"}:
        params = raw["similar"]
        if not isinstance(params, dict) or set(params) != {"h0", "r"}:
            raise _fail("hamiltonian.similar", "must be an object with fields h0 and r")
        h0 = _parse_matrix(params["h0"], "hamiltonian.similar.h0")
        r = _parse_matrix(params["r"], "hamiltonian.similar.r")
        try:
            built = similar_norm_preserving(h0, r)
        except (ConfigError, NumericalError) as exc:
            # a bad h0/r pair is a config problem, whatever raised it
            raise _fail("hamiltonian.similar", str(exc)) from exc
        h = built.h
        commutator = built.commutator_residual
        echo["hamiltonian"] = {
            "similar": {"h0": complex_to_json(h0), "r": complex_to_json(r)}
        }
    elif isinstance(raw, list):
        h = as_square_matrix(_parse_matrix(raw, "hamiltonian"), "hamiltonian")
        echo["hamiltonian"] = {"npy": "hamiltonian.npy"}  # run writes h to that file
    else:
        raise _fail(
            "hamiltonian",
            "must be a matrix, {'fermion_dm': ...} or {'similar': ...}",
        )

    if h.shape[0] > MAX_DIM:
        raise _fail("hamiltonian", f"dimension {h.shape[0]} exceeds {MAX_DIM}")
    return h, model, commutator


def _fields(raw, path: str, defaults: dict) -> dict:
    """The config object ``raw`` over ``defaults``, which name every field it may hold."""
    if not isinstance(raw, dict):
        raise _fail(path, "must be an object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise _fail(path, f"has unknown fields {sorted(unknown)}")
    return {**defaults, **raw}


def _validate_time(raw, echo: dict) -> np.ndarray:
    merged = _fields(raw, "time", DEFAULT_TIME)
    t_start, t_end, points = merged["t_start"], merged["t_end"], merged["points"]
    if not (is_number(t_start, real=True) and is_number(t_end, real=True)):
        raise _fail("time", "fields must be finite numbers")
    points = check_integer(points, "time.points", 2, MAX_POINTS)
    t_start, t_end = float(t_start), float(t_end)  # the grid's ends: ints beyond int64 too
    if not t_end > t_start:  # on the floats: 2**53 + 1 rounds to 2**53
        raise _fail("time.t_end", "must be greater than time.t_start")
    if not np.isfinite(t_end - t_start):  # linspace would overflow
        raise _fail("time", "span t_end - t_start must be finite")
    echo["time"] = {"t_start": t_start, "t_end": t_end, "points": points}
    return np.linspace(t_start, t_end, points)


def _validate_tolerances(raw, echo: dict) -> dict[str, float]:
    merged = _fields(raw, "tolerances", DEFAULT_TOLERANCES)
    for key, value in merged.items():
        merged[key] = check_tolerance(value, f"tolerances.{key}", key == "rank_tol_rel")
    echo["tolerances"] = dict(sorted(merged.items()))
    return merged


def _validate_observables(
    raw, echo: dict, h: np.ndarray, model: fermions.DmModel | None
) -> list[tuple[str, np.ndarray]]:
    if not isinstance(raw, list):
        raise _fail("observables", "must be a list")
    n = h.shape[0]
    builtins = {"identity": np.eye(n, dtype=complex), "H": h}
    if model is not None:
        ops = (model.number_total, *model.algebra.number_ops)
        builtins.update(zip(BUILTIN_OBSERVABLES[2:], ops))  # N, N1, N2, N3
    out: list[tuple[str, np.ndarray]] = []
    echoed = []
    seen: set[str] = set()
    for i, item in enumerate(raw):
        path = f"observables[{i}]"
        if isinstance(item, str):
            if item not in BUILTIN_OBSERVABLES:
                raise _fail(path, f"unknown builtin {item!r}; use {BUILTIN_OBSERVABLES}")
            if item not in builtins:
                raise _fail(path, f"builtin {item!r} needs a fermion_dm Hamiltonian")
            name, matrix = item, builtins[item]
            echoed.append(item)
        elif isinstance(item, dict) and set(item) == {"name", "matrix"}:
            name = item["name"]
            if not isinstance(name, str) or not name:
                raise _fail(f"{path}.name", "must be a non-empty string")
            if set(name) & set(',"\n\r'):
                raise _fail(
                    f"{path}.name", "must not contain a comma, quote or line break"
                )
            where = f"{path}.matrix"
            matrix = as_square_matrix(_parse_matrix(item["matrix"], where), where, n)
            echoed.append({"name": name, "matrix": complex_to_json(matrix)})
        else:
            raise _fail(path, "must be a builtin name or {'name', 'matrix'}")
        if name in seen:
            raise _fail(path, f"duplicate observable name {name!r}")
        seen.add(name)
        out.append((name, matrix))
    echo["observables"] = echoed
    return out


def _validate_initial_state(raw, echo: dict, h: np.ndarray, model: fermions.DmModel | None):
    if raw is None:
        echo["initial_state"] = None
        return None, None
    if isinstance(raw, str):
        if model is None:
            raise _fail(
                "initial_state",
                "occupation labels need a fermion_dm Hamiltonian",
            )
        occ = fermions.parse_occupation_label(raw, model.algebra.n_modes)
        echo["initial_state"] = "".join(str(b) for b in occ)
        return model.algebra.basis_state(occ), echo["initial_state"]
    vec = as_unit_vector(_parse_vector(raw, "initial_state"), h.shape[0], 1e-12, "initial_state")
    echo["initial_state"] = complex_to_json(vec)
    return vec, None


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a raw config document and materialize defaults.

    ``time.points``, ``seed`` and ``eigenstate_k0`` follow ``check_integer``, the
    tolerances and couplings ``check_tolerance``, and the other ``time`` fields and every
    matrix and state entry (or part of an [re, im] pair) ``is_number`` with ``real=True``:
    numpy scalars pass, bools and strings do not.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    fields = _fields(doc, "config", DEFAULT_CONFIG)
    if "hamiltonian" not in doc:
        raise _fail("hamiltonian", "is required")

    echo: dict[str, Any] = {}
    h, model, commutator = _validate_hamiltonian(fields["hamiltonian"], echo)
    t_grid = _validate_time(fields["time"], echo)
    tolerances = _validate_tolerances(fields["tolerances"], echo)
    observables = _validate_observables(fields["observables"], echo, h, model)
    initial, label = _validate_initial_state(fields["initial_state"], echo, h, model)

    raw_tasks = fields["tasks"]
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise _fail("tasks", "must be a non-empty list")
    tasks = []
    for i, task in enumerate(raw_tasks):
        if task not in KNOWN_TASKS:
            raise _fail(f"tasks[{i}]", f"unknown task {task!r}; use {KNOWN_TASKS}")
        if task not in tasks:
            tasks.append(task)
    echo["tasks"] = tasks

    echo["seed"] = seed = check_integer(fields["seed"], "seed", 0)

    k0 = fields["eigenstate_k0"]
    if k0 is not None:
        k0 = check_integer(k0, "eigenstate_k0", 0, h.shape[0] - 1)
    echo["eigenstate_k0"] = k0

    needs_state = STATE_TASKS & set(tasks)
    if needs_state and initial is None:
        raise _fail(
            "initial_state", f"is required by tasks {sorted(needs_state)}"
        )
    if "fermion_demo" in tasks and (model is None or label is None):
        raise _fail(
            "tasks",
            "fermion_demo needs a fermion_dm Hamiltonian and an occupation label",
        )

    return ScenarioConfig(
        hamiltonian=h,
        initial_state=initial,
        initial_label=label,
        t_grid=t_grid,
        observables=observables,
        tolerances=tolerances,
        tasks=tasks,
        seed=seed,
        eigenstate_k0=k0,
        fermion_model=model,
        similar_commutator_residual=commutator,
        echo=echo,
    )


def load_config(path) -> ScenarioConfig:
    """Read and validate a JSON scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _json_text(doc) -> str:
    """The report layout; a NaN or infinity raises ``ValueError``."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def emit_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write aligned columns as UTF-8 CSV with 17 significant digits."""
    rows = {len(c) for c in columns}
    if len(rows) > 1:
        raise ConfigError(f"csv columns have mismatched lengths {sorted(rows)}")
    if len(header) != len(columns):
        raise ConfigError("csv header and column counts differ")
    # one %-pass over all values; 17 significant digits round-trip every float
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    values = np.column_stack(columns).astype(float).ravel().tolist() if columns else []
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row * (rows.pop() if rows else 0) % tuple(values))


@dataclass
class RunReport:
    """Materialized results of one scenario run."""

    config_echo: dict
    tasks: dict
    artifacts: list[str]

    def to_dict(self) -> dict:
        return {"config_echo": self.config_echo, "tasks": self.tasks, "artifacts": self.artifacts}

    def to_json(self) -> str:
        return _json_text(self.to_dict())  # a non-finite float raises ValueError


def _task_trajectory(cfg: ScenarioConfig, artifacts: dict, rng) -> dict:
    traj = cfg.trajectory
    header = ["t", "norm_sq"]
    columns = [traj.t_grid, traj.norm_sq]
    for name, matrix in cfg.observables:
        means = mean_values(matrix, traj.psi_hat)
        header += [f"re_{name}", f"im_{name}"]
        columns += [means.real, means.imag]
    artifacts["trajectory.csv"] = lambda path: emit_csv(path, header, columns)
    return {
        "csv": "trajectory.csv",
        "norm_sq_initial": float(traj.norm_sq[0]),
        "norm_sq_final": float(traj.norm_sq[-1]),
        "norm_sq_max": float(traj.norm_sq.max()),
        "anchor_gap": traj.anchor_gap,
        "anchor_route": traj.anchor_route,
        "fallback_segments": traj.fallback_segments,
    }


def _task_biortho(cfg: ScenarioConfig, artifacts: dict, rng) -> dict:
    system = build_biorthogonal(cfg.hamiltonian, tol_distinct=cfg.tolerances["tol_distinct"])
    r_psi, r_phi = verify_intertwining(system, cfg.hamiltonian)
    return {
        "eigenvalues": complex_to_json(system.eigenvalues),
        "real_spectrum": system.real_spectrum,
        "biortho_residual": system.biortho_residual,
        "condition_estimate": system.condition_estimate,
        "intertwining_residuals": [r_psi, r_phi],
    }


def _task_symmetries(cfg: ScenarioConfig, artifacts: dict, rng) -> dict:
    basis = gamma_symmetry_basis(gamma_context(cfg.hamiltonian), cfg.tolerances["rank_tol_rel"])
    stack = basis.generators  # (d, N, N), also for d = 0
    if not np.isfinite(stack).all():
        raise NumericRangeError("symmetry generators hold a non-finite number")
    artifacts["symmetries.npy"] = lambda path: np.save(path, stack, allow_pickle=False)
    return {
        "dimension": len(stack),
        "chain_closure_dim": basis.chain_closure_dim,
        "residuals": basis.residuals,
        "route": basis.route,
        "npy": "symmetries.npy",
    }


def _task_classify(cfg: ScenarioConfig, artifacts: dict, rng) -> dict:
    tol, reports = cfg.tolerances["tol_class"], []
    for name, matrix in cfg.observables:
        rep = asdict(flow.classify(cfg.hamiltonian, matrix, cfg.trajectory, tol, name))
        del rep["observable_name"], rep["tol_class"]  # given as "name", and once per section
        reports.append({"name": name, **rep})
    return {"tol_class": tol, "reports": reports}


def _task_eigenstate(cfg: ScenarioConfig, artifacts: dict, rng) -> dict:
    ctx = eigenstate_context(cfg.hamiltonian, cfg.eigenstate_k0)
    report = weak_identity_report(ctx, cfg.t_grid, rng, cfg.tolerances["tol_trunc"])
    return {"k0": ctx.k0, "eigenvalue": complex_to_json(ctx.e_value), **asdict(report)}


def _task_fermion_demo(cfg: ScenarioConfig, artifacts: dict, rng) -> dict:
    model = cfg.fermion_model
    assert model is not None and cfg.initial_label is not None
    # parse_config built initial_state as the label's basis state of this model
    run = fermions.occupations(model, cfg.trajectory)
    header = ["t", "n1", "n2", "n3", "sum", "scalar_re", "scalar_im"]
    columns = [run.t_grid, run.n1, run.n2, run.n3, run.total, run.scalar.real, run.scalar.imag]
    artifacts["fermion_demo.csv"] = lambda path: emit_csv(path, header, columns)
    section = {
        "csv": "fermion_demo.csv",
        "total_initial": float(run.total[0]),
        "conservation_residual": float(np.max(np.abs(run.total - run.total[0]))),
        "closed_form_residual": None,
        "scalar_residual": None,
    }
    try:
        ref = fermions.closed_form_occupations(model, cfg.initial_label, run.t_grid)
        section["closed_form_residual"] = float(
            max(np.max(np.abs(n - r)) for n, r in zip((run.n1, run.n2, run.n3), ref))
        )
        scalar = fermions.closed_form_scalar(model, cfg.initial_label, run.t_grid)
        section["scalar_residual"] = float(np.max(np.abs(run.scalar - scalar)))
    except ConfigError:
        pass  # no closed form for this label; numbers stand on their own
    return section


# Every task takes (config, artifacts, rng) and returns its report section; a
# section that names a "csv" or "npy" file put that file's writer into artifacts.
TASKS = {
    "trajectory": _task_trajectory,
    "symmetries": _task_symmetries,
    "classify": _task_classify,
    "eigenstate_case": _task_eigenstate,
    "fermion_demo": _task_fermion_demo,
    "biortho": _task_biortho,
}
KNOWN_TASKS = tuple(TASKS)


def run(cfg: ScenarioConfig, out_dir, seed: int | None = None) -> RunReport:
    """Execute the requested tasks and write their artifacts plus report.json.

    ``seed``, an integer >= 0 like the config's, overrides it for the random
    ingredients (eigenstate-case probes). Artifact paths in the report are relative
    to ``out_dir``. No file is written before the report has serialized.
    """
    effective_seed = cfg.seed if seed is None else check_integer(seed, "seed", 0)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    echo = dict(cfg.echo)
    echo["seed"] = effective_seed
    rng = np.random.default_rng(effective_seed)

    artifacts: dict[str, Callable[[Path], object]] = {}  # file name -> writer of that path
    if name := echo["hamiltonian"].get("npy"):  # an inline matrix, echoed by file name
        artifacts[name] = lambda path: np.save(path, cfg.hamiltonian, allow_pickle=False)
    sections: dict[str, Any] = {}
    if cfg.similar_commutator_residual is not None:
        sections["similar_construction"] = {
            "commutator_residual": cfg.similar_commutator_residual,
            "hermiticity_defect": frob(cfg.hamiltonian - cfg.hamiltonian.conj().T),
        }

    for task in cfg.tasks:
        sections[task] = TASKS[task](cfg, artifacts, rng)

    report = RunReport(config_echo=echo, tasks=sections, artifacts=list(artifacts))
    try:  # strict JSON: a non-finite float raises before any file is written
        text = report.to_json()
    except ValueError as exc:
        raise NumericRangeError(f"report holds a non-finite number: {exc}") from exc
    artifacts["report.json"] = lambda path: path.write_text(text, encoding="utf-8")
    for name, write in artifacts.items():  # report.json last
        try:
            write(out / name)
        except OSError as exc:
            raise ConfigError(f"cannot write {name} in {out}: {exc}") from exc
    return report

"""Run one nhdyn benchmark workload and print its metrics.

    python3 nhbench/run.py --workload fermion_report --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; nhdyn is imported from ``src/``. The
run is one process with one closed-loop client: each job starts when
the previous one has ended and been checked. BLAS runs on one thread
(set below, before numpy loads) because on a small shared machine extra
OpenBLAS threads measure the scheduler rather than nhdyn.

``--trace 0`` times jobs untraced and prints the end-to-end metrics,
normalized to a reference host speed gauged around every job and every
cold start (see ``calib.py``); the wall-clock figures go to result.json.
``--trace 1`` runs every job twice, untraced and traced in alternating
order, and prints per-layer metrics per traced job: times over all
traced jobs, counts over the first full cycle of job kinds. Both modes
run until ``--seconds`` have passed and a rotation of job kinds is
complete, so every run holds the same mix. Every earlier stdout line is for people; the
last line is one JSON object with ``correct``, ``attempted`` (jobs),
``failed`` (jobs that raised, exited non-zero or failed a check not
listed in ``checks.KNOWN_FAILURES``) and ``metrics``. A fuller result,
with per-check counts, quartiles and provenance, goes to
``.nhbench_out/<workload>-s<seed>-t<trace>/result.json``.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import calib  # noqa: E402
from checks import Check, Tally, job_failed  # noqa: E402
from stats import quartiles, tail  # noqa: E402
from tracer import LAYERS, Tracer, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".nhbench_out"
SETUP_REPEATS = 5
SETUP_GAUGE_CODE = "import numpy, scipy.linalg"
SETUP_GAUGE_REF_S = 0.6  # about its median on the machine calib.py names
PROBE_SHARE = 0.1
PROBES_MIN, PROBES_MAX = 3, 20
WARMUP_JOB = 999_999  # an index no timed job reaches

# Times are normalized to a reference host speed (calib.py); the wall
# clock figures go to result.json beside them. job_tail_ms is printed and
# stored in result.json but not bounded: its ten-seed spread reached 0.105
# of the median, above a third of the 0.24 bound the job times carry.
END_TO_END = {
    "job_p50_ms": "ms",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span names summed, field: 0 calls / 1 self ns)
SPAN_METRICS = {
    "linalg.expm.calls": ("count", ("linalg.expm",), 0),
    "linalg.expm.self_ms": ("ms", ("linalg.expm",), 1),
    "linalg.op_norm.calls": ("count", ("linalg.op_norm",), 0),
    "linalg.op_norm.self_ms": ("ms", ("linalg.op_norm",), 1),
    "linalg.nullspace.self_ms": ("ms", ("linalg.nullspace",), 1),
    "linalg.eig_general.calls": ("count", ("linalg.eig_general",), 0),
    "linalg.eig_general.self_ms": ("ms", ("linalg.eig_general",), 1),
    "biortho.build_biorthogonal.self_ms": ("ms", ("biortho.build_biorthogonal",), 1),
    "linalg.validate.calls": (
        "count",
        ("linalg.as_complex_matrix", "linalg.as_square_matrix", "linalg.as_state_vector"),
        0,
    ),
    "flow.exact_trajectory.calls": ("count", ("flow.exact_trajectory",), 0),
    "flow.exact_trajectory.self_ms": ("ms", ("flow.exact_trajectory",), 1),
    "flow.classify.self_ms": ("ms", ("flow.classify",), 1),
    "flow.integrate_nonlinear.self_ms": ("ms", ("flow.integrate_nonlinear",), 1),
    "gamma.gamma_symmetry_basis.self_ms": ("ms", ("gamma.gamma_symmetry_basis",), 1),
    "eigenstate.weak_identity_report.self_ms": ("ms", ("eigenstate.weak_identity_report",), 1),
    "scenario.parse_config.self_ms": ("ms", ("scenario.parse_config",), 1),
    "scenario.to_json.self_ms": ("ms", ("scenario.RunReport.to_json",), 1),
    "scenario.emit_csv.self_ms": ("ms", ("scenario.emit_csv",), 1),
}
COUNTER_METRICS = {
    "linalg.nullspace.kron_bytes": "B",
    "gamma.gamma_series.terms": "count",
    "scenario.report_bytes": "B",
    "flow.trajectory_reuse": "ratio",
}


def _per_layer_units() -> dict[str, str]:
    units = {name: spec[0] for name, spec in SPAN_METRICS.items()}
    units.update(COUNTER_METRICS)
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.calls"] = "count"
    units["trace.overhead_frac"] = "ratio"
    units["fail_frac"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _openblas_threads() -> dict:
    """Threads each bundled OpenBLAS reports, read through its own symbol."""
    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    found[pkg.__name__] = fn()
                    break
    return found


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "nhdyn").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    blas = {
        pkg.__name__: pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        for pkg in (numpy, scipy)
    }
    return {
        "nhdyn_commit": _git_commit(),
        "nhdyn_src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure_setup(workload, cfg_path: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters doing a user's cold start.

    Cold starts alternate with fresh interpreters that import only numpy
    and scipy.linalg (``SETUP_GAUGE_CODE``), which gauge the host's speed
    at that kind of work; each cold start is scaled by the mean of the
    gauges on either side of it to a host where the gauge takes
    ``SETUP_GAUGE_REF_S``. One untimed cold start runs first (it may
    compile bytecode). Returns (wall seconds, seconds at the reference
    speed).
    """
    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(cfg_path)], cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL
        )
        return time.perf_counter() - t0

    wall(workload.setup_code)
    walls, normalized = [], []
    before = wall(SETUP_GAUGE_CODE)
    for _ in range(SETUP_REPEATS):
        walls.append(wall(workload.setup_code))
        after = wall(SETUP_GAUGE_CODE)
        normalized.append(walls[-1] * SETUP_GAUGE_REF_S / ((before + after) / 2))
        before = after
    return walls, normalized


def probe_repeats(job_ns: int, probe: calib.Probe, slowdown: float) -> int:
    """Probe repeats per gauge: about ``PROBE_SHARE`` of the last job's time."""
    per_repeat = probe.ref_ms * slowdown
    return min(max(round(PROBE_SHARE * job_ns / 1e6 / per_repeat), PROBES_MIN), PROBES_MAX)


def run_job(job) -> tuple[int, int]:
    """Run one prepared job; return (exit status, wall ns). Raising is status -1."""
    t0 = time.perf_counter_ns()
    try:
        status = job.run()
    except (Exception, SystemExit):
        status = -1
    return status, time.perf_counter_ns() - t0


def warm_up(workload, seed: int, jobdir: Path) -> None:
    """One untimed job first, so lazy imports and first-call set-up are done."""
    job = workload.make(seed, WARMUP_JOB, jobdir)
    job.prepare()
    run_job(job)


def check_job(job, status: int) -> list[Check]:
    if status != 0:
        return [job_failed()]
    try:
        return job.check()
    except (OSError, ValueError, KeyError, TypeError, StopIteration):
        return [job_failed("job.outputs_readable")]


def untraced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    jobdir = workdir / "job"
    first = workload.make(seed, 0, jobdir)
    setup_cfg = workdir / "setup" / "scenario.json"
    setup_cfg.parent.mkdir(parents=True)
    setup_cfg.write_text(json.dumps(getattr(first, "config", {})), encoding="utf-8")
    setup, setup_norm = measure_setup(workload, setup_cfg)

    warm_up(workload, seed, jobdir)

    tally = Tally(workload.name)
    times: list[int] = []
    norm_ms: list[float] = []
    slowdowns: list[float] = []
    failed = 0
    cycle = hashlib.sha256()
    before = calib.gauge(workload.probe, PROBES_MIN)
    start = time.perf_counter()
    j = 0
    while j % workload.mix or time.perf_counter() - start < seconds:
        job = workload.make(seed, j, jobdir)
        job.prepare()
        status, ns = run_job(job)
        after = calib.gauge(workload.probe, probe_repeats(ns, workload.probe, before))
        norm_ms.append(calib.normalize(ns / 1e6, before, after))
        slowdowns.append(after)
        before = after
        failed += tally.add(check_job(job, status))
        times.append(ns)
        if j < workload.period and status == 0:
            cycle.update(job.digest().encode())
        j += 1

    ms = [t / 1e6 for t in times]
    q1, p50, q3 = quartiles(norm_ms)
    tail_ms, tail_pct = tail(norm_ms)
    completed = len(times) - failed
    values = {
        "job_p50_ms": p50,
        "jobs_per_s": completed / (sum(norm_ms) / 1e3),
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "jobs": len(times),
            "job_ms_quartiles": [q1, p50, q3],
            "job_ms": norm_ms,
            "job_tail_ms": tail_ms,
            "job_tail_percentile": tail_pct,
            "setup_s_samples": setup_norm,
            "wall": {
                "job_p50_ms": statistics.median(ms),
                "job_tail_ms": tail(ms)[0],
                "jobs_per_s": completed / (sum(times) / 1e9),
                "setup_s": statistics.median(setup),
                "job_ms": ms,
                "setup_s_samples": setup,
            },
            "probe": {
                "name": workload.probe.name,
                "reference_ms": workload.probe.ref_ms,
                "median_slowdown": statistics.median(slowdowns),
                "slowdown_after_each_job": slowdowns,
            },
            "fail_frac": tally.fail_frac,
            "checks_attempted": tally.attempted,
            "checks_failed": tally.failed,
            "checks": tally.breakdown(),
            "outputs_sha256": cycle.hexdigest(),
            "outputs_sha256_jobs": min(j, workload.period),
        },
    }


def layer_values(totals: dict, counters: dict, n: int) -> dict[str, float]:
    """Per-job means of the span and counter metrics over ``n`` traced jobs."""
    values: dict[str, float] = {}
    for name, (_, spans, field) in SPAN_METRICS.items():
        total = sum(totals.get(s, [0, 0, 0])[field] for s in spans)
        values[name] = total / n / (1e6 if field == 1 else 1)
    calls = totals.get("flow.exact_trajectory", [0])[0]
    values["flow.trajectory_reuse"] = counters["distinct"] / calls if calls else 0.0
    values["linalg.nullspace.kron_bytes"] = counters["kron_bytes"] / n
    values["gamma.gamma_series.terms"] = counters["gamma_series_terms"] / n
    values["scenario.report_bytes"] = counters["report_bytes"] / n
    for layer in LAYERS:
        rows = [row for name, row in totals.items() if name.split(".")[0] == layer]
        values[f"{layer}.self_ms"] = sum(r[1] for r in rows) / n / 1e6
        values[f"{layer}.calls"] = sum(r[0] for r in rows) / n
    return values


def traced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    jobdir = workdir / "job"
    warm_up(workload, seed, jobdir)

    tracer = Tracer()
    tally = Tally(workload.name)
    plain_ns: list[int] = []
    traced_ns: list[int] = []
    totals: dict[str, list[int]] = {}
    counters = {"kron_bytes": 0, "gamma_series_terms": 0, "report_bytes": 0, "distinct": 0}
    kept_spans: list[list] = []
    failed = 0
    start = time.perf_counter()
    j = 0
    while j < workload.period or j % workload.mix or time.perf_counter() - start < seconds:
        job = workload.make(seed, j, jobdir)
        digests = {}
        for with_trace in ((False, True) if j % 2 == 0 else (True, False)):
            job.prepare()
            if with_trace:
                tracer.reset()
                tracer.install()
                try:
                    status, ns = run_job(job)
                finally:
                    tracer.uninstall()
                traced_ns.append(ns)
                for name, row in summarize(tracer.spans).items():
                    acc = totals.setdefault(name, [0, 0, 0])
                    for k in range(3):
                        acc[k] += row[k]
                for key in ("kron_bytes", "gamma_series_terms"):
                    counters[key] += tracer.counters[key]
                counters["distinct"] += len(tracer.counters["trajectory_inputs"])
                if j < workload.period:
                    kept_spans += [[j, *s] for s in tracer.spans]
            else:
                status, ns = run_job(job)
                plain_ns.append(ns)
            failed += tally.add(check_job(job, status))
            if status == 0:
                digests[with_trace] = job.digest()
                if with_trace:
                    counters["report_bytes"] += job.report_bytes()
        same = len(digests) == 2 and digests[True] == digests[False]
        failed += tally.add([Check("trace.outputs_identical", float(same), 1.0, "README byte-stable reports", same)])
        j += 1
        if j == workload.period:
            first_cycle = ({k: list(v) for k, v in totals.items()}, dict(counters))

    # times per traced job over the whole run; counts over the first cycle
    # of job kinds only, so that they repeat exactly for a given seed
    values = layer_values(totals, counters, len(traced_ns))
    cycle_values = layer_values(*first_cycle, workload.period)
    for name, unit in PER_LAYER.items():
        if unit != "ms" and name in cycle_values:
            values[name] = cycle_values[name]
    values["trace.overhead_frac"] = statistics.median(traced_ns) / statistics.median(plain_ns) - 1.0
    values["fail_frac"] = tally.fail_frac

    with (workdir / "spans.jsonl").open("w", encoding="utf-8") as fh:
        for row in kept_spans:
            fh.write(json.dumps(row) + "\n")
    return {
        "correct": failed == 0,
        "attempted": len(plain_ns) + len(traced_ns),
        "failed": failed,
        "metrics": {name: metric(values[name], unit) for name, unit in PER_LAYER.items()},
        "detail": {
            "jobs": j,
            "untraced_p50_ms": statistics.median(plain_ns) / 1e6,
            "traced_p50_ms": statistics.median(traced_ns) / 1e6,
            "fail_frac": tally.fail_frac,
            "checks": tally.breakdown(),
            "spans_file": "spans.jsonl",
            "spans_kept_jobs": min(j, workload.period),
            "span_totals": {k: {"calls": v[0], "self_ms": v[1] / 1e6, "total_ms": v[2] / 1e6} for k, v in sorted(totals.items())},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nhdyn" / "__init__.py").is_file():
        print(f"nhbench: no nhdyn package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("nhbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"nhbench: unknown workload {args.workload!r}; use {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    body = (traced if args.trace else untraced)(workload, args.seed, args.seconds, workdir)
    detail = body.pop("detail")
    full = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        **body,
        "detail": detail,
    }
    (workdir / "result.json").write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")

    for name, m in body["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    if "job_ms_quartiles" in detail:
        q1, p50, q3 = detail["job_ms_quartiles"]
        print(
            f"jobs {detail['jobs']}: job ms q1/median/q3 {q1:.4g}/{p50:.4g}/{q3:.4g}, "
            f"job_tail_ms {detail['job_tail_ms']:.4g} at p{detail['job_tail_percentile']:.1f}; outputs sha256 "
            f"{detail['outputs_sha256'][:16]} over the first {detail['outputs_sha256_jobs']} jobs"
        )
    if "wall" in detail:
        wall, probe = detail["wall"], detail["probe"]
        print(
            f"wall clock: job_p50_ms {wall['job_p50_ms']:.4g}, jobs_per_s {wall['jobs_per_s']:.4g}, "
            f"setup_s {wall['setup_s']:.4g}; {probe['name']} probe median slowdown {probe['median_slowdown']:.4g} "
            f"against {probe['reference_ms']} ms"
        )
    print(f"fail_frac {detail['fail_frac']:.6g} ({workload.name}; see {workdir.relative_to(ROOT)}/result.json)")
    for name, row in detail["checks"].items():
        if row["failed"]:
            worst = "n/a" if row["worst"] is None else f"{row['worst']:.3g}"
            print(f"  check {name}: {row['failed']}/{row['attempted']} failed, worst {worst}, limit {row['limit']:.3g} ({row['source']})")
    print(json.dumps({"provenance": full["provenance"]}))
    print(json.dumps(body))
    return 0


if __name__ == "__main__":
    sys.exit(main())

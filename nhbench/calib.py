"""Fixed reference computations that gauge how fast the host runs now.

A shared host changes speed for seconds to minutes at a time: the same
job, on the same input in the same process, runs 1.4-1.9x slower for a
while and then recovers, and CPU time moves with wall time. A run of
tens of seconds cannot outlast that, so the end-to-end times are
normalized to a reference speed. Around every timed job the benchmark
runs a probe a few times and divides the job's wall time by the host's
slowdown, the probe's median time over its reference time, averaged
over the gauges before and after the job. The result reads as
milliseconds on a host where the probe takes its reference time.

The slowdowns do not hit all code alike: interpreter-bound code slows
more (about 1.8x in a slow stretch) than LAPACK work on dense matrices
(about 1.5x). So there are two probes, and each workload names the one
whose work resembles its jobs. ``INTERPRETER`` does what small-N jobs
do: validation of small arrays, ``scipy.linalg.expm`` at N=8, an RK4
loop at N=16, number formatting and JSON encoding and decoding.
``KERNEL`` does what N=64 jobs spend their time on: ``expm`` and an SVD
at N=64. Both use numpy, scipy and the standard library only, never
nhdyn, so a change to nhdyn moves a normalized time exactly as it moves
the wall time.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from typing import Callable

import numpy as np
import scipy.linalg

_RNG = np.random.default_rng(20260310)


def _complex(n: int, scale: float) -> np.ndarray:
    return (_RNG.standard_normal((n, n)) + 1j * _RNG.standard_normal((n, n))) * scale


_SMALL = [_complex(8, 0.25) for _ in range(12)]
_H16 = _complex(16, 0.125)
_PSI16 = _RNG.standard_normal(16) + 0j
_A64 = _complex(64, 0.0625)


def _square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        raise ValueError("probe matrix is not a finite square matrix")
    return a


def _interpreter_work() -> None:
    rows = []
    for k, a in enumerate(_SMALL):
        u = scipy.linalg.expm(-0.3j * _square(a))
        tr = u.trace()
        rows.append({"k": k, "norm": format(float(np.linalg.norm(u, 2)), ".12g"), "trace": [tr.real, tr.imag]})
    psi, h, dt = _PSI16, _square(_H16), 0.01
    for _ in range(80):
        k1 = -1j * (h @ psi)
        k2 = -1j * (h @ (psi + 0.5 * dt * k1))
        k3 = -1j * (h @ (psi + 0.5 * dt * k2))
        k4 = -1j * (h @ (psi + dt * k3))
        psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        psi = psi / np.linalg.norm(psi)
    text = json.dumps({"rows": rows, "psi": [[z.real, z.imag] for z in psi.tolist()]}, indent=1)
    json.loads(text)
    "\n".join(",".join(format(v, ".12g") for v in (i * 0.1, i * 0.2, i * 0.3)) for i in range(200))


def _kernel_work() -> None:
    for _ in range(2):
        scipy.linalg.expm(-1j * _square(_A64))
    np.linalg.svd(_A64, compute_uv=False)


@dataclasses.dataclass(frozen=True)
class Probe:
    name: str
    work: Callable[[], None]
    # About the probe's median on a 2-vCPU Xeon (Sapphire Rapids) KVM guest
    # with one BLAS thread, so normalized times stay close to wall times there.
    ref_ms: float


INTERPRETER = Probe("interpreter", _interpreter_work, 5.0)
KERNEL = Probe("kernel", _kernel_work, 3.5)


def gauge(probe: Probe, repeats: int) -> float:
    """The host's slowdown: median time of ``repeats`` probes over the reference."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        probe.work()
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times) / probe.ref_ms


def normalize(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference speed, given the slowdowns gauged around it."""
    return wall / ((before + after) / 2)


# first calls load LAPACK paths and allocate; keep them out of any gauge
_interpreter_work()
_kernel_work()

"""Named correctness checks on job outputs.

Every check compares an output against a tolerance taken from the
repository's own claims: the acceptance gate in
``tests/test_acceptance.py`` (cited as ``acceptance#NN``), another test
module, or the README. The checks look only at results, never at how
they were computed, so an optimisation that stays correct passes them.

``KNOWN_FAILURES`` lists checks that fail on the unmodified library.
They are still run, counted in ``fail_frac`` and printed; they do not
make a run incorrect, so that the benchmark can time a library that
carries them. A run that fails any other check is not correct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACC = "tests/test_acceptance.py"

# (workload, check) -> why it fails on the library as it stands
KNOWN_FAILURES = {
    ("dense_dynamics", "eigenstate.series_vs_conjugation"): (
        "absolute gap 3e-8 (hermitian, real) to ~1 (complex) at N=64, t=10; "
        "the README claims 1e-10, acceptance #4 tests only N<=8, t<=2"
    ),
}


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: float
    source: str
    passed: bool


def at_most(name: str, value, limit: float, source: str) -> Check:
    v = float(value)
    return Check(name, v, float(limit), source, bool(np.isfinite(v) and v <= limit))


def above(name: str, value, limit: float, source: str) -> Check:
    v = float(value)
    return Check(name, v, float(limit), source, bool(np.isfinite(v) and v > limit))


def equal(name: str, got, want, source: str) -> Check:
    return Check(name, float(got), float(want), source, bool(got == want))


def job_failed(name: str = "job.exit_status") -> Check:
    """Stands for every check of a job that raised or exited non-zero."""
    return Check(name, float("nan"), 0.0, "README exit status", False)


class Tally:
    """Per-check pass/fail counts over a run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.counts: dict[str, list] = {}  # name -> [attempted, failed, worst, its limit, source]

    def add(self, checks: list[Check]) -> bool:
        """Count ``checks``; True when one failed that is not a known failure."""
        unexpected = False
        for c in checks:
            row = self.counts.setdefault(c.name, [0, 0, None, c.limit, c.source])
            row[0] += 1
            if not c.passed:
                row[1] += 1
                unexpected |= (self.workload, c.name) not in KNOWN_FAILURES
            if np.isfinite(c.value) and (row[2] is None or c.value > row[2]):
                row[2], row[3] = c.value, c.limit
        return unexpected

    @property
    def attempted(self) -> int:
        return sum(r[0] for r in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(r[1] for r in self.counts.values())

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def breakdown(self) -> dict:
        return {
            name: {
                "attempted": r[0],
                "failed": r[1],
                "worst": r[2],
                "limit": r[3],
                "source": r[4],
                "known_failure": KNOWN_FAILURES.get((self.workload, name)),
            }
            for name, r in sorted(self.counts.items())
        }

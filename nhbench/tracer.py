"""Spans around nhdyn's public functions, installed from outside the library.

``Tracer.install`` replaces every public function in every nhdyn module
namespace that binds it (``nhdyn.flow.expm`` and ``nhdyn.linalg.expm``
get the same wrapper) and every public method of the classes nhdyn
defines, such as ``RunReport.to_json``. A span is named after the
defining module, which is the layer: ``linalg.expm``,
``scenario.RunReport.to_json``. ``uninstall`` puts the originals back,
so untraced jobs in the same process run the library as shipped.

Spans record name, start, end and parent, and stay in memory until the
benchmark writes them out. A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so
children nest inside their parent.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "gamma", "flow", "biortho", "eigenstate", "fermions", "scenario", "cli")
MODULES = ("nhdyn",) + tuple(f"nhdyn.{name}" for name in LAYERS)


def _observe_trajectory(counters, args, kwargs, result):
    key = hashlib.sha256()
    for a in map(np.asarray, args[:3]):
        key.update(repr((a.shape, a.dtype.str)).encode())
        key.update(a.tobytes())
    counters["trajectory_inputs"].add(key.hexdigest())


def _observe_series(counters, args, kwargs, result):
    counters["gamma_series_terms"] += result[1]


def _observe_nullspace(counters, args, kwargs, result):
    rows, cols = args[0].shape
    counters["kron_bytes"] += 16 * rows * cols


OBSERVERS = {
    "flow.exact_trajectory": _observe_trajectory,
    "gamma.gamma_series": _observe_series,
    "linalg.nullspace": _observe_nullspace,
}


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new job: fresh span list and counters."""
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counters: dict = defaultdict(int)
        self.counters["trajectory_inputs"] = set()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public nhdyn function and method, once each."""
        wrappers: dict[int, object] = {}
        for mod_name in MODULES:
            module = sys.modules[mod_name]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("nhdyn."):
                    layer = obj.__module__.split(".")[1]
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod_name
                    and mod_name != "nhdyn"
                ):
                    layer = mod_name.split(".")[1]
                    for meth_name, meth in list(vars(obj).items()):
                        if meth_name.startswith("_") or not inspect.isfunction(meth):
                            continue
                        self._saved.append((obj, meth_name, meth))
                        setattr(obj, meth_name, self._wrap(f"{layer}.{obj.__name__}.{meth_name}", meth))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans: list[list]) -> dict[str, list[int]]:
    """Per span name: [calls, self_ns, total_ns]."""
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for (name, start, end, _), self_ns in zip(spans, self_times(spans)):
        row = out[name]
        row[0] += 1
        row[1] += self_ns
        row[2] += end - start
    return dict(out)

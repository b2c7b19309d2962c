import nhdyn
import nhdyn.flow
import nhdyn.linalg
import nhdyn.scenario
import numpy as np

from tracer import Tracer, self_times, summarize


def test_self_time_is_span_minus_direct_children():
    spans = [
        ["outer", 0, 100, -1],
        ["mid", 10, 40, 0],
        ["leaf", 15, 25, 1],
        ["mid", 50, 70, 0],
    ]
    assert self_times(spans) == [50, 20, 10, 20]
    assert summarize(spans) == {"outer": [1, 50, 100], "mid": [2, 40, 50], "leaf": [1, 10, 10]}


def test_wrapped_nested_calls_link_parents_and_split_time():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    inner_w = tracer._wrap("t.inner", inner)

    def outer():
        return inner_w() + inner_w()

    tracer._wrap("t.outer", outer)()
    (_, o0, o1, op), (_, a0, a1, ap), (_, b0, b1, bp) = tracer.spans
    assert (op, ap, bp) == (-1, 0, 0)
    assert o0 <= a0 <= a1 <= b0 <= b1 <= o1
    assert self_times(tracer.spans)[0] == (o1 - o0) - (a1 - a0) - (b1 - b0)


def test_install_wraps_every_binding_once_and_uninstall_restores():
    original = nhdyn.linalg.expm
    tracer = Tracer()
    tracer.install()
    try:
        assert nhdyn.flow.expm is nhdyn.linalg.expm is nhdyn.expm
        assert nhdyn.linalg.expm is not original
        nhdyn.flow.exact_trajectory(np.diag([1.0, -1.0]), np.array([1.0, 0.0]), [0.0, 1.0])
        report = nhdyn.scenario.RunReport({}, {}, [])
        report.to_json()
    finally:
        tracer.uninstall()
    assert nhdyn.linalg.expm is original and nhdyn.flow.expm is original
    calls = {name: row[0] for name, row in summarize(tracer.spans).items()}
    assert calls["flow.exact_trajectory"] == 1
    assert calls["linalg.expm"] == 2
    assert calls["scenario.RunReport.to_json"] == 1
    assert calls["scenario.RunReport.to_dict"] == 1
    assert len(tracer.counters["trajectory_inputs"]) == 1

import pytest

import calib
from workloads import WORKLOADS


def test_reference_speed_leaves_times_unchanged():
    assert calib.normalize(123.0, 1.0, 1.0) == pytest.approx(123.0)


def test_slowdown_is_averaged_over_the_gauges_around_a_span():
    assert calib.normalize(300.0, 1.0, 2.0) == pytest.approx(200.0)


@pytest.mark.parametrize("probe", [calib.INTERPRETER, calib.KERNEL], ids=lambda p: p.name)
def test_gauge_is_probe_time_over_its_reference(probe):
    slowdown = calib.gauge(probe, 1)
    assert 0.05 < slowdown < 50


def test_every_workload_names_a_probe():
    assert {w.probe for w in WORKLOADS.values()} == {calib.INTERPRETER, calib.KERNEL}

import pytest

from stats import quartiles, tail


@pytest.mark.parametrize(
    "n, index, percentile",
    [(1, 0, 0.0), (5, 0, 0.0), (11, 0, 0.0), (12, 1, 100 / 11), (21, 10, 50.0), (111, 100, 100 * 100 / 110)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, index, percentile):
    samples = [float(10 * k) for k in range(n)][::-1]  # order must not matter
    value, pct = tail(samples)
    assert value == 10.0 * index
    assert pct == pytest.approx(percentile)
    assert sum(s > value for s in samples) >= min(10, n - 1)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        tail([])


def test_quartiles_bracket_the_median():
    q1, mid, q3 = quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (q1, mid, q3) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)

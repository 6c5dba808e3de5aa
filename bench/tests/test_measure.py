import math

import pytest

from measure import accuracy_digits, percentile, tail_percentile


@pytest.mark.parametrize("n, p", [(10, 50), (30, 66), (133, 92), (999, 98), (1000, 99), (5000, 99)])
def test_tail_percentile_values(n, p):
    assert tail_percentile(n) == p


@pytest.mark.parametrize("n", [40, 133, 500, 999, 1000, 1089, 4321])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = list(range(n))
    p = tail_percentile(n)
    cut = percentile(values, p)
    assert sum(v > cut for v in values) >= 10
    if p < 99:
        # the next percentile up would leave fewer than ten
        assert sum(v > percentile(values, p + 1) for v in values) < 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 1) == 1


def test_accuracy_digits_floor_and_mean():
    assert accuracy_digits([0.0]) == 16.0
    assert accuracy_digits([1e-20]) == 16.0
    assert accuracy_digits([1e-3, 1e-16]) == pytest.approx(9.5)
    assert accuracy_digits([10.0]) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        accuracy_digits([])
    assert math.isfinite(accuracy_digits([1e-300]))

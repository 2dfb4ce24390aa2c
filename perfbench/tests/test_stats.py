import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, p",
    [(10_000, 99.9), (1_000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (40, 75.0), (20, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p):
    got_p, value = stats.tail(list(range(1, n + 1)))
    assert got_p == p
    assert n - value >= stats.MIN_BEYOND


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail(list(range(19)))


def test_nearest_rank_and_median():
    assert stats.percentile([5, 1, 3], 50) == 3
    assert stats.percentile([1, 2, 3, 4], 100) == 4
    assert stats.median([4, 1, 3, 2]) == 2.5

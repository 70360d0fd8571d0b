"""The benchmark's arithmetic."""

import pytest

import stats


def test_median():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 11))  # 1..10
    assert stats.percentile(values, 0) == 1
    assert stats.percentile(values, 100) == 10
    assert stats.percentile(values, 50) == 5.5
    assert stats.percentile(values, 90) == pytest.approx(9.1)
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (39, None), (40, 75), (99, 75), (100, 90), (999, 90), (1000, 99)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_BEYOND


def test_no_tail_case():
    assert stats.tail_percentile(0) is None
    assert stats.tail_percentile(5) is None
    assert stats.samples_beyond(39, 75) == 9


def test_tally_counts_attempted_and_failed():
    assert stats.tally([]) == (0, 0)
    assert stats.tally([True, False, True, False, False]) == (5, 3)


def test_covered_merges_overlapping_intervals_and_clips():
    assert stats.covered([], 0, 10) == 0
    assert stats.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert stats.covered([(-5, 2), (20, 30)], 0, 10) == 2


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        (1, None, 0.0, 10.0),
        (2, 1, 1.0, 4.0),
        (3, 1, 3.0, 6.0),  # overlaps its sibling
        (4, 1, 8.0, 12.0),  # outlives its parent
        (5, 2, 1.0, 2.0),
    ]
    own = stats.self_times(spans)
    assert own[1] == pytest.approx(10 - 7)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(4)
    assert own[5] == pytest.approx(1)

import pytest

from mwbench.stats import (
    SampleTooSmall,
    beyond,
    min_samples,
    percentile,
    rank,
    windowed_mean,
    windowed_percentile,
)


def test_nearest_rank_picks_an_observed_value():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 90) == 90


def test_rank_rounds_up():
    assert rank(10, 50) == 5
    assert rank(11, 50) == 6
    assert rank(1000, 99) == 990
    assert rank(1001, 99) == 991


def test_beyond_counts_samples_above_the_rank():
    assert beyond(100, 90) == 10
    assert beyond(1000, 99) == 10
    assert beyond(999, 99) == 9


def test_min_samples_gives_ten_beyond():
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    assert min_samples(50) == 20


def test_too_small_a_sample_is_refused():
    with pytest.raises(SampleTooSmall):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == 989


def test_empty_sample_is_refused():
    with pytest.raises(SampleTooSmall):
        percentile([], 50)


def test_windowed_percentile_is_the_percentile_with_room_for_one_window():
    values = [float(v) for v in range(1500)]
    assert windowed_percentile(values, 99) == percentile(values, 99)
    shuffled = [float((v * 7919) % 5000) for v in range(5000)]
    assert windowed_percentile(shuffled, 90, max_windows=1) == percentile(
        shuffled, 90
    )


def test_a_burst_in_one_window_does_not_move_the_windowed_percentile():
    quiet = [float(v) for v in range(1, 1001)]
    burst = [v + 1000.0 for v in quiet]
    values = quiet * 2 + burst + quiet * 2
    assert windowed_percentile(values, 99) == 990.0
    assert percentile(values, 99) > 1900.0


def test_windowed_percentile_refuses_too_small_a_sample():
    with pytest.raises(SampleTooSmall):
        windowed_percentile([1.0] * 50, 90)


def test_windowed_mean_ignores_a_burst_in_one_window():
    values = [1.0] * 400 + [9.0] * 100 + [1.0] * 500
    assert windowed_mean(values) == 1.0
    assert windowed_mean(values, max_windows=1) == 1.8
    assert windowed_mean([2.0, 4.0]) == 3.0

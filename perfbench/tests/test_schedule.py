from mwbench.schedule import poisson_arrivals


def test_same_seed_same_schedule():
    assert poisson_arrivals(7, 40.0, 500) == poisson_arrivals(7, 40.0, 500)


def test_other_seed_other_schedule():
    assert poisson_arrivals(7, 40.0, 500) != poisson_arrivals(8, 40.0, 500)


def test_schedule_is_increasing_at_exactly_the_rate():
    for seed in range(5):
        arrivals = poisson_arrivals(seed, 40.0, 2000)
        assert len(arrivals) == 2000
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))
        assert abs(arrivals[-1] - 50.0) < 1e-9

"""Tests for retry-with-backoff."""

import random

import pytest

from repro.resilience import RetryPolicy, retry_call


def flaky(failures, error=RuntimeError("transient")):
    """A callable failing ``failures`` times, then returning 'ok'."""
    state = {"left": failures}

    def call():
        if state["left"] > 0:
            state["left"] -= 1
            raise error
        return "ok"

    return call


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_exponential_delays_without_jitter(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay_for(n, rng) for n in range(4)]
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.3])  # capped

    def test_jitter_stays_within_spread(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5)
        rng = random.Random(42)
        for attempt in range(5):
            delay = policy.delay_for(attempt, rng)
            nominal = min(policy.max_delay_s,
                          policy.base_delay_s * 2 ** attempt)
            assert 0.0 <= delay <= nominal * 1.5

    def test_jitter_spreads_over_half_to_one_and_a_half_of_the_schedule(
        self,
    ):
        policy = RetryPolicy(jitter=0.5)
        rng = random.Random(7)
        for attempt in range(12):
            nominal = min(policy.max_delay_s,
                          policy.base_delay_s * 2 ** attempt)
            for _ in range(50):
                delay = policy.delay_for(attempt, rng)
                assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_jittered_delays_are_deterministic_under_a_seed(self):
        policy = RetryPolicy(jitter=0.5)
        a = [policy.delay_for(n, random.Random(42)) for n in range(8)]
        b = [policy.delay_for(n, random.Random(42)) for n in range(8)]
        assert a == b

    def test_jittered_delays_differ_across_seeds(self):
        policy = RetryPolicy(jitter=0.5)
        assert policy.delay_for(3, random.Random(1)) != policy.delay_for(
            3, random.Random(2)
        )


class TestRetryCall:
    def test_first_try_success_does_not_sleep(self):
        slept = []
        assert retry_call(lambda: 42, sleep=slept.append) == 42
        assert slept == []

    def test_transient_failures_are_absorbed(self):
        slept = []
        result = retry_call(
            flaky(2),
            policy=RetryPolicy(max_attempts=3, jitter=0.0),
            sleep=slept.append,
        )
        assert result == "ok"
        assert len(slept) == 2

    def test_gives_up_and_reraises_the_last_error(self):
        with pytest.raises(RuntimeError, match="transient"):
            retry_call(
                flaky(5),
                policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
                sleep=lambda _s: None,
            )

    def test_non_matching_errors_propagate_immediately(self):
        calls = []

        def fail():
            calls.append(True)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            retry_call(fail, retry_on=(OSError,), sleep=lambda _s: None)
        assert len(calls) == 1

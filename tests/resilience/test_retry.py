"""Tests for RetryPolicy and the shared deterministic draw."""

from __future__ import annotations

import pytest

from repro.errors import ResilienceError
from repro.resilience import RetryPolicy, deterministic_fraction
from repro.resilience.failures import TRANSIENT_KINDS


class TestDeterministicFraction:
    def test_range(self):
        for index in range(100):
            draw = deterministic_fraction("x", index)
            assert 0.0 <= draw < 1.0

    def test_same_parts_same_draw(self):
        assert deterministic_fraction("retry", 7, "fig2", 1) == (
            deterministic_fraction("retry", 7, "fig2", 1)
        )

    def test_different_parts_different_draw(self):
        draws = {deterministic_fraction("fault", seed) for seed in range(32)}
        assert len(draws) == 32

    def test_spread_is_roughly_uniform(self):
        draws = [deterministic_fraction("u", index) for index in range(400)]
        mean = sum(draws) / len(draws)
        assert 0.4 < mean < 0.6


class TestValidation:
    def test_zero_attempts_rejected(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(ResilienceError):
            RetryPolicy(max_delay_s=-1.0)

    def test_jitter_out_of_range_rejected(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.5)


class TestShouldRetry:
    def test_transient_kinds_retry_below_budget(self):
        policy = RetryPolicy(max_attempts=3)
        for kind in TRANSIENT_KINDS:
            assert policy.should_retry(kind, 1)
            assert policy.should_retry(kind, 2)
            assert not policy.should_retry(kind, 3)

    def test_model_error_never_retried_by_default(self):
        policy = RetryPolicy(max_attempts=5)
        assert not policy.should_retry("model-error", 1)

    def test_single_attempt_policy_never_retries(self):
        policy = RetryPolicy(max_attempts=1)
        assert not policy.should_retry("crash", 1)


class TestDelaySchedule:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, max_delay_s=10.0, jitter=0.0
        )
        delays = [policy.delay_s("fig2", n) for n in (1, 2, 3, 4)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_capped_at_max_delay(self):
        policy = RetryPolicy(
            max_attempts=20, base_delay_s=1.0, max_delay_s=3.0, jitter=0.0
        )
        assert policy.delay_s("fig2", 10) == pytest.approx(3.0)

    def test_jitter_stays_in_band_and_is_deterministic(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=1.0, jitter=0.5)
        for attempt in (1, 2):
            delay = policy.delay_s("fig17", attempt)
            assert 0.5 <= delay <= 1.5
            # A fresh, equal policy yields the identical schedule.
            assert delay == RetryPolicy(
                base_delay_s=1.0, max_delay_s=1.0, jitter=0.5
            ).delay_s("fig17", attempt)

    def test_zero_base_delay_is_zero(self):
        policy = RetryPolicy(base_delay_s=0.0, jitter=0.5)
        assert policy.delay_s("fig2", 3) == 0.0

    def test_attempt_below_one_rejected(self):
        with pytest.raises(ResilienceError):
            RetryPolicy().delay_s("fig2", 0)


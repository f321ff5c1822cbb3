import time

import pytest

from tftps.fixed_time import (
    CalibrationError,
    OpClass,
    budget_from_samples,
    calibrate,
    consume_overrun_events,
    observe,
    run_fixed,
)
from tftps.groups import ParameterError

MS = 1_000_000  # ns


class TestBudgetArithmetic:
    def test_max_times_factor(self):
        op = OpClass("demo.op", 64)
        budget = budget_from_samples(op, [12 * MS, 15 * MS, 13 * MS], 1.2)
        assert budget.budget_ns == 18 * MS
        assert budget.samples == 3

    def test_factor_one_keeps_observed_max(self):
        op = OpClass("demo.op", 64)
        budget = budget_from_samples(op, [5 * MS, 7 * MS], 1.0)
        assert budget.budget_ns == 7 * MS

    def test_factor_below_one_rejected(self):
        with pytest.raises(ParameterError):
            budget_from_samples(OpClass("demo.op", 0), [MS], 0.9)

    def test_empty_samples(self):
        with pytest.raises(CalibrationError):
            budget_from_samples(OpClass("demo.op", 0), [], 1.5)


class TestCalibrate:
    def test_minimum_sample_count_enforced(self):
        with pytest.raises(ParameterError):
            calibrate(OpClass("demo.op", 0), lambda: None, n_samples=29)

    def test_budget_covers_observed_workload(self):
        budget = calibrate(OpClass("demo.sleepy", 0), lambda: time.sleep(0.002), n_samples=30, safety_factor=1.5)
        assert budget.budget_ns >= 2 * MS
        assert budget.samples == 30

    def test_workload_failure_wrapped(self):
        def broken():
            raise RuntimeError("boom")

        with pytest.raises(CalibrationError):
            calibrate(OpClass("demo.broken", 0), broken, n_samples=30)


class TestRunFixed:
    def test_pads_to_budget(self):
        budget = budget_from_samples(OpClass("demo.pad", 0), [18 * MS], 1.0)
        consume_overrun_events()
        result, observed = run_fixed(budget, lambda: time.sleep(0.005) or "out")
        assert result == "out"
        assert budget.budget_ns <= observed <= budget.budget_ns + 5 * MS
        assert consume_overrun_events() == []

    def test_overrun_returns_result_and_records_event(self):
        budget = budget_from_samples(OpClass("demo.tight", 0), [1 * MS], 1.0)
        consume_overrun_events()
        result, observed = run_fixed(budget, lambda: time.sleep(0.01) or 41 + 1)
        assert result == 42
        assert observed >= 10 * MS
        events = consume_overrun_events()
        assert len(events) == 1
        assert events[0].budget_ns == budget.budget_ns
        assert events[0].actual_ns == observed

    def test_overrun_events_are_bounded_when_never_drained(self):
        budget = budget_from_samples(OpClass("demo.flood", 0), [1], 1.0)
        consume_overrun_events()
        for _ in range(1100):
            run_fixed(budget, lambda: None)
        assert len(consume_overrun_events()) == 1024

    def test_completion_time_is_input_independent(self):
        budget = budget_from_samples(OpClass("demo.two", 0), [10 * MS], 1.2)
        fast = [run_fixed(budget, lambda: time.sleep(0.001))[1] for _ in range(30)]
        slow = [run_fixed(budget, lambda: time.sleep(0.008))[1] for _ in range(30)]
        mean_fast = sum(fast) / len(fast)
        mean_slow = sum(slow) / len(slow)
        assert abs(mean_fast - mean_slow) < 0.05 * budget.budget_ns


class TestObserve:
    def test_returns_output_and_elapsed(self):
        out, sample = observe(lambda: "value")
        assert out == "value"
        assert sample.elapsed_ns >= 0

    def test_observing_padded_operation_sees_the_budget(self):
        budget = budget_from_samples(OpClass("demo.nested", 0), [5 * MS], 1.0)
        _, sample = observe(lambda: run_fixed(budget, lambda: None))
        assert sample.elapsed_ns >= budget.budget_ns

    def test_leaky_workload_is_monotone(self):
        def leak(n):
            _, sample = observe(lambda: time.sleep(0.0005 * n))
            return sample.elapsed_ns

        times = [leak(n) for n in (1, 4, 8)]
        assert times[0] < times[1] < times[2]


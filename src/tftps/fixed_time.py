"""Worst-case fixed-time execution: calibrate a budget, pad every run to it.

An operation class is calibrated by running a representative workload and
taking max(observed) * safety_factor as the budget.  run_fixed then pads
each invocation's observable completion to that budget on a monotonic
clock (sleep to within a margin, spin the rest), so equal-length inputs
complete in indistinguishable time.  observe() is the unpadded measurement
instrument the game adversaries use.

A budget is measured in the process that pads with it and is never stored:
it holds only for the machine and load it was measured under.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .groups import ParameterError

# Sleep until this much budget remains, then spin; bounds padding jitter
# without burning a full core for the whole budget.
_SPIN_MARGIN_NS = 2_000_000


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class OpClass:
    """An operation class: a name plus its input length in octets."""

    name: str
    input_length: int


@dataclass(frozen=True)
class TimeBudget:
    op_class: OpClass
    budget_ns: int
    samples: int
    safety_factor: float


@dataclass(frozen=True)
class TimingSample:
    elapsed_ns: int


@dataclass(frozen=True)
class OverrunEvent:
    op_class: OpClass
    actual_ns: int
    budget_ns: int


# The most recent overruns; a server that never drains them holds at most this many.
_overruns: collections.deque[OverrunEvent] = collections.deque(maxlen=1024)
_lock = threading.Lock()


def consume_overrun_events() -> list[OverrunEvent]:
    """Return and clear the BUDGET_OVERRUN events recorded so far."""
    with _lock:
        events = list(_overruns)
        _overruns.clear()
    return events


def budget_from_samples(op_class: OpClass, samples_ns: list[int], safety_factor: float) -> TimeBudget:
    """budget = max(samples) * safety_factor."""
    if not samples_ns:
        raise CalibrationError("no calibration samples")
    if safety_factor < 1.0:
        raise ParameterError("safety_factor must be >= 1.0")
    budget = int(max(samples_ns) * safety_factor)
    if budget <= 0:
        raise CalibrationError("calibration produced a non-positive budget")
    return TimeBudget(op_class=op_class, budget_ns=budget, samples=len(samples_ns), safety_factor=safety_factor)


def calibrate(
    op_class: OpClass,
    workload: Callable[[], object],
    n_samples: int = 50,
    safety_factor: float = 1.5,
) -> TimeBudget:
    """Run the workload n_samples times and derive a worst-case budget.

    Calibration should run on an otherwise idle machine; the safety factor
    absorbs scheduler noise beyond the observed worst case.
    """
    if n_samples < 30:
        raise ParameterError(f"n_samples must be >= 30, got {n_samples}")
    samples = []
    for _ in range(n_samples):
        start = time.perf_counter_ns()
        try:
            workload()
        except Exception as exc:
            raise CalibrationError(f"workload failed during calibration: {exc}") from exc
        samples.append(time.perf_counter_ns() - start)
    return budget_from_samples(op_class, samples, safety_factor)


def run_fixed(budget: TimeBudget, operation: Callable[[], object]) -> tuple[object, int]:
    """Execute, then pad the observable completion to the budget.

    Returns (output, observed_completion_ns).  If the operation alone
    exceeds the budget a BUDGET_OVERRUN event is recorded and the result is
    still returned (availability over strictness); the overrun is visible
    to callers through consume_overrun_events().
    """
    start = time.perf_counter_ns()
    result = operation()
    deadline = start + budget.budget_ns
    now = time.perf_counter_ns()
    if now >= deadline:
        with _lock:
            _overruns.append(OverrunEvent(op_class=budget.op_class, actual_ns=now - start, budget_ns=budget.budget_ns))
        return result, now - start
    remaining = deadline - now
    if remaining > _SPIN_MARGIN_NS:
        time.sleep((remaining - _SPIN_MARGIN_NS) / 1e9)
    # Report the reading that ended the spin: a second read after the loop
    # adds a delay that varies with the operation that ran, and so leaks it.
    while (now := time.perf_counter_ns()) < deadline:
        pass
    return result, now - start


def observe(operation: Callable[[], object]) -> tuple[object, TimingSample]:
    """Run unpadded and report the raw elapsed time (the adversary's view)."""
    start = time.perf_counter_ns()
    result = operation()
    return result, TimingSample(elapsed_ns=time.perf_counter_ns() - start)



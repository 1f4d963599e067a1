"""Fault-tolerant execution: fault injection, retries, classification.

The resilience subsystem hardens the whole execution path — the
process-pool runner, the result cache, and the Mess simulator's control
loop — and proves the hardening with deterministic fault injection:

- :mod:`repro.resilience.faults` — the seeded :class:`FaultPlan`
  (worker crashes, hangs, cache corruption, controller NaN/divergence),
  activatable via ``repro run --inject-faults PLAN.json`` and driving
  the chaos test suite;
- :mod:`repro.resilience.failures` — the typed failure taxonomy
  (``crash`` / ``timeout`` / ``model-error`` / ``cache-error``) and
  the total classifier every recorded failure goes through;
- :mod:`repro.resilience.retry` — :class:`RetryPolicy`, exponential
  backoff with deterministic jitter for transient failures.

Checkpoint-resume lives with the manifest it reads
(:func:`repro.runner.pool.resume_run`); the simulator guardrails live
in :mod:`repro.core.simulator`, reading the active fault plan and
clamping divergent controller state to the curve bounds.
"""

from __future__ import annotations

from .failures import (
    FAILURE_KINDS,
    TRANSIENT_KINDS,
    DeadlineExceededError,
    WorkerCrashError,
    classify_failure,
    is_transient,
)
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    activation,
    load_fault_plan,
)
from .retry import RetryPolicy, deterministic_fraction

__all__ = [
    "FAILURE_KINDS",
    "FAULT_KINDS",
    "TRANSIENT_KINDS",
    "DeadlineExceededError",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "WorkerCrashError",
    "activation",
    "classify_failure",
    "deterministic_fraction",
    "is_transient",
    "load_fault_plan",
]

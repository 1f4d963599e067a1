"""The failure taxonomy: the classifier's whole table and its mirror."""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.checks import invariants
from repro.errors import CacheError, MessError
from repro.resilience.failures import (
    FAILURE_KINDS,
    DeadlineExceededError,
    WorkerCrashError,
    classify_failure,
)


@pytest.mark.parametrize(
    "exc, kind",
    [
        (DeadlineExceededError("late"), "timeout"),
        (TimeoutError("late"), "timeout"),
        (BrokenProcessPool("gone"), "crash"),
        (WorkerCrashError("gone"), "crash"),
        (SystemExit(1), "crash"),
        (KeyboardInterrupt(), "crash"),
        (CacheError("torn"), "cache-error"),
        (ConnectionError("refused"), "model-error"),
        (ValueError("bad option"), "model-error"),
        (MessError("invariant"), "model-error"),
    ],
    ids=lambda value: (
        type(value).__name__ if isinstance(value, BaseException) else value
    ),
)
def test_classify_failure_table(exc, kind):
    assert classify_failure(exc) == kind
    assert kind in FAILURE_KINDS
    # the manifest validator keeps a literal copy of the kinds
    assert invariants._FAILURE_KINDS == FAILURE_KINDS

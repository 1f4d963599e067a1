"""Typed failure taxonomy for the execution layer.

A sweep that dies with one opaque ``Exception`` string cannot be
triaged, retried or resumed sensibly. Every failure the runner records
is therefore classified into exactly one of four kinds:

- ``crash`` — the worker process died (segfault, ``os._exit``, OOM
  kill); surfaces as :class:`BrokenProcessPool` in the parent or as
  :class:`WorkerCrashError` when injected inline.
- ``timeout`` — the experiment exceeded its deadline and the worker was
  terminated (:class:`DeadlineExceededError`).
- ``cache-error`` — the result cache failed in a way that was surfaced
  rather than degraded (:class:`repro.errors.CacheError`).
- ``model-error`` — the experiment itself raised: bad options, a
  simulator invariant violation, a bug. Deterministic, so never
  retried.

The classifier is total: every ``BaseException`` maps to a kind, so a
manifest can never contain an unclassified failure.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

from ..errors import CacheError, MessError

#: Every failure class a run manifest may record.
FAILURE_KINDS = (
    "crash",
    "timeout",
    "model-error",
    "cache-error",
)

#: Kinds that are transient by nature and therefore safe to retry.
#: A model-error is deterministic — the same inputs will fail the same
#: way — so retrying it only burns time.
TRANSIENT_KINDS = ("crash", "timeout", "cache-error")


class WorkerCrashError(MessError):
    """A worker process crash, surfaced as an exception.

    Raised by inline (``jobs=1``) fault injection where a real
    ``os._exit`` would take down the parent process, and usable by any
    code that needs a classifiable stand-in for a dead worker.
    """


class DeadlineExceededError(MessError):
    """An experiment ran past its per-experiment deadline.

    Raised parent-side by the pool scheduler when it terminates a hung
    worker; the experiment is recorded with ``failure_kind="timeout"``.
    """


def classify_failure(exc: BaseException) -> str:
    """Map any exception to exactly one failure kind.

    Total by construction — the fallback is ``model-error`` because an
    arbitrary exception out of an experiment is the experiment's code
    failing, which is deterministic and must not be retried blindly.
    """
    if isinstance(exc, DeadlineExceededError):
        return "timeout"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, (BrokenProcessPool, WorkerCrashError)):
        return "crash"
    if isinstance(exc, (SystemExit, KeyboardInterrupt)):
        return "crash"
    if isinstance(exc, CacheError):
        return "cache-error"
    return "model-error"

"""Parallel experiment runner with a content-addressed result cache.

Three pieces:

- :mod:`repro.runner.cache` — the on-disk result store, keyed by
  scenario digest and stamped with the results epoch (atomic writes,
  corruption-tolerant reads), the cache-or-compute core ``repro run``
  and ``repro serve`` share, and the process-global active store the
  runner reuses across units;
- :mod:`repro.runner.pool` — :func:`run_many`, the process-pool fan-out
  used by ``python -m repro run --all --jobs N``, with per-experiment
  deadlines, typed failure classification, retries and pool-rebuild
  recovery, plus :func:`resume_run` for manifest-checkpointed resume;
- :mod:`repro.runner.manifest` — the JSON run manifest recording
  per-experiment wall time, row counts, cache traffic, result digests
  and failure taxonomy.
"""

from __future__ import annotations

from .cache import ResultCache, activate, active_cache, deactivate, default_cache_dir
from .manifest import ExperimentRecord, RunManifest, environment_header
from .pool import RunOutcome, resume_run, run_many

__all__ = [
    "ExperimentRecord",
    "ResultCache",
    "RunManifest",
    "RunOutcome",
    "activate",
    "active_cache",
    "deactivate",
    "default_cache_dir",
    "environment_header",
    "resume_run",
    "run_many",
]

"""Fan experiments out across worker processes, fault-tolerantly.

:func:`run_many` is what ``python -m repro run --all --jobs N``
calls: it validates the requested experiment ids and options up
front, executes them inline (``jobs=1``) or on a
:class:`~concurrent.futures.ProcessPoolExecutor`, streams a per-
experiment telemetry record to an optional progress callback as each
one finishes, and returns every result plus a
:class:`~repro.runner.manifest.RunManifest`.

One unit of work is one scenario: an experiment id becomes the
scenario :meth:`~repro.scenario.core.Scenario.for_experiment` builds,
and a scenario file is its own. :func:`_execute` runs either, reading
and storing the result through :func:`~repro.runner.cache.cached_result`
and :func:`~repro.runner.cache.compute_result` — the two functions
``repro serve`` calls too — so the entry for a digest is the same bytes
whichever path wrote it.

Determinism: each experiment runs entirely inside one process with
fixed seeds, and every result — cold, cached, serial or parallel — is
normalized through the same JSON round-trip, so ``--jobs 1`` and
``--jobs N`` produce byte-identical rows.

Resilience: every failure is classified into the typed taxonomy of
:mod:`repro.resilience.failures` and recorded with its full traceback;
a :class:`~repro.resilience.retry.RetryPolicy` re-dispatches transient
failures with exponential backoff; ``deadline_s`` bounds each
experiment's wall time, terminating hung workers; a broken process
pool is rebuilt and its in-flight work re-dispatched; and
:func:`resume_run` re-executes only what a previous run's manifest
records as unfinished. Fault injection for all of the above comes from
:mod:`repro.resilience.faults`.
"""

from __future__ import annotations

import functools
import math
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..errors import ConfigurationError
from ..resilience import faults as faults_mod
from ..resilience.failures import DeadlineExceededError, classify_failure
from ..resilience.retry import RetryPolicy
from ..telemetry import registry as telemetry_mod
from ..telemetry.registry import TelemetryRegistry
from . import cache as cache_mod
from .cache import ResultCache
from .manifest import ExperimentRecord, RunManifest

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.base import ExperimentResult

# NOTE: ``repro.experiments`` is imported lazily throughout this module.
# ``import repro`` loads the runner but no experiment module, and the
# benchmark suite's ``setup_s`` times that import; the experiments
# package init imports every experiment module.

#: Called with each experiment's record as it completes (any order).
ProgressCallback = Callable[[ExperimentRecord], None]

#: Slack added to scheduler wake-ups so a deadline sweep runs just
#: *after* the deadline elapses, not a float-rounding hair before it.
_WAKE_SLACK_S = 0.05


@dataclass
class RunOutcome:
    """Everything one ``run_many`` invocation produced."""

    results: "dict[str, ExperimentResult]" = field(default_factory=dict)
    manifest: RunManifest = field(default_factory=RunManifest)
    #: Merged telemetry from every experiment (spans, counters, per-window
    #: samples); ``None`` unless ``run_many(collect_telemetry=True)``.
    telemetry: TelemetryRegistry | None = None


def _ensure_cache(cache_dir: str | None, use_cache: bool) -> ResultCache | None:
    """Activate (or reuse) the process cache; deactivate when disabled.

    Workers forked from a caching parent inherit its active cache; this
    keeps it when compatible and replaces it when the directory differs.
    """
    if not use_cache:
        cache_mod.deactivate()
        return None
    active = cache_mod.active_cache()
    wanted = Path(cache_dir).expanduser() if cache_dir else None
    if active is not None and (wanted is None or active.root == wanted):
        return active
    return cache_mod.activate(ResultCache(wanted))


def _scoped_plan(
    fault_payload: dict | None, label: str, attempt: int
) -> faults_mod.FaultPlan | None:
    """The fault sub-plan for one (unit, attempt), or None when clear.

    Scoping happens worker-side so probability draws and attempt
    matching use the worker's own (deterministic) view of the plan; an
    empty scope activates nothing, keeping the null fast path.
    """
    if fault_payload is None:
        return None
    plan = faults_mod.FaultPlan.from_dict(fault_payload).scoped(label, attempt)
    return plan if plan.faults else None


def _execute(
    label: str,
    spec: dict,
    cache_dir: str | None,
    use_cache: bool,
    collect_telemetry: bool = False,
    fault_payload: dict | None = None,
    attempt: int = 1,
) -> dict:
    """Run one unit (in a worker or inline) and report telemetry.

    Module-level so it pickles for the process pool; ``spec`` is the
    unit's scenario spec, plain JSON-typed data. The result is memoized
    under the scenario digest; a miss computes the whole unit.

    With ``collect_telemetry``, a fresh registry is activated around the
    unit so simulators/controllers built inside it bind their
    instruments to it; the registry travels back to the parent as JSON
    (``telemetry_data``) plus a compact summary for the manifest. The
    compute runs in a ``runner.scenario`` span (id: the scenario name)
    for a scenario file and a ``runner.experiment`` span (id: the
    experiment id) otherwise; a hit emits ``runner.result_cache_hit``.

    ``fault_payload`` is a serialized :class:`FaultPlan`; it is scoped
    to this (label, attempt) and activated for the duration, with
    entry faults fired first and cache corruption injected just before
    the result-cache read.
    """
    from ..core import simulator as simulator_mod
    from ..scenario.core import Scenario

    scenario = Scenario.from_spec(spec)
    plan = _scoped_plan(fault_payload, label, attempt)
    registry = None
    previous = telemetry_mod.active()
    if collect_telemetry:
        registry = telemetry_mod.activate(TelemetryRegistry())
    try:
        with faults_mod.activation(plan):
            if plan is not None:
                plan.fire_entry_faults(label)
            cache = _ensure_cache(cache_dir, use_cache)
            hits_before = cache.hits if cache else 0
            misses_before = cache.misses if cache else 0
            degraded_before = simulator_mod.degraded_total()
            start = time.perf_counter()

            payload = None
            if cache is not None:
                key = scenario.digest()
                if plan is not None:
                    plan.corrupt_cache_entry(cache, key)
                payload = cache_mod.cached_result(cache, key)
            if payload is None:
                if registry is None:
                    payload = cache_mod.compute_result(cache, scenario)
                else:
                    span, span_id = (
                        ("runner.scenario", scenario.name)
                        if label.startswith("scenario:")
                        else ("runner.experiment", label)
                    )
                    with registry.span(span, category="runner", id=span_id):
                        payload = cache_mod.compute_result(cache, scenario)
            elif registry is not None:
                registry.event(
                    "runner.result_cache_hit", category="runner", id=label
                )

            return {
                "experiment_id": label,
                "payload": payload,
                "duration_s": time.perf_counter() - start,
                "cache_hits": (cache.hits - hits_before) if cache else 0,
                "cache_misses": (cache.misses - misses_before) if cache else 0,
                "degraded": simulator_mod.degraded_total() > degraded_before,
                "telemetry_summary": registry.summary() if registry else None,
                "telemetry_data": registry.to_dict() if registry else None,
            }
    finally:
        if collect_telemetry:
            if previous is not None:
                telemetry_mod.activate(previous)
            else:
                telemetry_mod.deactivate()


@dataclass
class _Unit:
    """One schedulable piece of work: a label and the scenario it runs."""

    label: str
    spec: dict
    opts: dict

    @property
    def scenario_spec(self) -> dict | None:
        """The spec a ``scenario:`` record carries; experiment records carry none."""
        return self.spec if self.label.startswith("scenario:") else None


@dataclass
class _Pending:
    """A queued dispatch of one unit: which attempt, and not before when."""

    unit: _Unit
    attempt: int = 1
    not_before: float = 0.0  # time.monotonic() timestamp


def _record_from(
    raw: dict, unit: _Unit, scale: float, attempts: int
) -> "tuple[ExperimentRecord, ExperimentResult]":
    from ..experiments.base import ExperimentResult

    result = ExperimentResult.from_dict(raw["payload"])
    record = ExperimentRecord(
        experiment_id=raw["experiment_id"],
        status="ok",
        duration_s=raw["duration_s"],
        rows=len(result.rows),
        cache_hits=raw["cache_hits"],
        cache_misses=raw["cache_misses"],
        result_digest=result.digest(),
        scale=scale,
        options=dict(unit.opts),
        telemetry=raw.get("telemetry_summary"),
        attempts=attempts,
        degraded=bool(raw.get("degraded", False)),
        scenario_spec=unit.scenario_spec,
    )
    return record, result


def _error_record(
    unit: _Unit,
    exc: BaseException,
    duration_s: float,
    scale: float,
    attempts: int,
) -> ExperimentRecord:
    """A failure record: one-line summary, typed kind, full traceback.

    Exceptions that crossed a process boundary carry the remote
    traceback chained as ``__cause__``; ``format_exception`` renders the
    whole chain, so the worker-side evidence lands in the manifest.
    """
    detail = "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()
    full = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).strip()
    return ExperimentRecord(
        experiment_id=unit.label,
        status="error",
        duration_s=duration_s,
        scale=scale,
        options=dict(unit.opts),
        error=detail,
        failure_kind=classify_failure(exc),
        attempts=attempts,
        traceback=full,
        scenario_spec=unit.scenario_spec,
    )


def _shutdown_now(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard, terminating workers that will not exit.

    ``shutdown(wait=False)`` alone leaves a hung worker running
    forever; terminating the worker processes is the only way to
    enforce a deadline. ``_processes`` is executor-private, so it is
    read defensively — a stdlib that renames it degrades to an orderly
    (possibly slower) shutdown rather than an error.
    """
    raw_processes = getattr(pool, "_processes", None)
    processes = (
        list(raw_processes.values()) if isinstance(raw_processes, dict) else []
    )
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except (OSError, ValueError, AttributeError):
            continue
    for process in processes:
        try:
            process.join(1.0)
        except (OSError, ValueError, AssertionError):
            continue


def run_many(
    experiment_ids: Iterable[str] | None = None,
    *,
    jobs: int = 1,
    scale: float = 1.0,
    options: Mapping[str, Mapping[str, object]] | None = None,
    scenarios: Iterable[object] | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    progress: ProgressCallback | None = None,
    collect_telemetry: bool = False,
    deadline_s: float | None = None,
    retry: RetryPolicy | None = None,
    fault_plan: "faults_mod.FaultPlan | Mapping | None" = None,
) -> RunOutcome:
    """Run many experiments, optionally in parallel, with caching.

    Parameters
    ----------
    experiment_ids:
        Ids to run, in the order results should be reported; ``None``
        means every registered experiment in paper order.
    jobs:
        Worker process count; ``1`` runs inline in this process (unless
        ``deadline_s`` is set, which requires a worker to terminate).
    options:
        Per-experiment keyword options, keyed by experiment id.
        Validated against each experiment's declared parameters before
        anything is submitted.
    scenarios:
        :class:`~repro.scenario.core.Scenario` instances (or their spec
        dicts) to run alongside — or instead of — registered
        experiments. Each is validated up front; results and records
        are keyed ``scenario:<name>``. When ``scenarios`` is given and
        ``experiment_ids`` is None, only the scenarios run.
    cache_dir / use_cache:
        Result-store location override and master switch. Each unit
        reads its result under its scenario digest, and a miss computes
        and stores it.
    progress:
        Callback receiving each :class:`ExperimentRecord` as it
        completes (completion order, not submission order).
    collect_telemetry:
        Collect per-experiment telemetry (spans, counters, control-loop
        samples). Each record carries a summary into the manifest and
        the merged registry lands on ``outcome.telemetry``, ready for
        the Chrome-trace / Prometheus exporters. Off by default: the
        instrumented hot paths then stay on their null-sink fast path.
    deadline_s:
        Per-experiment wall-clock deadline. An attempt running longer
        is abandoned: its worker is terminated, the pool rebuilt, and
        the failure recorded (or retried) as ``timeout``. Enforcement
        needs a killable worker, so a ``jobs=1`` run with a deadline
        executes on a one-worker pool instead of inline. It must be
        positive (NaN is refused); ``inf`` means no deadline.
    retry:
        :class:`RetryPolicy` for transient failures (crash / timeout /
        cache-error). ``None`` keeps the historical behaviour: one
        attempt, no retries.
    fault_plan:
        A :class:`~repro.resilience.faults.FaultPlan` (or its dict
        form) injected into every unit for chaos testing; see
        ``repro run --inject-faults``.

    A failing experiment is recorded with ``status="error"``, a typed
    ``failure_kind`` and its full traceback, and does not abort the
    remaining ones; inspect ``outcome.manifest.ok`` and
    ``outcome.manifest.failure_summary()``.
    """
    from ..experiments.registry import experiment_ids as registered_ids
    from ..experiments.registry import validate_options
    from ..scenario.core import Scenario

    scenario_list: list[Scenario] = []
    for entry in scenarios or ():
        scenario = (
            entry
            if isinstance(entry, Scenario)
            else Scenario.from_spec(entry)  # type: ignore[arg-type]
        )
        problems = scenario.validate()
        if problems:
            raise ConfigurationError(
                f"scenario {scenario.name!r}: " + "; ".join(problems)
            )
        scenario_list.append(scenario)
    labels = [f"scenario:{scenario.name}" for scenario in scenario_list]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(
            f"duplicate scenario names in selection: {labels}"
        )

    if experiment_ids is None and scenario_list:
        ids = []
    else:
        ids = list(experiment_ids) if experiment_ids is not None else registered_ids()
    if not ids and not scenario_list:
        raise ConfigurationError("no experiments selected")
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate experiment ids in selection: {ids}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if deadline_s is not None and not deadline_s > 0:  # NaN compares false
        raise ConfigurationError(f"deadline_s must be positive, got {deadline_s}")
    if deadline_s is not None and math.isinf(deadline_s):
        # no bound at all; the scheduler's wait takes no infinite timeout
        deadline_s = None

    policy = retry if retry is not None else RetryPolicy(
        max_attempts=1, base_delay_s=0.0, jitter=0.0
    )
    if isinstance(fault_plan, faults_mod.FaultPlan):
        plan_payload: dict | None = fault_plan.to_dict()
    elif fault_plan is not None:
        # validate eagerly: a malformed plan must fail the run up front,
        # not inside every worker
        plan_payload = faults_mod.FaultPlan.from_dict(fault_plan).to_dict()
    else:
        plan_payload = None

    per_experiment = {key: dict(value) for key, value in (options or {}).items()}
    stray = set(per_experiment) - set(ids)
    if stray:
        raise ConfigurationError(
            f"options given for experiments not selected: {sorted(stray)}"
        )
    for experiment_id in ids:
        validate_options(experiment_id, per_experiment.get(experiment_id, {}))

    cache_dir_str = str(cache_dir) if cache_dir is not None else None
    resolved_cache = (
        str(ResultCache(cache_dir_str).root) if use_cache else None
    )
    manifest = RunManifest(
        jobs=jobs,
        scale=scale,
        cache_dir=resolved_cache,
        package_version=cache_mod._package_version(),
    )
    outcome = RunOutcome(manifest=manifest)
    if collect_telemetry:
        outcome.telemetry = TelemetryRegistry()
    records: dict[str, ExperimentRecord] = {}
    start = time.perf_counter()

    def finish(experiment_id: str, record: ExperimentRecord) -> None:
        records[experiment_id] = record
        if progress is not None:
            progress(record)

    def absorb(raw: dict) -> None:
        """Merge one experiment's telemetry into the run-wide registry."""
        data = raw.get("telemetry_data")
        if outcome.telemetry is not None and data is not None:
            outcome.telemetry.merge_dict(data)

    # an experiment id is just the scenario for_experiment builds, so
    # experiments and scenario files flow through one worker from here on
    units: list[_Unit] = [
        _Unit(
            label=experiment_id,
            spec=Scenario.for_experiment(
                experiment_id,
                scale=scale,
                options=per_experiment.get(experiment_id, {}),
            ).to_spec(),
            opts=per_experiment.get(experiment_id, {}),
        )
        for experiment_id in ids
    ] + [
        _Unit(label=label, spec=scenario.to_spec(), opts={})
        for label, scenario in zip(labels, scenario_list)
    ]
    execute = functools.partial(
        _execute,
        cache_dir=cache_dir_str,
        use_cache=use_cache,
        collect_telemetry=collect_telemetry,
        fault_payload=plan_payload,
    )

    inline = (jobs == 1 or len(units) == 1) and deadline_s is None
    if inline:
        _run_inline(units, execute, policy, scale, outcome, absorb, finish)
    else:
        _run_pooled(
            units,
            execute,
            policy,
            scale,
            min(max(jobs, 1), len(units)),
            deadline_s,
            outcome,
            absorb,
            finish,
        )

    manifest.wall_time_s = time.perf_counter() - start
    manifest.records = [records[unit.label] for unit in units]
    return outcome


def _run_inline(
    units: list[_Unit],
    execute: Callable[..., dict],
    policy: RetryPolicy,
    scale: float,
    outcome: RunOutcome,
    absorb: Callable[[dict], None],
    finish: Callable[[str, ExperimentRecord], None],
) -> None:
    """Serial execution with the same retry semantics as the pool path.

    Any exception is classified and recorded, as a worker's would be:
    one experiment's bug must not abort the rest of the run.
    """
    for unit in units:
        attempt = 1
        while True:
            step_start = time.perf_counter()
            try:
                raw = execute(unit.label, unit.spec, attempt=attempt)
            except Exception as exc:
                kind = classify_failure(exc)
                if policy.should_retry(kind, attempt):
                    delay = policy.delay_s(unit.label, attempt)
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    continue
                record = _error_record(
                    unit, exc, time.perf_counter() - step_start, scale, attempt
                )
                break
            absorb(raw)
            record, result = _record_from(raw, unit, scale, attempt)
            outcome.results[unit.label] = result
            break
        finish(unit.label, record)


def _run_pooled(
    units: list[_Unit],
    execute: Callable[..., dict],
    policy: RetryPolicy,
    scale: float,
    workers: int,
    deadline_s: float | None,
    outcome: RunOutcome,
    absorb: Callable[[dict], None],
    finish: Callable[[str, ExperimentRecord], None],
) -> None:
    """Dispatch-loop scheduler: deadlines, retries, pool rebuilds.

    Work lives in a ready queue of :class:`_Pending` entries (with a
    ``not_before`` backoff timestamp) and an in-flight map of futures.
    Each cycle submits ready work, waits for the first completion (or
    the next deadline/backoff expiry), classifies failures, and either
    re-queues or records them. A :class:`BrokenProcessPool` poisons
    every in-flight future indistinguishably, so all of them burn an
    attempt and the pool is rebuilt; a deadline expiry identifies its
    culprit exactly, so other in-flight units are re-queued at the same
    attempt after the (unavoidable) pool teardown.
    """
    queue: list[_Pending] = [_Pending(unit=unit) for unit in units]
    inflight: dict[Future, tuple[_Pending, float]] = {}
    pool = ProcessPoolExecutor(max_workers=workers)

    def fail_or_requeue(pending: _Pending, exc: BaseException) -> None:
        kind = classify_failure(exc)
        if policy.should_retry(kind, pending.attempt):
            delay = policy.delay_s(pending.unit.label, pending.attempt)
            queue.append(
                _Pending(
                    unit=pending.unit,
                    attempt=pending.attempt + 1,
                    not_before=time.monotonic() + delay,
                )
            )
            return
        finish(
            pending.unit.label,
            _error_record(pending.unit, exc, 0.0, scale, pending.attempt),
        )

    try:
        while queue or inflight:
            now = time.monotonic()
            while queue and len(inflight) < workers:
                ready = next(
                    (p for p in queue if p.not_before <= now), None
                )
                if ready is None:
                    break
                queue.remove(ready)
                future = pool.submit(
                    execute, ready.unit.label, ready.unit.spec, attempt=ready.attempt
                )
                inflight[future] = (ready, time.monotonic())

            if not inflight:
                # everything queued is backing off; sleep to the earliest
                wake = min(p.not_before for p in queue)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue

            timeouts: list[float] = []
            if deadline_s is not None:
                earliest = min(sub for _, sub in inflight.values())
                timeouts.append(
                    max(0.0, earliest + deadline_s - time.monotonic())
                    + _WAKE_SLACK_S
                )
            if queue and len(inflight) < workers:
                next_ready = min(p.not_before for p in queue)
                timeouts.append(max(0.0, next_ready - time.monotonic()))
            done, _ = wait(
                list(inflight),
                timeout=min(timeouts) if timeouts else None,
                return_when=FIRST_COMPLETED,
            )

            pool_broken = False
            for future in done:
                pending, _submitted = inflight.pop(future)
                try:
                    raw = future.result()
                except BrokenProcessPool as exc:
                    # the pool is dead; every other in-flight future is
                    # poisoned too and the culprit is indistinguishable,
                    # so all of them burn an attempt
                    pool_broken = True
                    fail_or_requeue(pending, exc)
                except Exception as exc:
                    fail_or_requeue(pending, exc)
                else:
                    absorb(raw)
                    record, result = _record_from(
                        raw, pending.unit, scale, pending.attempt
                    )
                    outcome.results[pending.unit.label] = result
                    finish(pending.unit.label, record)

            if pool_broken:
                for future, (pending, _submitted) in list(inflight.items()):
                    fail_or_requeue(
                        pending, BrokenProcessPool("process pool died mid-run")
                    )
                inflight.clear()
                _shutdown_now(pool)
                pool = ProcessPoolExecutor(max_workers=workers)
                continue

            if deadline_s is not None:
                now = time.monotonic()
                expired = [
                    future
                    for future, (_pending, submitted) in inflight.items()
                    if now - submitted > deadline_s
                ]
                if expired:
                    for future in expired:
                        pending, submitted = inflight.pop(future)
                        fail_or_requeue(
                            pending,
                            DeadlineExceededError(
                                f"{pending.unit.label!r} exceeded its "
                                f"{deadline_s:.1f}s deadline "
                                f"(attempt {pending.attempt})"
                            ),
                        )
                    # terminating the hung worker kills the whole pool;
                    # the innocent in-flight units are victims, so they
                    # re-queue at the same attempt, immediately
                    for future, (pending, _submitted) in list(inflight.items()):
                        queue.append(
                            _Pending(unit=pending.unit, attempt=pending.attempt)
                        )
                    inflight.clear()
                    _shutdown_now(pool)
                    pool = ProcessPoolExecutor(max_workers=workers)
    finally:
        _shutdown_now(pool)


def resume_run(
    manifest_path: str | Path,
    *,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    progress: ProgressCallback | None = None,
    collect_telemetry: bool = False,
    deadline_s: float | None = None,
    retry: RetryPolicy | None = None,
    fault_plan: "faults_mod.FaultPlan | Mapping | None" = None,
) -> RunOutcome:
    """Re-execute only what ``manifest_path`` records as unfinished.

    Checkpoint-resume for crashed, hung or partially failed sweeps: the
    manifest is the checkpoint. Records with terminal-success status
    are carried over verbatim; everything else is rebuilt into work
    units (experiments from their recorded id/scale/options, scenarios
    from their recorded ``scenario_spec``) and re-run through
    :func:`run_many` — and therefore through the digest-keyed result
    cache, so work that completed before the original run died is not
    recomputed.

    The returned outcome's manifest preserves the original record
    order, marks its provenance in ``resumed_from``, and contains the
    merged record set; ``outcome.results`` holds only the re-executed
    entries.
    """
    previous = RunManifest.read(manifest_path)
    pending = previous.pending()

    if not pending:
        manifest = RunManifest(
            jobs=jobs if jobs is not None else previous.jobs,
            scale=previous.scale,
            cache_dir=previous.cache_dir,
            package_version=cache_mod._package_version(),
            records=list(previous.records),
            resumed_from=str(manifest_path),
        )
        outcome = RunOutcome(manifest=manifest)
        if collect_telemetry:
            outcome.telemetry = TelemetryRegistry()
        return outcome

    ids: list[str] = []
    options: dict[str, dict] = {}
    scenario_specs: list[dict] = []
    for record in pending:
        if record.experiment_id.startswith("scenario:"):
            if record.scenario_spec is None:
                raise ConfigurationError(
                    f"cannot resume {record.experiment_id!r}: the manifest "
                    "records no scenario spec for it (written by an older "
                    "version?); re-run it from its scenario file instead"
                )
            scenario_specs.append(record.scenario_spec)
        else:
            ids.append(record.experiment_id)
            if record.options:
                options[record.experiment_id] = dict(record.options)

    outcome = run_many(
        ids if ids else None,
        jobs=jobs if jobs is not None else previous.jobs,
        scale=previous.scale,
        options=options,
        scenarios=scenario_specs or None,
        cache_dir=cache_dir if cache_dir is not None else previous.cache_dir,
        use_cache=use_cache,
        progress=progress,
        collect_telemetry=collect_telemetry,
        deadline_s=deadline_s,
        retry=retry,
        fault_plan=fault_plan,
    )
    fresh = {record.experiment_id: record for record in outcome.manifest.records}
    outcome.manifest.records = [
        fresh.get(record.experiment_id, record) for record in previous.records
    ]
    outcome.manifest.resumed_from = str(manifest_path)
    return outcome

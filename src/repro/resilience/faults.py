"""Deterministic fault injection: the seeded :class:`FaultPlan`.

"Cleaning up the Mess" showed that simulator failures which are merely
*survived* — instead of detected and classified — quietly corrupt
published numbers. The execution layer here is therefore hardened
against crashes, hangs, cache corruption and controller divergence, and
this module provides the proof: a declarative plan of faults, injected
at well-defined points, fully deterministic under a fixed seed so every
chaos run is replayable.

A plan is JSON (marker key ``"repro_fault_plan": 1``)::

    {
      "repro_fault_plan": 1,
      "seed": 1234,
      "faults": [
        {"kind": "crash", "target": "fig2", "attempts": [1]},
        {"kind": "hang", "target": "fig17", "seconds": 30.0},
        {"kind": "cache-corrupt", "target": "*"},
        {"kind": "controller-nan", "target": "scenario:*", "window": 2}
      ]
    }

Fault kinds and their injection sites:

- ``crash`` — worker entry: the worker process exits hard
  (``os._exit``), surfacing as ``BrokenProcessPool`` in the parent. In
  the inline (``jobs=1``) path it raises
  :class:`~repro.resilience.failures.WorkerCrashError` instead, so the
  parent survives.
- ``hang`` — worker entry: sleeps ``seconds`` (default far beyond any
  deadline), exercising deadline enforcement and pool rebuild.
- ``error`` — worker entry: raises a typed exception of class
  ``failure_kind`` (``cache-error`` or ``model-error``), exercising the
  classification path end to end.
- ``cache-corrupt`` — just before the result-cache read: overwrites the
  on-disk entry for the unit's key with garbage, exercising quarantine
  and recompute.
- ``controller-nan`` — inside the Mess simulator's control loop: the
  observed window bandwidth is replaced with ``value`` (default NaN) at
  window ``window``, exercising the divergence guardrails.

Faults match a unit by ``fnmatch`` pattern on its label (``fig2``,
``scenario:my-run``), by attempt number, and — when ``probability`` is
below 1 — by a deterministic seeded draw, so the same plan fires the
same faults in every process of every run.

Activation mirrors the cache and telemetry registries: process-global,
nothing active by default, with the simulator reading :func:`active`
once at construction (null-sink fast path).
"""

from __future__ import annotations

import fnmatch
import json
import math
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

from ..errors import CacheError, ResilienceError, SimulationError
from .failures import WorkerCrashError
from .retry import deterministic_fraction

if TYPE_CHECKING:  # pragma: no cover
    from ..runner.cache import ResultCache

#: Top-level marker key identifying a JSON object as a fault plan.
FORMAT_KEY = "repro_fault_plan"

#: Current fault-plan format version.
FORMAT_VERSION = 1

#: Every fault kind a plan may declare.
FAULT_KINDS = ("crash", "hang", "error", "cache-corrupt", "controller-nan")

#: Exit status used by injected worker crashes (grep-able in CI logs).
CRASH_EXIT_STATUS = 23

#: ``error``-kind faults raise one of these, keyed by ``failure_kind``.
_ERROR_CLASSES = {
    "cache-error": CacheError,
    "model-error": SimulationError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what to inject, where, and when."""

    kind: str
    target: str = "*"
    #: Attempt numbers (1-based) on which the fault fires. The default
    #: ``(1,)`` makes a fault transient: the retry or resume succeeds.
    attempts: tuple[int, ...] = (1,)
    #: Firing probability per (target, attempt); the draw is seeded by
    #: the owning plan, so it is deterministic across processes.
    probability: float = 1.0
    #: ``controller-nan``: control-loop window index to corrupt.
    window: int = 0
    #: ``controller-nan``: the injected feedback value.
    value: float = float("nan")
    #: ``hang``: sleep duration.
    seconds: float = 3600.0
    #: ``error``: which typed failure to raise.
    failure_kind: str = "model-error"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; known: {list(FAULT_KINDS)}"
            )
        if not self.target:
            raise ResilienceError("fault target must be a non-empty pattern")
        if not self.attempts or any(a < 1 for a in self.attempts):
            raise ResilienceError(
                f"fault attempts must be positive integers, got {self.attempts}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ResilienceError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.window < 0:
            raise ResilienceError(
                f"fault window must be non-negative, got {self.window}"
            )
        if self.seconds < 0:
            raise ResilienceError(
                f"fault seconds must be non-negative, got {self.seconds}"
            )
        if self.kind == "error" and self.failure_kind not in _ERROR_CLASSES:
            raise ResilienceError(
                f"error faults raise one of {sorted(_ERROR_CLASSES)}, "
                f"got {self.failure_kind!r}"
            )

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind, "target": self.target}
        if self.attempts != (1,):
            payload["attempts"] = list(self.attempts)
        if self.probability != 1.0:
            payload["probability"] = self.probability
        if self.kind == "controller-nan":
            payload["window"] = self.window
            if not math.isnan(self.value):
                payload["value"] = self.value
        if self.kind == "hang":
            payload["seconds"] = self.seconds
        if self.kind == "error":
            payload["failure_kind"] = self.failure_kind
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping, where: str = "fault") -> "FaultSpec":
        if not isinstance(payload, Mapping):
            raise ResilienceError(
                f"{where}: expected an object, got {type(payload).__name__}"
            )
        known = {
            "kind",
            "target",
            "attempts",
            "probability",
            "window",
            "value",
            "seconds",
            "failure_kind",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ResilienceError(
                f"{where}: unknown key(s) {unknown}; known: {sorted(known)}"
            )
        try:
            attempts = payload.get("attempts", [1])
            value = payload.get("value", float("nan"))
            return cls(
                kind=str(payload.get("kind", "")),
                target=str(payload.get("target", "*")),
                attempts=tuple(int(a) for a in attempts),
                probability=float(payload.get("probability", 1.0)),
                window=int(payload.get("window", 0)),
                value=float(value),
                seconds=float(payload.get("seconds", 3600.0)),
                failure_kind=str(payload.get("failure_kind", "model-error")),
            )
        except (TypeError, ValueError) as exc:
            raise ResilienceError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults, filterable down to one unit of work.

    The full plan travels to workers as JSON; each worker scopes it to
    its own ``(label, attempt)`` with :meth:`scoped` and activates the
    result, so injection sites only ever consult faults that already
    matched.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def scoped(self, label: str, attempt: int) -> "FaultPlan":
        """The sub-plan of faults firing for this unit and attempt."""
        selected = tuple(
            spec
            for index, spec in enumerate(self.faults)
            if fnmatch.fnmatchcase(label, spec.target)
            and attempt in spec.attempts
            and (
                spec.probability >= 1.0
                or deterministic_fraction(
                    "fault", self.seed, index, label, attempt
                )
                < spec.probability
            )
        )
        return FaultPlan(seed=self.seed, faults=selected)

    def matching(self, kind: str) -> tuple[FaultSpec, ...]:
        """Every fault of one kind in this (usually scoped) plan."""
        return tuple(spec for spec in self.faults if spec.kind == kind)

    # ------------------------------------------------------------------
    # Injection sites
    # ------------------------------------------------------------------

    def fire_entry_faults(self, label: str) -> None:
        """Worker-entry faults: hang, then typed error, then crash.

        A hard crash in the main process would take the whole run down,
        so inline execution raises :class:`WorkerCrashError` instead —
        same classification, survivable parent.
        """
        for spec in self.matching("hang"):
            time.sleep(spec.seconds)
        for spec in self.matching("error"):
            raise _ERROR_CLASSES[spec.failure_kind](
                f"injected {spec.failure_kind} fault for {label!r}"
            )
        for spec in self.matching("crash"):
            del spec
            if multiprocessing.parent_process() is None:
                raise WorkerCrashError(f"injected worker crash for {label!r}")
            os._exit(CRASH_EXIT_STATUS)

    def corrupt_cache_entry(self, cache: "ResultCache", key: str) -> bool:
        """``cache-corrupt`` site: trash the on-disk entry for ``key``.

        Returns whether an existing entry was corrupted (a cold cache
        has nothing to corrupt — the fault is then a no-op, exactly
        like real corruption of a file that does not exist).
        """
        fired = False
        for spec in self.matching("cache-corrupt"):
            del spec
            path = cache.path_for(key)
            if path.exists():
                path.write_bytes(b"\x00repro-injected-corruption")
                fired = True
        return fired

    def feedback_override(self, window_index: int) -> float | None:
        """``controller-nan`` site: the corrupted feedback, if any."""
        for spec in self.matching("controller-nan"):
            if spec.window == window_index:
                return spec.value
        return None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            FORMAT_KEY: FORMAT_VERSION,
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping, where: str = "fault plan"
    ) -> "FaultPlan":
        if not isinstance(payload, Mapping):
            raise ResilienceError(
                f"{where}: expected an object, got {type(payload).__name__}"
            )
        version = payload.get(FORMAT_KEY)
        if version != FORMAT_VERSION:
            raise ResilienceError(
                f"{where}: expected {FORMAT_KEY!r}: {FORMAT_VERSION}, "
                f"got {version!r}"
            )
        unknown = sorted(set(payload) - {FORMAT_KEY, "seed", "faults"})
        if unknown:
            raise ResilienceError(f"{where}: unknown key(s) {unknown}")
        raw_faults = payload.get("faults", [])
        if not isinstance(raw_faults, list):
            raise ResilienceError(f"{where}.faults: expected a list")
        try:
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise ResilienceError(f"{where}.seed: {exc}") from exc
        return cls(
            seed=seed,
            faults=tuple(
                FaultSpec.from_dict(entry, where=f"{where}.faults[{index}]")
                for index, entry in enumerate(raw_faults)
            ),
        )


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read and validate a fault-plan JSON file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ResilienceError(f"cannot read fault plan {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ResilienceError(f"{path}: invalid JSON: {exc}") from exc
    return FaultPlan.from_dict(payload, where=str(path))


# ----------------------------------------------------------------------
# Process-global activation (mirrors repro.runner.cache / telemetry)
# ----------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None


def active() -> FaultPlan | None:
    """The currently active fault plan, if any."""
    return _ACTIVE


@contextmanager
def activation(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Activate ``plan`` for the duration of the block, then restore.

    ``None`` deactivates for the block — used by the runner so a unit
    with no matching faults runs with the null fast path even when the
    parent process has a plan active.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous

"""Run manifests: what ran, how long it took, what came out.

Every :func:`repro.runner.run_many` invocation produces a manifest — a
JSON document recording, per experiment, the options it ran with, its
wall time, row count, cache traffic and a content digest of its result
table. Manifests make runs comparable: two runs whose digests agree
produced byte-identical tables, whatever their job counts or cache
states were.
"""

from __future__ import annotations

import json
import platform as platform_mod
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping

from ..errors import ConfigurationError
from ..resilience.failures import FAILURE_KINDS

#: Manifest schema version, bumped on incompatible layout changes.
#: Readers tolerate unknown keys, so additive changes (the environment
#: header, per-experiment telemetry) do not bump it.
MANIFEST_VERSION = 1

#: The terminal states a record may carry.
_STATUSES = ("ok", "error")

#: The header keys :func:`environment_header` writes.
_ENVIRONMENT_KEYS = ("python_version", "platform")

#: Record fields that count something and cannot be negative.
_COUNTS = ("duration_s", "rows", "cache_hits", "cache_misses")

#: Optional header fields and the JSON types a reader can use.
_HEADER_TYPES: dict[str, tuple[type, ...]] = {
    "jobs": (int,),
    "scale": (int, float),
    "cache_dir": (str, type(None)),
    "package_version": (str,),
    "started_at": (int, float),
    "wall_time_s": (int, float),
    "resumed_from": (str, type(None)),
}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def environment_header() -> dict:
    """Python version and platform string of the running interpreter.

    Recorded in every manifest so two runs can be compared knowing
    whether they came from the same interpreter and OS build.
    """
    version = sys.version_info
    return {
        "python_version": f"{version.major}.{version.minor}.{version.micro}",
        "platform": platform_mod.platform(),
    }


@dataclass
class ExperimentRecord:
    """Telemetry for one experiment within a run."""

    experiment_id: str
    status: str  # "ok" | "error"
    duration_s: float = 0.0
    rows: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    result_digest: str | None = None
    scale: float = 1.0
    options: dict = field(default_factory=dict)
    error: str | None = None
    #: Per-experiment telemetry summary (counter totals, span durations)
    #: from :meth:`repro.telemetry.TelemetryRegistry.summary`; None when
    #: the run did not collect telemetry.
    telemetry: dict | None = None
    #: Typed failure class (see :data:`repro.resilience.FAILURE_KINDS`);
    #: None for successful experiments.
    failure_kind: str | None = None
    #: How many attempts this record consumed (retries included).
    attempts: int = 1
    #: Full traceback of the recorded failure — ``error`` keeps the
    #: one-line summary for tables, this keeps the evidence.
    traceback: str | None = None
    #: True when the simulator survived this experiment in degraded mode
    #: (controller divergence/NaN clamped to the curve bounds).
    degraded: bool = False
    #: For ``scenario:*`` records: the scenario's canonical spec, so a
    #: failed scenario can be re-executed by ``repro run --resume``.
    scenario_spec: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(
        cls, payload: Mapping, where: str = "experiment record"
    ) -> "ExperimentRecord":
        """Build a record, or raise one error naming every problem.

        Unknown keys are dropped, not fatal: manifests written by a
        newer package version must stay readable by this one.
        """
        problems = _record_problems(payload, where)
        if problems:
            raise ConfigurationError("; ".join(problems))
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


def _record_problems(payload: object, where: str) -> list[str]:
    """Every way one record breaks the manifest format, as messages."""
    if not isinstance(payload, Mapping):
        return [f"{where} is not an object"]
    problems: list[str] = []
    experiment_id = payload.get("experiment_id")
    if not (isinstance(experiment_id, str) and experiment_id):
        problems.append(f"{where}: missing experiment_id")
    status = payload.get("status")
    if status not in _STATUSES:
        problems.append(
            f"{where}: status must be one of {_STATUSES}, got {status!r}"
        )
    if status == "error" and not payload.get("error"):
        problems.append(
            f"{where}: status is 'error' but no error message recorded"
        )
    failure_kind = payload.get("failure_kind")
    if failure_kind is not None and failure_kind not in FAILURE_KINDS:
        problems.append(
            f"{where}: failure_kind must be one of {list(FAILURE_KINDS)}, "
            f"got {failure_kind!r}"
        )
    attempts = payload.get("attempts", 1)
    if not isinstance(attempts, int) or attempts < 1:
        problems.append(
            f"{where}: attempts must be a positive integer, got {attempts!r}"
        )
    digest = payload.get("result_digest")
    if digest is not None and not (
        isinstance(digest, str)
        and len(digest) >= 8
        and all(ch in "0123456789abcdef" for ch in digest)
    ):
        problems.append(f"{where}: result_digest {digest!r} is not a hex digest")
    for key in _COUNTS:
        value = payload.get(key, 0)
        if not _is_number(value) or value < 0:
            problems.append(
                f"{where}: {key} must be a non-negative number, got {value!r}"
            )
    scale = payload.get("scale", 1.0)
    if not _is_number(scale):
        problems.append(f"{where}: scale must be a number, got {scale!r}")
    if not isinstance(payload.get("options", {}), Mapping):
        problems.append(
            f"{where}: options must be an object, got {payload['options']!r}"
        )
    spec = payload.get("scenario_spec")
    if spec is not None and not isinstance(spec, Mapping):
        problems.append(
            f"{where}: scenario_spec must be an object, got {spec!r}"
        )
    return problems


@dataclass
class RunManifest:
    """One ``run_many`` invocation, summarized."""

    jobs: int = 1
    scale: float = 1.0
    cache_dir: str | None = None
    package_version: str = ""
    python_version: str = field(
        default_factory=lambda: environment_header()["python_version"]
    )
    platform: str = field(default_factory=lambda: environment_header()["platform"])
    started_at: float = field(default_factory=time.time)
    wall_time_s: float = 0.0
    records: list[ExperimentRecord] = field(default_factory=list)
    #: Path of the manifest this run resumed from, when it did.
    resumed_from: str | None = None

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when every experiment completed."""
        return all(record.status == "ok" for record in self.records)

    @property
    def total_cache_hits(self) -> int:
        return sum(record.cache_hits for record in self.records)

    @property
    def total_rows(self) -> int:
        return sum(record.rows for record in self.records)

    def pending(self) -> list[ExperimentRecord]:
        """Records that did not reach terminal success.

        This is what ``repro run --resume`` re-executes: everything a
        crashed, hung or partially failed sweep left unfinished.
        """
        return [record for record in self.records if record.status != "ok"]

    def failure_summary(self) -> dict[str, int]:
        """Failed-record count per typed failure class.

        Records predating the failure taxonomy (no ``failure_kind``)
        count as ``unclassified``; a current run never produces those.
        """
        summary: dict[str, int] = {}
        for record in self.records:
            if record.status == "ok":
                continue
            kind = record.failure_kind or "unclassified"
            summary[kind] = summary.get(kind, 0) + 1
        return summary

    def summary(self) -> str:
        """One-line human summary for CLI output and logs."""
        failed = sum(1 for r in self.records if r.status != "ok")
        degraded = sum(1 for r in self.records if r.degraded)
        parts = [
            f"{len(self.records)} experiment(s)",
            f"{self.total_rows} rows",
            f"{self.wall_time_s:.1f}s wall",
            f"jobs={self.jobs}",
            f"cache hits={self.total_cache_hits}",
        ]
        if degraded:
            parts.append(f"degraded={degraded}")
        if failed:
            classes = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.failure_summary().items())
            )
            parts.append(f"FAILED={failed} ({classes})")
        return ", ".join(parts)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "manifest_version": MANIFEST_VERSION,
            "jobs": self.jobs,
            "scale": self.scale,
            "cache_dir": self.cache_dir,
            "package_version": self.package_version,
            "python_version": self.python_version,
            "platform": self.platform,
            "started_at": self.started_at,
            "wall_time_s": self.wall_time_s,
            "resumed_from": self.resumed_from,
            "experiments": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunManifest":
        """Build a manifest, or raise one error naming every problem.

        The version, the environment header and the record list are
        required; unknown keys are ignored, so a manifest written by a
        newer package version stays readable by this one.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                "malformed run manifest: not a JSON object"
            )
        problems: list[str] = []
        version = payload.get("manifest_version")
        if not isinstance(version, int) or version < 1:
            problems.append(
                f"manifest_version must be a positive integer, got {version!r}"
            )
        for key in _ENVIRONMENT_KEYS:
            value = payload.get(key)
            if not (isinstance(value, str) and value):
                problems.append(f"environment header key {key!r} missing or empty")
        for key, kinds in _HEADER_TYPES.items():
            value = payload.get(key)
            if key in payload and (
                isinstance(value, bool) or not isinstance(value, kinds)
            ):
                problems.append(f"{key} has the wrong type: {value!r}")
        entries = payload.get("experiments")
        records: list[ExperimentRecord] = []
        if not isinstance(entries, list):
            problems.append(
                f"'experiments' must be a list, got {type(entries).__name__}"
            )
        else:
            for index, entry in enumerate(entries):
                try:
                    records.append(
                        ExperimentRecord.from_dict(
                            entry, where=f"experiments[{index}]"
                        )
                    )
                except ConfigurationError as exc:
                    problems.append(str(exc))
        if problems:
            raise ConfigurationError(
                "malformed run manifest: " + "; ".join(problems)
            )
        return cls(
            jobs=payload.get("jobs", 1),
            scale=payload.get("scale", 1.0),
            cache_dir=payload.get("cache_dir"),
            package_version=payload.get("package_version", ""),
            python_version=payload["python_version"],
            platform=payload["platform"],
            started_at=payload.get("started_at", 0.0),
            wall_time_s=payload.get("wall_time_s", 0.0),
            resumed_from=payload.get("resumed_from"),
            records=records,
        )

    def write(self, path: str | Path) -> None:
        """Write the manifest as indented JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def read(cls, path: str | Path) -> "RunManifest":
        """Read a manifest written by :meth:`write`."""
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read manifest {path}: {exc}") from exc
        return cls.from_dict(payload)

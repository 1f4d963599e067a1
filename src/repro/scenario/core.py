"""The Scenario: one declarative description of a complete run.

A scenario names everything a run depends on — the CPU substrate, the
memory model and its parameters, the characterization sweep, and the
workload — in one canonically-serializable object. Its
:meth:`Scenario.digest` is *the* cache identity: the result store keys
every entry on it, and two scenarios that digest equal are guaranteed
to describe the same run.

Two workload kinds exist:

- ``{"kind": "characterize"}`` — run the Mess benchmark on the
  scenario's system + memory and report the measured curve family.
  This is the kind scenario files usually declare, and the kind every
  experiment module uses internally (via :mod:`repro.scenario.presets`)
  to build its substrates.
- ``{"kind": "experiment", "experiment_id": ..., "scale": ...,
  "options": {...}}`` — delegate to a registered experiment module.
  The system/memory/sweep sections must be absent: the experiment owns
  its machines (each one itself declared as characterize scenarios).
  This is the spelling the runner uses to key ``repro run fig4`` runs.

Scenario files are JSON objects carrying the ``"repro_scenario": 1``
format marker; :func:`load_scenario` reads one from disk.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, Mapping

from ..bench.harness import MessBenchmark, MessBenchmarkConfig
from ..core.family import CurveFamily
from ..cpu.cachemodel import canonical_cache_spec, validate_cache_model
from ..cpu.system import System, SystemConfig
from ..errors import ConfigurationError, MessError
from ..memmodels.base import MemoryModel
from ..specs import spec_digest
from . import memory as memory_specs
from .options import apply_overrides

#: Top-level marker key identifying a JSON object as a scenario file.
FORMAT_KEY = "repro_scenario"

#: Current scenario format version; bump on incompatible layout change.
FORMAT_VERSION = 1

_WORKLOAD_KINDS = ("characterize", "experiment")

#: Values the retired ``engine`` key may still carry in old scenario
#: files, request bodies and manifests. Both results were bit-identical,
#: so such a spec loads with the key dropped and digests as the default.
_LEGACY_ENGINES = ("reference", "vectorized")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A validated, digestable description of one run.

    Construct directly, via :meth:`from_spec`, via
    :meth:`for_experiment`, or through the preset helpers in
    :mod:`repro.scenario.presets`. The instance is frozen; derive
    variants with :meth:`with_overrides`.
    """

    name: str
    workload: Mapping = dataclasses.field(
        default_factory=lambda: {"kind": "characterize"}
    )
    system: SystemConfig | None = None
    #: ``{"kind": ..., "params": {...}}`` memory-model spec
    #: (see :mod:`repro.scenario.memory`), or None for experiment
    #: workloads.
    memory: Mapping | None = None
    sweep: MessBenchmarkConfig | None = None
    theoretical_bandwidth_gbps: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        # characterize scenarios always carry an explicit machine, so
        # their digest is value-canonical rather than default-shaped
        if self.workload_kind == "characterize":
            if self.system is None:
                object.__setattr__(self, "system", SystemConfig())
            if self.sweep is None:
                object.__setattr__(self, "sweep", MessBenchmarkConfig())

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def workload_kind(self) -> str:
        kind = self.workload.get("kind") if isinstance(self.workload, Mapping) else None
        return str(kind) if kind is not None else ""

    def to_spec(self) -> dict:
        """Canonical JSON-typed encoding, suitable for a scenario file."""
        spec: dict = {
            FORMAT_KEY: FORMAT_VERSION,
            "name": self.name,
            "workload": _canonical_workload(self.workload),
        }
        if self.description:
            spec["description"] = self.description
        if self.system is not None:
            spec["system"] = self.system.to_spec()
        if self.memory is not None:
            spec["memory"] = memory_specs.canonical_memory_spec(
                str(self.memory.get("kind")), self.memory.get("params") or {}
            )
        if self.sweep is not None:
            spec["sweep"] = self.sweep.to_spec()
        if self.theoretical_bandwidth_gbps is not None:
            spec["theoretical_bandwidth_gbps"] = float(
                self.theoretical_bandwidth_gbps
            )
        return spec

    def digest(self) -> str:
        """Stable content digest — the run's cache identity.

        The description is cosmetic and excluded; everything else
        (including the name, which labels result rows) participates.
        Canonicalization makes the digest insensitive to key order and
        to spelling (timing presets expand to their values first).
        """
        payload = self.to_spec()
        payload.pop("description", None)
        return spec_digest(payload)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, payload: Mapping, where: str = "scenario") -> "Scenario":
        """Build a scenario from a spec dict, strictly validated."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"{where}: expected an object, got {type(payload).__name__}"
            )
        version = payload.get(FORMAT_KEY)
        if version != FORMAT_VERSION:
            raise ConfigurationError(
                f"{where}: expected {FORMAT_KEY!r}: {FORMAT_VERSION}, "
                f"got {version!r}"
            )
        known = {
            FORMAT_KEY,
            "name",
            "description",
            "workload",
            "system",
            "memory",
            "sweep",
            "theoretical_bandwidth_gbps",
            "engine",
            "cache",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"{where}: unknown key(s) {unknown}; known: {sorted(known)}"
            )
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"{where}.name: required non-empty string")
        workload = payload.get("workload", {"kind": "characterize"})
        if not isinstance(workload, Mapping):
            raise ConfigurationError(f"{where}.workload: expected an object")
        system = payload.get("system")
        cache_sugar = payload.get("cache")
        if cache_sugar is not None:
            # top-level shorthand: fold onto system.cache (preset name,
            # preset + overrides, or field overrides over the current
            # model). The canonical spelling always lives inside the
            # system section, so the digest is spelling-insensitive.
            if system is not None and not isinstance(system, Mapping):
                raise ConfigurationError(f"{where}.system: expected an object")
            folded = dict(system) if isinstance(system, Mapping) else {}
            existing = folded.get("cache")
            label = f"{where}.cache"
            if (
                existing is not None
                and isinstance(cache_sugar, Mapping)
                and "preset" not in cache_sugar
            ):
                merged = canonical_cache_spec(
                    existing, where=f"{where}.system.cache"
                )
                merged.update(
                    {str(key): value for key, value in cache_sugar.items()}
                )
                folded["cache"] = canonical_cache_spec(merged, where=label)
            else:
                folded["cache"] = canonical_cache_spec(cache_sugar, where=label)
            system = folded
        memory = payload.get("memory")
        sweep = payload.get("sweep")
        theoretical = payload.get("theoretical_bandwidth_gbps")
        if theoretical is not None:
            problem = _positive_number_problem(theoretical)
            if problem:
                raise ConfigurationError(
                    f"{where}.theoretical_bandwidth_gbps: {problem}"
                )
        if "engine" in payload and payload["engine"] not in _LEGACY_ENGINES:
            raise ConfigurationError(
                f"{where}.engine: obsolete key, accepted (and ignored) only "
                f"as one of {list(_LEGACY_ENGINES)}; got {payload['engine']!r}"
            )
        if memory is not None:
            if not isinstance(memory, Mapping) or "kind" not in memory:
                raise ConfigurationError(
                    f"{where}.memory: expected {{'kind': ..., 'params': ...}}"
                )
            extra = sorted(set(memory) - {"kind", "params"})
            if extra:
                raise ConfigurationError(
                    f"{where}.memory: unknown key(s) {extra}"
                )
        scenario = cls(
            name=name,
            workload=_canonical_workload(workload, where=f"{where}.workload"),
            system=(
                SystemConfig.from_spec(system, where=f"{where}.system")
                if system is not None
                else None
            ),
            memory=dict(memory) if memory is not None else None,
            sweep=(
                MessBenchmarkConfig.from_spec(sweep, where=f"{where}.sweep")
                if sweep is not None
                else None
            ),
            theoretical_bandwidth_gbps=(
                float(theoretical) if theoretical is not None else None
            ),
            description=str(payload.get("description", "")),
        )
        problems = scenario.validate()
        if problems:
            raise ConfigurationError(f"{where}: " + "; ".join(problems))
        return scenario

    @classmethod
    def for_experiment(
        cls,
        experiment_id: str,
        scale: float = 1.0,
        options: Mapping | None = None,
    ) -> "Scenario":
        """The scenario describing one registered-experiment run.

        This is what the runner digests to key the result cache: the
        experiment id, the scale and the full option set, nothing else.
        """
        return cls(
            name=f"experiment:{experiment_id}",
            workload={
                "kind": "experiment",
                "experiment_id": str(experiment_id),
                "scale": float(scale),
                "options": dict(options or {}),
            },
        )

    def with_overrides(self, assignments: Mapping[str, object]) -> "Scenario":
        """A new scenario with dotted-path overrides applied.

        ``{"system.cores": 8}`` adjusts the system section; the result
        re-validates from scratch, so an override cannot produce a
        scenario that a file could not.
        """
        if not assignments:
            return self
        payload = self.to_spec()
        # ``cache.*`` overrides target shorthand sections the canonical
        # spec omits when default — seed empty objects so dotted paths
        # have something to land in.
        keys = [str(key) for key in assignments]
        if any(key == "cache" or key.startswith("cache.") for key in keys):
            payload.setdefault("cache", {})
        if any(key.startswith("system.cache") for key in keys):
            system_section = payload.get("system")
            if isinstance(system_section, dict):
                system_section.setdefault("cache", {})
        return Scenario.from_spec(apply_overrides(payload, assignments))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> list[str]:
        """All problems with this scenario; empty means runnable."""
        problems: list[str] = []
        if not self.name:
            problems.append("name: must be non-empty")
        kind = self.workload_kind
        if kind not in _WORKLOAD_KINDS:
            problems.append(
                f"workload.kind: expected one of {list(_WORKLOAD_KINDS)}, "
                f"got {kind!r}"
            )
            return problems
        if kind == "characterize":
            if self.system is not None:
                problems.extend(
                    validate_cache_model(
                        self.system.cache, self.system.hierarchy
                    )
                )
            if self.memory is None:
                problems.append("memory: required for characterize workloads")
            else:
                problems.extend(
                    memory_specs.validate_memory_spec(
                        str(self.memory.get("kind")),
                        self.memory.get("params") or {},
                    )
                )
            extra = sorted(
                set(self.workload) - {"kind"}
            )
            if extra:
                problems.append(
                    f"workload: unknown key(s) {extra} for characterize"
                )
        else:
            problems.extend(self._validate_experiment_workload())
            for section, value in (
                ("system", self.system),
                ("memory", self.memory),
                ("sweep", self.sweep),
            ):
                if value is not None:
                    problems.append(
                        f"{section}: must be absent for experiment workloads "
                        "(the experiment declares its own machines)"
                    )
            if self.theoretical_bandwidth_gbps is not None:
                problems.append(
                    "theoretical_bandwidth_gbps: must be absent for "
                    "experiment workloads"
                )
        return problems

    def _validate_experiment_workload(self) -> list[str]:
        problems: list[str] = []
        extra = sorted(
            set(self.workload) - {"kind", "experiment_id", "scale", "options"}
        )
        if extra:
            problems.append(f"workload: unknown key(s) {extra} for experiment")
        experiment_id = self.workload.get("experiment_id")
        if not isinstance(experiment_id, str) or not experiment_id:
            problems.append("workload.experiment_id: required non-empty string")
            return problems
        problem = _positive_number_problem(self.workload.get("scale", 1.0))
        if problem:
            problems.append(f"workload.scale: {problem}")
        options = self.workload.get("options", {})
        if not isinstance(options, Mapping):
            problems.append("workload.options: expected an object")
            return problems
        # imported lazily: the registry imports every experiment module,
        # which imports the scenario presets — cycle if done at top level
        from ..experiments import registry

        try:
            registry.get_spec(experiment_id)
            registry.validate_options(experiment_id, dict(options))
        except MessError as exc:
            problems.append(str(exc))
        return problems

    # ------------------------------------------------------------------
    # Materialization and execution
    # ------------------------------------------------------------------

    def materialize(self) -> "MaterializedScenario":
        """Build the runnable pieces of a characterize scenario.

        This is the single factory through which every experiment (and
        the CLI) obtains systems, memory factories and benchmarks — the
        one place scenario specs turn into simulation objects.
        """
        if self.workload_kind != "characterize":
            raise ConfigurationError(
                f"scenario {self.name!r}: only characterize scenarios "
                f"materialize (got workload kind {self.workload_kind!r})"
            )
        problems = self.validate()
        if problems:
            raise ConfigurationError(
                f"scenario {self.name!r}: " + "; ".join(problems)
            )
        assert self.memory is not None and self.system is not None
        assert self.sweep is not None
        kind = str(self.memory.get("kind"))
        params = self.memory.get("params") or {}
        factory = memory_specs.memory_factory(kind, params)
        theoretical = self.theoretical_bandwidth_gbps
        if theoretical is None:
            theoretical = memory_specs.default_theoretical_gbps(kind, params)
        return MaterializedScenario(
            scenario=self,
            system_config=self.system,
            memory_factory=factory,
            sweep=self.sweep,
            theoretical_bandwidth_gbps=theoretical,
        )

    def run(self):
        """Execute the scenario and return an ``ExperimentResult``.

        Characterize scenarios run the Mess benchmark and tabulate the
        family; experiment scenarios delegate to the registry.
        """
        # lazy: experiments.base -> telemetry only, but the registry
        # pulls in every experiment module
        from ..experiments import registry
        from ..experiments.base import ExperimentResult

        if self.workload_kind == "experiment":
            options = dict(self.workload.get("options", {}))
            return registry.run_experiment(
                str(self.workload.get("experiment_id")),
                scale=float(self.workload.get("scale", 1.0)),
                **options,
            )
        family = self.materialize().characterize()
        result = ExperimentResult(
            experiment_id=f"scenario:{self.name}",
            title=self.description or f"Scenario {self.name}",
            columns=["series", "read_ratio", "bandwidth_gbps", "latency_ns"],
        )
        _tabulate_family(result, family)
        result.note(f"scenario digest {self.digest()[:16]}")
        return result


@dataclasses.dataclass
class MaterializedScenario:
    """The runnable pieces built from one characterize scenario."""

    scenario: Scenario
    system_config: SystemConfig
    memory_factory: Callable[[], MemoryModel]
    sweep: MessBenchmarkConfig
    theoretical_bandwidth_gbps: float | None

    def build_system(self) -> System:
        """A fresh system wired to a fresh memory model."""
        return System(self.system_config, self.memory_factory())

    def benchmark(self) -> MessBenchmark:
        """The Mess benchmark for this scenario."""
        return MessBenchmark(
            system_config=self.system_config,
            memory_factory=self.memory_factory,
            config=self.sweep,
            name=self.scenario.name,
            theoretical_bandwidth_gbps=self.theoretical_bandwidth_gbps,
        )

    def characterize(self) -> CurveFamily:
        """Run the benchmark and return the measured curve family."""
        return self.benchmark().run()


def _canonical_workload(workload: Mapping, where: str = "workload") -> dict:
    kind = workload.get("kind")
    if not isinstance(kind, str):
        raise ConfigurationError(f"{where}.kind: required string")
    canonical: dict = {"kind": kind}
    if kind == "experiment":
        if "experiment_id" in workload:
            canonical["experiment_id"] = workload["experiment_id"]
        scale = workload.get("scale", 1.0)
        # a malformed scale stays as written, for validate() to report
        canonical["scale"] = (
            scale if _positive_number_problem(scale) else float(scale)
        )
        options = workload.get("options", {})
        if isinstance(options, Mapping):
            options = {str(key): options[key] for key in sorted(options)}
        canonical["options"] = options
    else:
        for key in workload:
            if key != "kind":
                canonical[key] = workload[key]
    return canonical


def _positive_number_problem(value: object) -> str | None:
    """Why a raw spec value is not a finite positive number, else None.

    Checked before any ``float()``: a bool is not a number here, and
    the ``NaN``/``Infinity`` that ``json.loads`` accepts are not finite.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"expected a number, got {value!r}"
    if not (math.isfinite(value) and value > 0):
        return f"must be a finite positive number, got {value!r}"
    return None


def _tabulate_family(result, family: CurveFamily) -> None:
    for curve in family:
        for bandwidth, latency in zip(curve.bandwidth_gbps, curve.latency_ns):
            result.add(
                series=family.name,
                read_ratio=curve.read_ratio,
                bandwidth_gbps=bandwidth,
                latency_ns=latency,
            )


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file from disk."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    return Scenario.from_spec(payload, where=str(path))

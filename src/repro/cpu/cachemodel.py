"""Declarative cache-model axis: topology, replacement, write policy.

``CacheModelSpec`` is the scenario's cache-model axis, pluggable like
the ``memory`` spec beside it: a frozen spec dataclass that round-trips
through ``to_spec``/``from_spec``, participates in scenario digests,
and selects how :class:`~repro.cpu.hierarchy.MemoryHierarchy` is
built. The geometry of each level (size/ways/latency) stays on
``system.hierarchy``; this spec chooses which levels exist, how they
are shared, the line size, and the replacement/write policies.

The default spec reproduces the historical hard-coded model exactly —
``SystemConfig.to_spec`` omits it entirely, so every pre-existing
scenario digest is unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from ..errors import ConfigurationError
from ..specs import SpecConvertible, spec_digest, to_spec
from .cache import CacheConfig, HierarchyConfig
from .policies import policy_kinds

#: Supported hierarchy shapes. The first is the historical model.
TOPOLOGIES: tuple[str, ...] = (
    "private-l1l2-shared-l3",
    "private-l1-shared-l2",
    "flat",
)

WRITE_POLICIES: tuple[str, ...] = ("write-back", "write-through")


@dataclass(frozen=True)
class CacheModelSpec(SpecConvertible):
    """Scenario-selectable cache model.

    Parameters
    ----------
    topology:
        Which levels exist and how they are shared. All topologies end
        in one shared last level (the LLC): the default three-level
        shape, the Simu3-style private-L1 + shared-L2, or a flat
        single shared level (built from the ``hierarchy.l3`` geometry).
    policy:
        Replacement policy for every level (``lru``/``plru``/``random``).
    line_bytes:
        Cache-line size, a power of two.
    write_policy:
        ``write-back`` (dirty lines, eviction writebacks) or
        ``write-through`` (every store posts a memory write; evictions
        are always clean).
    inclusive:
        When true, LLC evictions back-invalidate the upper levels;
        dirty upper copies are flushed to memory.
    shared_latency_penalty_ns:
        Interconnect-contention term added to every lookup of a shared
        level, scaled by the number of *other* cores.
    seed:
        Base seed for seeded replacement policies. ``None`` (the
        default, and the only digest-neutral value) derives the seed
        from the scenario digest, so runs are reproducible without
        hand-picking one.
    """

    topology: str = "private-l1l2-shared-l3"
    policy: str = "lru"
    line_bytes: int = 64
    write_policy: str = "write-back"
    inclusive: bool = False
    shared_latency_penalty_ns: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown cache topology {self.topology!r}; "
                f"known: {', '.join(TOPOLOGIES)}"
            )
        if self.policy not in policy_kinds():
            raise ConfigurationError(
                f"unknown replacement policy {self.policy!r}; "
                f"known: {', '.join(policy_kinds())}"
            )
        if self.write_policy not in WRITE_POLICIES:
            raise ConfigurationError(
                f"unknown write policy {self.write_policy!r}; "
                f"known: {', '.join(WRITE_POLICIES)}"
            )
        if self.line_bytes < 1 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError(
                f"cache line_bytes must be a power of two, got {self.line_bytes}"
            )
        if self.shared_latency_penalty_ns < 0:
            raise ConfigurationError(
                "cache shared_latency_penalty_ns must be non-negative, "
                f"got {self.shared_latency_penalty_ns}"
            )

    @property
    def write_through(self) -> bool:
        return self.write_policy == "write-through"

    def level_plan(
        self, hierarchy: HierarchyConfig
    ) -> tuple[tuple[CacheConfig, bool], ...]:
        """Levels to build, outermost first, as ``(geometry, shared)``.

        Every topology ends in exactly one shared level — the LLC that
        fronts the memory model.
        """
        if self.topology == "private-l1l2-shared-l3":
            return (
                (hierarchy.l1, False),
                (hierarchy.l2, False),
                (hierarchy.l3, True),
            )
        if self.topology == "private-l1-shared-l2":
            return ((hierarchy.l1, False), (hierarchy.l2, True))
        return ((hierarchy.l3, True),)


@functools.cache
def default_cache_model() -> CacheModelSpec:
    """The default model, built once: what specs compare against."""
    return CacheModelSpec()


#: Named presets — shorthand spellings for common models. Values hold
#: only the fields that differ from the default; canonicalization
#: expands them so digests depend on values, not spelling.
CACHE_PRESETS: dict[str, dict[str, object]] = {
    "default": {},
    "simu3": {
        "topology": "private-l1-shared-l2",
        "policy": "plru",
        "shared_latency_penalty_ns": 0.5,
    },
    "flat-llc": {"topology": "flat"},
    "random-replacement": {"policy": "random"},
    "write-through": {"write_policy": "write-through"},
}


def cache_preset_names() -> tuple[str, ...]:
    return tuple(sorted(CACHE_PRESETS))


def canonical_cache_spec(value: object, where: str = "cache") -> dict[str, object]:
    """Expand a cache-model spelling into the full canonical payload.

    Accepts a preset name, a mapping with an optional ``preset`` base
    plus field overrides, or an already-full mapping. The result always
    carries every field, so ``{"preset": "simu3"}`` and the fully
    spelled equivalent digest identically (the same rule
    ``canonical_memory_spec`` applies to memory presets).
    """
    if isinstance(value, CacheModelSpec):
        return dict(to_spec(value))
    if isinstance(value, str):
        preset_name: str | None = value
        overrides: dict[str, object] = {}
    elif isinstance(value, Mapping):
        overrides = {str(key): val for key, val in value.items()}
        raw = overrides.pop("preset", None)
        if raw is not None and not isinstance(raw, str):
            raise ConfigurationError(f"{where}.preset must be a string, got {raw!r}")
        preset_name = raw
    else:
        raise ConfigurationError(
            f"{where} must be a preset name or an object, got {value!r}"
        )
    base: dict[str, object] = {}
    if preset_name is not None:
        try:
            base = dict(CACHE_PRESETS[preset_name])
        except KeyError:
            raise ConfigurationError(
                f"unknown cache preset {preset_name!r} at {where}; "
                f"known: {', '.join(cache_preset_names())}"
            ) from None
    base.update(overrides)
    spec = CacheModelSpec.from_spec(
        {**to_spec(default_cache_model()), **base}, where=where
    )
    return dict(to_spec(spec))


def derive_policy_seed(payload: object) -> int:
    """Seed for seeded replacement policies, from a spec payload.

    Taking the first 64 bits of the canonical spec digest means
    identical scenarios evict identically while any parameter change
    decorrelates the stream — reproducible without storing a seed.
    """
    return int(spec_digest(payload)[:16], 16)


def validate_cache_model(
    spec: CacheModelSpec, hierarchy: HierarchyConfig
) -> list[str]:
    """Hard config problems for this model over this geometry.

    Returned strings surface through ``Scenario.validate()`` (and so
    the RPR104 check); softer plausibility rules live in
    ``repro.checks.invariants`` as RPR102 findings.
    """
    problems: list[str] = []
    plan = spec.level_plan(hierarchy)
    for index, (level, _shared) in enumerate(plan):
        label = f"L{index + 1}"
        if level.ways < 1:
            problems.append(f"cache: {label} ways must be >= 1, got {level.ways}")
            continue
        lines = level.size_bytes // spec.line_bytes
        if level.size_bytes % spec.line_bytes:
            problems.append(
                f"cache: {label} size {level.size_bytes} is not a multiple "
                f"of line_bytes {spec.line_bytes}"
            )
        elif lines % level.ways:
            problems.append(
                f"cache: {label} {lines} lines not divisible into "
                f"{level.ways} ways"
            )
        if spec.policy == "plru" and level.ways & (level.ways - 1):
            problems.append(
                f"cache: plru replacement requires power-of-two ways, "
                f"{label} has {level.ways}"
            )
    return problems

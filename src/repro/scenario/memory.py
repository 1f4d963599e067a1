"""Declarative memory-model specs: ``{"kind": ..., "params": {...}}``.

Every memory model in the zoo is constructible from a JSON-typed spec,
so a scenario file can select any backend the experiments use — the
cycle-level substrate, the flawed-simulator analogs, the queueing
models, the device models, or the Mess simulator itself (whose curves
are in turn a spec: a platform reference, a special family, or inline
curve data).

Parameter names are the model constructors' keyword arguments,
introspected rather than duplicated; adding a constructor parameter
automatically extends the spec surface. Two parameter types get
resolution on top of plain JSON values:

- DRAM timings (``timing`` / ``backend_timing``) accept a preset name,
  ``{"preset": name}`` or a full timing object
  (:meth:`repro.dram.timing.DramTiming.from_spec`);
- the Mess simulator's ``curves`` accept ``{"platform": <Table I
  name>}``, ``{"special": "cxl"|"optane"|"remote-socket"}`` or an
  inline family dict (:meth:`repro.core.family.CurveFamily.from_dict`).
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Mapping

from ..core.family import CurveFamily
from ..core.simulator import MessMemorySimulator
from ..dram.timing import DramTiming
from ..errors import ConfigurationError, MessError
from ..memmodels.base import MemoryModel
from ..memmodels.cxl import CxlExpanderModel
from ..memmodels.cycle_accurate import CycleAccurateModel
from ..memmodels.fixed import FixedLatencyModel
from ..memmodels.flawed import DRAMsim3Analog, Ramulator2Analog, RamulatorAnalog
from ..memmodels.internal_ddr import InternalDdrModel
from ..memmodels.md1 import MD1QueueModel
from ..memmodels.optane import OptaneModel
from ..memmodels.remote_socket import RemoteSocketModel
from ..memmodels.simple_bw import SimpleBandwidthModel

#: Spec kind -> model constructor. Kind strings are the vocabulary of
#: scenario files; constructors define the parameter vocabulary.
MEMORY_KINDS: dict[str, Callable[..., MemoryModel]] = {
    "cycle-accurate": CycleAccurateModel,
    "fixed-latency": FixedLatencyModel,
    "md1": MD1QueueModel,
    "internal-ddr": InternalDdrModel,
    "gem5-simple": SimpleBandwidthModel,
    "dramsim3-analog": DRAMsim3Analog,
    "ramulator-analog": RamulatorAnalog,
    "ramulator2-analog": Ramulator2Analog,
    "cxl-expander": CxlExpanderModel,
    "optane": OptaneModel,
    "remote-socket": RemoteSocketModel,
    "mess": MessMemorySimulator,
}

#: Parameters resolved through :meth:`DramTiming.from_spec`.
_TIMING_PARAMS = frozenset({"timing", "backend_timing"})

#: The Mess simulator's family parameter, spelled ``curves`` in specs.
_CURVES_PARAM = "curves"

#: Constructor parameter backing ``curves`` for the "mess" kind.
_FAMILY_CTOR_PARAM = "family"


def memory_kinds() -> list[str]:
    """Every registered memory-model kind, sorted."""
    return sorted(MEMORY_KINDS)


def _constructor(kind: str) -> Callable[..., MemoryModel]:
    try:
        return MEMORY_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown memory kind {kind!r}; available: {memory_kinds()}"
        ) from None


@functools.cache
def _signature(kind: str) -> inspect.Signature:
    """The constructor signature of one memory kind, read once."""
    return inspect.signature(_constructor(kind).__init__)


def allowed_params(kind: str) -> list[str]:
    """Spec parameter names accepted by one memory kind."""
    names = [name for name in _signature(kind).parameters if name != "self"]
    if kind == "mess":
        names = [
            _CURVES_PARAM if name == _FAMILY_CTOR_PARAM else name
            for name in names
        ]
    return names


def resolve_curves(spec: object, where: str = "memory.params.curves") -> CurveFamily:
    """Resolve a curve-source spec into a :class:`CurveFamily`."""
    # imported here: presets synthesize families on demand and pull in
    # the whole platform layer, which scenario validation alone may skip
    from ..platforms import presets

    if isinstance(spec, CurveFamily):
        return spec
    if not isinstance(spec, Mapping):
        raise ConfigurationError(
            f"{where}: expected a curve source object, got "
            f"{type(spec).__name__}"
        )
    if set(spec) == {"platform"}:
        return presets.family(presets.platform(str(spec["platform"])))
    if set(spec) == {"special"}:
        specials = {
            "cxl": presets.cxl_expander_family,
            "optane": presets.optane_family,
            "remote-socket": presets.remote_socket_family,
        }
        name = str(spec["special"])
        if name not in specials:
            raise ConfigurationError(
                f"{where}.special: unknown family {name!r}; "
                f"available: {sorted(specials)}"
            )
        return specials[name]()
    if "curves" in spec:
        return CurveFamily.from_dict(spec)
    raise ConfigurationError(
        f"{where}: expected {{'platform': name}}, {{'special': name}} or "
        "an inline family object"
    )


def canonical_curves_spec(spec: object) -> object:
    """Canonical encoding of a curve source for digests and files.

    References stay references (their synthesis is deterministic);
    family objects become their full inline dict, so a measured family
    wired into a scenario digests by value.
    """
    if isinstance(spec, CurveFamily):
        return spec.to_dict()
    return spec


def canonical_memory_spec(kind: str, params: Mapping) -> dict:
    """Validated, canonical ``{"kind", "params"}`` encoding of one spec.

    Timing parameters expand to full timing objects so the digest
    depends on timing *values*, never on preset spelling.
    """
    constructor = _constructor(kind)
    if not isinstance(params, Mapping):
        raise ConfigurationError(
            f"memory.params: expected an object, got {type(params).__name__}"
        )
    allowed = allowed_params(kind)
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"memory kind {kind!r}: unknown parameter(s) {unknown}; "
            f"allowed: {sorted(allowed)}"
        )
    if kind == "mess" and _CURVES_PARAM not in params:
        raise ConfigurationError(
            "memory kind 'mess' requires a 'curves' parameter"
        )
    canonical: dict = {}
    for name in sorted(params):
        value = params[name]
        if name in _TIMING_PARAMS:
            canonical[name] = DramTiming.from_spec(
                value, where=f"memory.params.{name}"
            ).to_spec()
        elif name == _CURVES_PARAM:
            canonical[name] = canonical_curves_spec(value)
        else:
            canonical[name] = value
    del constructor
    return {"kind": kind, "params": canonical}


def build_memory(kind: str, params: Mapping) -> MemoryModel:
    """Build one memory model instance from a validated spec."""
    constructor = _constructor(kind)
    spec = canonical_memory_spec(kind, params)
    kwargs: dict[str, object] = {}
    for name, value in spec["params"].items():
        if name in _TIMING_PARAMS:
            kwargs[name] = DramTiming.from_spec(value)
        elif name == _CURVES_PARAM:
            kwargs[_FAMILY_CTOR_PARAM] = resolve_curves(params[_CURVES_PARAM])
        else:
            kwargs[name] = value
    return constructor(**kwargs)


def memory_factory(
    kind: str, params: Mapping | None = None
) -> Callable[[], MemoryModel]:
    """A zero-argument factory building fresh models from one spec.

    The spec is validated once, up front; curve sources are resolved
    once and shared (families are immutable), while the model itself is
    rebuilt per call so no queue state leaks between measurements.
    """
    params = dict(params or {})
    constructor = _constructor(kind)
    spec = canonical_memory_spec(kind, params)
    resolved: dict[str, object] = {}
    for name, value in spec["params"].items():
        if name in _TIMING_PARAMS:
            resolved[name] = DramTiming.from_spec(value)
        elif name == _CURVES_PARAM:
            resolved[_FAMILY_CTOR_PARAM] = resolve_curves(params[_CURVES_PARAM])
        else:
            resolved[name] = value

    def factory() -> MemoryModel:
        return constructor(**resolved)

    # validate parameter values eagerly: a scenario with a bad latency
    # should fail at load, not ten sweeps into a run; a wrongly typed
    # or missing parameter is a spec error like an out-of-range one
    try:
        factory()
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"memory kind {kind!r}: {exc}") from exc
    return factory


def validate_memory_spec(kind: str, params: Mapping) -> list[str]:
    """Problems with one memory spec; empty means it builds."""
    try:
        memory_factory(kind, params)
    except MessError as exc:
        return [str(exc)]
    return []


def default_theoretical_gbps(kind: str, params: Mapping) -> float | None:
    """Best-effort theoretical peak bandwidth implied by a memory spec.

    Used when a scenario does not pin ``theoretical_bandwidth_gbps``
    explicitly; returns ``None`` when the spec does not imply one.
    """
    params = dict(params or {})
    if kind == "cycle-accurate":
        timing = DramTiming.from_spec(params.get("timing", "DDR4-2666"))
        default_channels = _signature(kind).parameters["channels"].default
        channels = int(params.get("channels", default_channels))
        return timing.channel_peak_gbps * channels
    if kind == "mess":
        if _CURVES_PARAM in params:
            return resolve_curves(params[_CURVES_PARAM]).theoretical_bandwidth_gbps
        return None
    for name in ("peak_bandwidth_gbps", "theoretical_gbps"):
        if name in params:
            return float(params[name])  # type: ignore[arg-type]
        parameters = _signature(kind).parameters
        if name in parameters:
            default = parameters[name].default
            if isinstance(default, (int, float)):
                return float(default)
    return None

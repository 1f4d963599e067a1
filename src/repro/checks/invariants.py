"""Declarative invariant validation for data artifacts.

The AST rules guard the *code*; this module guards the *data* the code
produces and consumes. Four artifact families, one id each:

- **RPR102** — curve families: physically plausible bandwidth-latency
  behaviour. Latency must be non-decreasing with bandwidth on the
  pre-saturation segment — the exact property "Cleaning up the Mess"
  used to falsify Ramulator 2.0's published curves — the unloaded
  latency must match the platform spec when one is given, and no curve
  may exceed the theoretical peak bandwidth.
- **RPR103** — run manifests: whatever
  :meth:`~repro.runner.manifest.RunManifest.from_dict` rejects, so a
  checked-in manifest is guaranteed readable by ``repro run --resume``
  and ``repro serve --warm``.
- **RPR104** — scenario files (:mod:`repro.scenario`): whatever
  :meth:`~repro.scenario.core.Scenario.from_spec` rejects, so a
  checked-in scenario is guaranteed runnable by ``repro run
  --scenario``, plus RPR102's cache-geometry plausibility rules.
- **RPR105** — fault plans (:mod:`repro.resilience.faults`): the
  document must parse as a :class:`~repro.resilience.faults.FaultPlan`
  and declare at least one fault, so a checked-in chaos plan is
  guaranteed loadable by ``repro run --inject-faults``.

Each file format is validated by the code that reads it: RPR103-RPR105
turn that code's :class:`~repro.errors.ConfigurationError` into a
finding rather than restate its rules. Platform specs need no validator:
:class:`~repro.platforms.spec.PlatformSpec` rejects a bad one when it is
constructed. Validators return :class:`~repro.checks.engine.Finding`
lists (empty means valid) instead of raising, so callers can aggregate
across many artifacts and render them alongside lint findings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .engine import Finding

if TYPE_CHECKING:  # imports only for annotations; keeps import time low
    from ..core.family import CurveFamily
    from ..platforms.spec import PlatformSpec

#: Relative tolerance when comparing a generated family's metrics to its
#: platform spec (calibration is approximate by construction).
SPEC_TOLERANCE = 0.15

#: Fractional latency decrease tolerated along the pre-peak segment
#: (measured curves jitter; generated ones should be exactly monotone).
MONOTONE_SLACK = 0.02


def _finding(source: str, rule_id: str, message: str, hint: str = "") -> Finding:
    return Finding(
        path=source, line=0, col=0, rule_id=rule_id, message=message, hint=hint
    )


# ----------------------------------------------------------------------
# RPR102 — curve families
# ----------------------------------------------------------------------

def check_curve_family(
    family: "CurveFamily",
    spec: "PlatformSpec | None" = None,
    *,
    tolerance: float = SPEC_TOLERANCE,
    monotone_slack: float = MONOTONE_SLACK,
) -> list[Finding]:
    """Validate a curve family's physical plausibility.

    With ``spec`` given, also checks calibration: the unloaded latency
    and peak bandwidth must land near the Table I values.
    """
    source = f"family:{family.name}"
    findings: list[Finding] = []
    for curve in family:
        label = f"curve r={curve.read_ratio:.2f}"
        bandwidth = curve.bandwidth_gbps
        latency = curve.latency_ns
        peak = int(bandwidth.argmax())
        for index in range(1, peak + 1):
            allowed_floor = latency[index - 1] * (1.0 - monotone_slack)
            if latency[index] < allowed_floor:
                findings.append(
                    _finding(
                        source,
                        "RPR102",
                        f"{label}: latency drops from "
                        f"{latency[index - 1]:.1f} to {latency[index]:.1f} ns "
                        f"while bandwidth rises (point {index})",
                        hint=(
                            "loaded latency decreasing under higher pressure "
                            "is physically implausible — the signature of a "
                            "miscalibrated simulator curve"
                        ),
                    )
                )
        if curve.unloaded_latency_ns > curve.max_latency_ns:
            findings.append(
                _finding(
                    source,
                    "RPR102",
                    f"{label}: unloaded latency exceeds the curve maximum",
                )
            )
    theoretical = family.theoretical_bandwidth_gbps
    if theoretical is not None:
        for curve in family:
            if curve.max_bandwidth_gbps > theoretical * 1.01:
                findings.append(
                    _finding(
                        source,
                        "RPR102",
                        f"curve r={curve.read_ratio:.2f} peaks at "
                        f"{curve.max_bandwidth_gbps:.1f} GB/s, above the "
                        f"theoretical {theoretical:.1f} GB/s",
                    )
                )
    if spec is not None:
        reference = spec.unloaded_latency_ns
        measured = min(curve.unloaded_latency_ns for curve in family)
        if abs(measured - reference) > tolerance * reference:
            findings.append(
                _finding(
                    source,
                    "RPR102",
                    f"unloaded latency {measured:.1f} ns is outside "
                    f"{tolerance:.0%} of the Table I value {reference:.1f} ns",
                )
            )
    return findings


# ----------------------------------------------------------------------
# RPR104 — scenario files
# ----------------------------------------------------------------------

def check_scenario(payload: Mapping, source: str = "<scenario>") -> list[Finding]:
    """Validate a scenario document (parsed JSON)."""
    from ..errors import MessError
    from ..scenario.core import Scenario

    if not isinstance(payload, Mapping):
        return [_finding(source, "RPR104", "scenario is not a JSON object")]
    try:
        scenario = Scenario.from_spec(payload, where=source)
    except MessError as exc:
        return [
            _finding(
                source,
                "RPR104",
                str(exc),
                hint=(
                    "see `repro scenario show <preset>` for a valid document "
                    "and examples/ for a runnable one"
                ),
            )
        ]
    return check_cache_geometry(scenario.system, source)


def check_cache_geometry(system: object, source: str) -> list[Finding]:
    """RPR102 plausibility rules for a system's cache geometry.

    Hard impossibilities (indivisible sets, plru over non-power-of-two
    ways) are already ``validate()`` errors; these findings flag
    configurations that run but describe no plausible machine. The
    power-of-two rules apply only to non-default cache models: the
    historical default geometry (11-way 33 MiB LLC) predates them and
    stays digest-frozen.
    """
    from ..cpu.cachemodel import CacheModelSpec

    cache = getattr(system, "cache", None)
    hierarchy = getattr(system, "hierarchy", None)
    if cache is None or hierarchy is None:
        return []
    findings: list[Finding] = []
    plan = cache.level_plan(hierarchy)
    non_default = cache != CacheModelSpec()
    previous = None
    for index, (level, _shared) in enumerate(plan):
        label = f"L{index + 1}"
        if level.size_bytes % cache.line_bytes == 0:
            sets = level.size_bytes // cache.line_bytes // level.ways or 1
            if non_default and sets & (sets - 1):
                findings.append(
                    _finding(
                        source,
                        "RPR102",
                        f"cache geometry: {label} has {sets} sets, not a "
                        "power of two",
                        hint="real indexing hardware uses power-of-two sets",
                    )
                )
        if non_default and level.ways & (level.ways - 1):
            findings.append(
                _finding(
                    source,
                    "RPR102",
                    f"cache geometry: {label} has {level.ways} ways, not a "
                    "power of two",
                )
            )
        if previous is not None:
            prev_label, prev = previous
            if level.size_bytes < prev.size_bytes:
                findings.append(
                    _finding(
                        source,
                        "RPR102",
                        f"cache geometry: {label} ({level.size_bytes} B) is "
                        f"smaller than {prev_label} ({prev.size_bytes} B)",
                        hint="levels should grow toward memory",
                    )
                )
            if level.latency_ns < prev.latency_ns:
                findings.append(
                    _finding(
                        source,
                        "RPR102",
                        f"cache geometry: {label} latency "
                        f"({level.latency_ns} ns) is below {prev_label} "
                        f"({prev.latency_ns} ns)",
                        hint="lookup latency should grow toward memory",
                    )
                )
        previous = (label, level)
    return findings


# ----------------------------------------------------------------------
# RPR105 — fault plans
# ----------------------------------------------------------------------

def check_fault_plan(payload: Mapping, source: str = "<fault-plan>") -> list[Finding]:
    """Validate a fault-plan document (parsed JSON)."""
    from ..errors import MessError
    from ..resilience.faults import FaultPlan

    if not isinstance(payload, Mapping):
        return [_finding(source, "RPR105", "fault plan is not a JSON object")]
    try:
        plan = FaultPlan.from_dict(payload, where=source)
    except MessError as exc:
        return [
            _finding(
                source,
                "RPR105",
                str(exc),
                hint=(
                    "see repro.resilience.faults for the plan format and "
                    "examples/ for a runnable chaos plan"
                ),
            )
        ]
    if not plan.faults:
        return [
            _finding(
                source,
                "RPR105",
                "fault plan declares no faults",
                hint="an empty plan injects nothing; delete it or add faults",
            )
        ]
    return []


def check_json_file(path: str | Path) -> list[Finding]:
    """Validate one ``.json`` artifact, dispatching on its shape.

    Documents carrying the :data:`repro.scenario.core.FORMAT_KEY`
    marker are validated as scenarios (RPR104); documents carrying the
    :data:`repro.resilience.faults.FORMAT_KEY` marker as fault plans
    (RPR105); everything else is read as a run manifest (RPR103), and
    whatever :meth:`RunManifest.from_dict
    <repro.runner.manifest.RunManifest.from_dict>` rejects is the
    finding.
    """
    from ..errors import ConfigurationError
    from ..resilience.faults import FORMAT_KEY as FAULT_PLAN_KEY
    from ..runner.manifest import RunManifest
    from ..scenario.core import FORMAT_KEY

    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [_finding(str(path), "RPR103", f"cannot read manifest: {exc}")]
    if isinstance(payload, Mapping) and FORMAT_KEY in payload:
        return check_scenario(payload, source=str(path))
    if isinstance(payload, Mapping) and FAULT_PLAN_KEY in payload:
        return check_fault_plan(payload, source=str(path))
    try:
        RunManifest.from_dict(payload)
    except ConfigurationError as exc:
        return [
            _finding(
                str(path),
                "RPR103",
                str(exc),
                hint=(
                    "a run manifest is what `repro run --manifest` writes; "
                    "see repro.runner.manifest for the format"
                ),
            )
        ]
    return []

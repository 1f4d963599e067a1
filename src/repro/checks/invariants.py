"""Declarative invariant validation for data artifacts.

The AST rules guard the *code*; this module guards the *data* the code
produces and consumes. Five artifact families, one id each:

- **RPR101** — platform specifications (:class:`repro.platforms.spec
  .PlatformSpec`): Table I headline metrics consistent, waveform shape
  parameters in range, read ratios sorted and in-domain.
- **RPR102** — curve families: physically plausible bandwidth-latency
  behaviour. Latency must be non-decreasing with bandwidth on the
  pre-saturation segment — the exact property "Cleaning up the Mess"
  used to falsify Ramulator 2.0's published curves — the unloaded
  latency must match the platform spec when one is given, and no curve
  may exceed the theoretical peak bandwidth.
- **RPR103** — run manifests: schema and environment-header keys, so a
  manifest written today stays comparable to one written last month.
- **RPR104** — scenario files (:mod:`repro.scenario`): the document
  must parse as a :class:`~repro.scenario.core.Scenario` and pass its
  own semantic validation, so a checked-in scenario is guaranteed
  runnable by ``repro run --scenario``.
- **RPR105** — fault plans (:mod:`repro.resilience.faults`): the
  document must parse as a :class:`~repro.resilience.faults.FaultPlan`
  and declare at least one fault, so a checked-in chaos plan is
  guaranteed loadable by ``repro run --inject-faults``.

Validators return :class:`~repro.checks.engine.Finding` lists (empty
means valid) instead of raising, so callers can aggregate across many
artifacts and render them alongside lint findings.
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
# RPR101 — platform specs
# ----------------------------------------------------------------------

def check_platform_spec(spec: "PlatformSpec") -> list[Finding]:
    """Validate one platform spec beyond its constructor's own checks."""
    source = f"platform:{spec.name}"
    findings: list[Finding] = []
    ratios = list(spec.read_ratios)
    if ratios != sorted(ratios):
        findings.append(
            _finding(source, "RPR101", "read_ratios are not sorted ascending")
        )
    if any(not 0.0 <= ratio <= 1.0 for ratio in ratios):
        findings.append(
            _finding(source, "RPR101", f"read_ratios outside [0, 1]: {ratios}")
        )
    lo, hi = spec.max_latency_range_ns
    if lo < spec.unloaded_latency_ns:
        findings.append(
            _finding(
                source,
                "RPR101",
                f"max-latency range [{lo}, {hi}] ns starts below the "
                f"unloaded latency {spec.unloaded_latency_ns} ns",
                hint="loaded latency can only exceed the unloaded latency",
            )
        )
    stream_lo, stream_hi = spec.stream_range_pct
    if not 0 < stream_lo <= stream_hi <= 100:
        findings.append(
            _finding(
                source,
                "RPR101",
                f"STREAM range [{stream_lo}, {stream_hi}]% is not a valid "
                "percentage interval",
            )
        )
    waveform = spec.waveform
    if waveform is not None:
        if not 0.0 <= waveform.read_ratio_threshold <= 1.0:
            findings.append(
                _finding(
                    source,
                    "RPR101",
                    "waveform read_ratio_threshold outside [0, 1]: "
                    f"{waveform.read_ratio_threshold}",
                )
            )
        if not 0.0 < waveform.depth_fraction < 1.0:
            findings.append(
                _finding(
                    source,
                    "RPR101",
                    "waveform depth_fraction outside (0, 1): "
                    f"{waveform.depth_fraction}",
                )
            )
        if waveform.points < 1:
            findings.append(
                _finding(
                    source,
                    "RPR101",
                    f"waveform needs at least one point, got {waveform.points}",
                )
            )
    return findings


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
# RPR103 — run manifests
# ----------------------------------------------------------------------

_VALID_STATUSES = ("ok", "error")
_ENVIRONMENT_KEYS = ("python_version", "platform")


def check_manifest(payload: Mapping, source: str = "<manifest>") -> list[Finding]:
    """Validate a run-manifest document (parsed JSON)."""
    from ..resilience.failures import FAILURE_KINDS

    findings: list[Finding] = []
    if not isinstance(payload, Mapping):
        return [_finding(source, "RPR103", "manifest is not a JSON object")]
    version = payload.get("manifest_version")
    if not isinstance(version, int) or version < 1:
        findings.append(
            _finding(
                source,
                "RPR103",
                f"manifest_version must be a positive integer, got {version!r}",
            )
        )
    for key in _ENVIRONMENT_KEYS:
        value = payload.get(key)
        if not (isinstance(value, str) and value):
            findings.append(
                _finding(
                    source,
                    "RPR103",
                    f"environment header key {key!r} missing or empty",
                    hint=(
                        "manifests record the interpreter and OS so runs stay "
                        "comparable; see repro.runner.manifest.environment_header"
                    ),
                )
            )
    experiments = payload.get("experiments")
    if not isinstance(experiments, list):
        findings.append(
            _finding(source, "RPR103", "manifest has no 'experiments' list")
        )
        return findings
    for index, record in enumerate(experiments):
        where = f"experiments[{index}]"
        if not isinstance(record, Mapping):
            findings.append(
                _finding(source, "RPR103", f"{where} is not an object")
            )
            continue
        experiment_id = record.get("experiment_id")
        if not (isinstance(experiment_id, str) and experiment_id):
            findings.append(
                _finding(source, "RPR103", f"{where}: missing experiment_id")
            )
        status = record.get("status")
        if status not in _VALID_STATUSES:
            findings.append(
                _finding(
                    source,
                    "RPR103",
                    f"{where}: status must be one of {_VALID_STATUSES}, "
                    f"got {status!r}",
                )
            )
        if status == "error" and not record.get("error"):
            findings.append(
                _finding(
                    source,
                    "RPR103",
                    f"{where}: status is 'error' but no error message recorded",
                )
            )
        failure_kind = record.get("failure_kind")
        if failure_kind is not None and failure_kind not in FAILURE_KINDS:
            findings.append(
                _finding(
                    source,
                    "RPR103",
                    f"{where}: failure_kind must be one of "
                    f"{list(FAILURE_KINDS)}, got {failure_kind!r}",
                    hint="see repro.resilience.failures.FAILURE_KINDS",
                )
            )
        attempts = record.get("attempts", 1)
        if not isinstance(attempts, int) or attempts < 1:
            findings.append(
                _finding(
                    source,
                    "RPR103",
                    f"{where}: attempts must be a positive integer, "
                    f"got {attempts!r}",
                )
            )
        digest = record.get("result_digest")
        if digest is not None and not (
            isinstance(digest, str)
            and len(digest) >= 8
            and all(ch in "0123456789abcdef" for ch in digest)
        ):
            findings.append(
                _finding(
                    source,
                    "RPR103",
                    f"{where}: result_digest {digest!r} is not a hex digest",
                )
            )
        for key in ("duration_s", "rows", "cache_hits", "cache_misses"):
            value = record.get(key, 0)
            if not isinstance(value, (int, float)) or value < 0:
                findings.append(
                    _finding(
                        source,
                        "RPR103",
                        f"{where}: {key} must be a non-negative number, "
                        f"got {value!r}",
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
    findings = [
        _finding(source, "RPR104", problem) for problem in scenario.validate()
    ]
    if scenario.system is not None:
        findings.extend(check_cache_geometry(scenario.system, source))
    return findings


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
    (RPR105); everything else is treated as a run manifest (RPR103).
    """
    from ..resilience.faults import FORMAT_KEY as FAULT_PLAN_KEY
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
    return check_manifest(payload, source=str(path))

"""Project-specific static analysis: lint rules + data-artifact validators.

Three layers:

- an AST rule engine (:mod:`.engine`) with one module per per-file
  rule family — RPR001 unit safety (:mod:`.rules_units`), RPR003
  telemetry hot path (:mod:`.rules_hotpath`), RPR005 float equality
  (:mod:`.rules_floats`), RPR006 scenario-layer boundary
  (:mod:`.rules_scenario`), RPR007 exception swallowing
  (:mod:`.rules_resilience`), RPR009
  blocking I/O on the serving event loop (:mod:`.rules_serve`);
- a whole-program layer — an import + approximate call graph
  (:mod:`.graph`) and reachability walks (:mod:`.dataflow`) feeding
  the interprocedural rules: RPR010 determinism of everything the
  digest surface or the simulation core reaches, the core's own
  module-level code included (:mod:`.rules_taint`), and RPR011
  shared-state races on the serve event loop (:mod:`.rules_races`);
- declarative invariant validators for data artifacts
  (:mod:`.invariants`): curve families (RPR102), run manifests
  (RPR103), scenario files (RPR104) and fault plans (RPR105). The
  last three report what the format's own loader rejects.

Contracts that the code enforces as it runs are not restated here:
``@register`` rejects a malformed experiment registration at import,
and :class:`~repro.platforms.spec.PlatformSpec` a malformed platform
at construction.

Entry points: :func:`check_paths` (what ``repro check`` calls — one
cold, serial pass over every file it is given),
:func:`check_source`/:func:`check_sources` (for fixture tests), and
the per-artifact validators. :mod:`.sarif` renders findings for code
scanning. Importing this package imports every rule module so the
registry is complete.
"""

from __future__ import annotations

from .engine import (
    Finding,
    ProgramRule,
    Rule,
    RULE_CLASSES,
    available_rules,
    check_paths,
    check_source,
    check_sources,
    register_rule,
)

# Importing the rule modules populates RULE_CLASSES as a side effect —
# same pattern as the experiment registry.
from . import rules_floats  # noqa: F401
from . import rules_hotpath  # noqa: F401
from . import rules_races  # noqa: F401
from . import rules_resilience  # noqa: F401
from . import rules_scenario  # noqa: F401
from . import rules_serve  # noqa: F401
from . import rules_taint  # noqa: F401
from . import rules_units  # noqa: F401
from .invariants import (
    check_curve_family,
    check_fault_plan,
    check_json_file,
    check_scenario,
)
from .sarif import render_sarif, to_sarif

__all__ = [
    "Finding",
    "ProgramRule",
    "Rule",
    "RULE_CLASSES",
    "available_rules",
    "check_curve_family",
    "check_fault_plan",
    "check_json_file",
    "check_paths",
    "check_scenario",
    "check_source",
    "check_sources",
    "register_rule",
    "render_sarif",
    "to_sarif",
]

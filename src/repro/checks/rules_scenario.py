"""RPR006 — experiments must go through the scenario layer.

The scenario layer (PR 4) exists so that every run a figure performs is
a declarative, digestable value: the runner's cache keys, the manifest
records and ``repro run --scenario`` all hang off ``Scenario.digest()``.
That only holds if experiment modules *declare* their machines and
memory models instead of constructing simulator objects directly — a
``SystemConfig(...)`` call inside ``fig9.py`` is invisible to the
digest and silently forks the config spine the refactor unified.

This rule forbids, inside ``repro/experiments`` (tests excluded),
direct calls to the constructors the scenario layer owns::

    System, SystemConfig, DramTiming,
    MessBenchmark, MessBenchmarkConfig, CycleAccurateModel

Only the *final* name segment is matched exactly, so classmethod calls
like ``MessBenchmarkConfig.from_spec({...})`` — the declarative spelling
this rule pushes authors toward — are allowed.
"""

from __future__ import annotations

import ast

from .engine import FileContext, Rule, register_rule
from .graph import dotted_name

#: Constructors owned by the scenario layer; experiments declare these
#: through specs (characterization/substrate/bench_system/memory_factory).
_FORBIDDEN_CONSTRUCTORS = frozenset(
    {
        "System",
        "SystemConfig",
        "DramTiming",
        "MessBenchmark",
        "MessBenchmarkConfig",
        "CycleAccurateModel",
    }
)


@register_rule
class ScenarioBoundaryRule(Rule):
    rule_id = "RPR006"
    title = "experiment bypasses the scenario layer"
    hint = (
        "experiments declare machines, sweeps and memory models through "
        "repro.scenario (characterization/substrate/bench_system/"
        "memory_factory) so runs stay digestable and cacheable; "
        "constructing simulator objects directly forks the config spine"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return "experiments" in ctx.parts and "tests" not in ctx.parts

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            final = name.rsplit(".", 1)[-1]
            if final in _FORBIDDEN_CONSTRUCTORS:
                self.report(
                    node,
                    f"direct {final}(...) call in an experiment module; "
                    "declare it through the scenario layer",
                )
        self.generic_visit(node)

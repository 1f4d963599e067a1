"""RPR003 — telemetry hot-path discipline.

The telemetry subsystem (PR 2) keeps its disabled-path overhead at "one
None check" by binding instruments once, at construction time::

    self._tel = telemetry.active()
    if self._tel is not None:
        self._tel_requests = self._tel.counter("sim.requests")
    ...
    # hot path:
    if self._tel is not None:
        self._tel_requests.inc()

Looking an instrument up by name (``tel.counter("...")``) walks the
registry dict and validates the declaration — cheap once, ruinous per
request. This rule flags registry lookups (``.counter`` / ``.gauge`` /
``.histogram``) and ``telemetry.active()`` calls that sit lexically
inside a ``for``/``while`` loop, where they run per iteration of what
is almost always a per-request or per-window loop.

The telemetry package itself is exempt — its exporters legitimately
iterate over instruments.
"""

from __future__ import annotations

import ast

from .engine import FileContext, Rule, register_rule
from .graph import dotted_name

_INSTRUMENT_FACTORIES = frozenset({"counter", "gauge", "histogram"})


@register_rule
class TelemetryHotPathRule(Rule):
    rule_id = "RPR003"
    title = "telemetry registry lookup inside a loop"
    hint = (
        "bind instruments once at construction time (self._tel = "
        "telemetry.active(); self._x = self._tel.counter(...)) and call "
        ".inc()/.set()/.observe() on the bound attribute in the loop"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return "telemetry" not in ctx.parts

    def setup(self, ctx: FileContext) -> None:
        self._loop_depth = 0

    def _visit_loop(self, node: ast.For | ast.While | ast.AsyncFor) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    def visit_Call(self, node: ast.Call) -> None:
        if self._loop_depth > 0 and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in _INSTRUMENT_FACTORIES:
                self.report(
                    node,
                    f"instrument lookup .{attr}(...) inside a loop "
                    "(registry walk + declaration check per iteration)",
                )
            elif attr == "active":
                name = dotted_name(node.func)
                if name is not None and (
                    name.endswith("telemetry.active") or name == "registry.active"
                ):
                    self.report(
                        node,
                        f"{name}() inside a loop; resolve the registry "
                        "once outside",
                    )
        self.generic_visit(node)

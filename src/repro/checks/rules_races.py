"""RPR011 — shared module-level state written from a serve coroutine.

The serving event loop (:mod:`repro.serve`) interleaves coroutines at
every ``await``, so a module global written from a coroutine — or from
any sync helper a coroutine calls — is a data race with every other
in-flight request.

The sanctioned idiom is the repo's **process-global activation
pattern** (``_ACTIVE`` + ``activate()``/``deactivate()``): state
changes flow through a named, greppable seam that the tests control.
This rule walks the call graph from every coroutine defined under
``serve`` and flags writes to module-level state on those paths —
unless the writing function *is* an activation-pattern function
(``activate``/``deactivate``/``activation``/``reset``/``install``) or
the site carries ``# repro: ignore[RPR011]`` with a justification.
"""

from __future__ import annotations

import re

from .dataflow import ReachabilityWalk
from .engine import Finding, ProgramRule, register_rule
from .graph import ProgramGraph, site_suppressed

#: Functions allowed to write module-level state: the activation
#: pattern itself, plus test/reset hooks.
ACTIVATION_NAME_RE = re.compile(
    r"^_?((de)?activ|reset|clear|install|teardown)"
)


@register_rule
class SharedStateRaceRule(ProgramRule):
    rule_id = "RPR011"
    title = "module-level state written from a serve coroutine"
    hint = (
        "route shared state through the process-global activation pattern "
        "(_ACTIVE + activate()/deactivate()) or keep it per-request; "
        "module globals written from coroutines race with every "
        "in-flight request"
    )

    def run_program(self, graph: ProgramGraph) -> list[Finding]:
        serve_coroutines = [
            fid
            for fid, fn in graph.functions.items()
            if fn.is_async
            and "serve" in graph.modules[graph.owner[fid]].parts
        ]
        walk = ReachabilityWalk(graph, sorted(serve_coroutines))
        findings: list[Finding] = []
        for fid in sorted(walk.reached):
            fn = graph.functions[fid]
            if ACTIVATION_NAME_RE.match(fn.name):
                continue
            module_name = graph.owner[fid]
            module = graph.modules[module_name]
            for write in fn.global_writes:
                target = self._resolve_target(graph, module_name, write.name)
                if target is None:
                    continue
                if site_suppressed(write.suppress, self.rule_id):
                    continue
                verb = "rebound" if write.kind == "rebind" else "mutated"
                findings.append(
                    self.finding(
                        path=module.display_path,
                        line=write.lineno,
                        col=write.col,
                        message=(
                            f"module-level state {target!r} {verb} from "
                            f"a serve coroutine: {walk.describe_chain(fid)}"
                        ),
                    )
                )
        return findings

    def _resolve_target(
        self, graph: ProgramGraph, module_name: str, name: str
    ) -> str | None:
        """The written global's display name, or None if not a global.

        Bare names must be module-level bindings of the writing module;
        ``alias.NAME`` spellings resolve through the module's imports
        and must land on a module-level binding of the target module.
        """
        module = graph.modules[module_name]
        if "." not in name:
            return name if name in module.globals else None
        alias, _, attribute = name.partition(".")
        imports = graph._import_maps.get(module_name, {})
        if alias not in imports:
            return None
        target_module, bound_attribute = imports[alias]
        if bound_attribute is not None or target_module not in graph.modules:
            return None
        if attribute in graph.modules[target_module].globals:
            return f"{target_module}.{attribute}"
        return None

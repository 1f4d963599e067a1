"""RPR010 — digest determinism, interprocedurally.

The content-addressed cache and the golden-digest table equate "same
digest" with "same table". That holds only if *anything transitively
reachable* from ``Scenario.digest()`` / the canonical spec encoding, or
from the simulation core and the entry points of every result (each
experiment's ``run``, ``Scenario.run``), is a pure function of its
inputs — including helpers that live outside those packages.

This rule walks the approximate call graph from two root sets:

- **digest roots** — every function named ``digest``, ``spec_digest``,
  ``canonical_json`` or ``to_spec`` (the cache-identity surface); and
- **core roots** — every function defined inside
  :data:`DETERMINISTIC_PACKAGES`, including each module's ``<module>``
  pseudo-function (its top level and class bodies).

Any reached function containing a determinism sink is reported once,
with a witness call chain: wall-clock or entropy calls, imports of
``random``/``secrets``/``uuid``, ``os.environ``/``os.getenv`` reads,
iteration over an unsorted set, or (for digest roots only) ``repr()``
of a non-string value, whose output must never feed a canonical
encoding. A sink inside the deterministic packages is its own root, so
it is reported even when nothing calls it.

Taint never enters the telemetry package (wall-clock by design: its
records are not digest inputs), the checks package itself, or test
code.
"""

from __future__ import annotations

from .dataflow import ReachabilityWalk
from .engine import Finding, ProgramRule, register_rule
from .graph import ProgramGraph, site_suppressed

#: Directories whose contents feed the content-addressed cache and must
#: therefore stay deterministic (the core root set): the simulation
#: core, and the experiments and scenarios every result starts from.
DETERMINISTIC_PACKAGES = frozenset(
    {"core", "dram", "cpu", "memmodels", "experiments", "scenario"}
)

#: Function names forming the cache-identity (digest) root set.
DIGEST_ROOT_NAMES = frozenset(
    {"digest", "spec_digest", "canonical_json", "to_spec"}
)

#: Packages taint never propagates into (nor reports sinks from).
EXEMPT_PARTS = frozenset({"telemetry", "checks", "tests"})


@register_rule
class DigestDeterminismTaintRule(ProgramRule):
    rule_id = "RPR010"
    title = "nondeterminism reachable from digest-critical code"
    hint = (
        "every function reachable from Scenario.digest()/spec encoding, "
        "the simulation core or a result's entry point must be "
        "deterministic; thread a seed/clock through the configuration, "
        "sort the iteration, or justify with # repro: ignore[RPR010]"
    )

    def _module_in(self, graph: ProgramGraph, fid: str, parts: frozenset[str]) -> bool:
        """Whether the module defining ``fid`` lies under one of ``parts``."""
        module = graph.modules.get(graph.owner.get(fid, ""))
        return module is not None and bool(module.parts & parts)

    def run_program(self, graph: ProgramGraph) -> list[Finding]:
        digest_roots = [
            fid
            for fid, fn in graph.functions.items()
            if fn.name in DIGEST_ROOT_NAMES
        ]
        core_roots = [
            fid
            for fid in graph.functions
            if self._module_in(graph, fid, DETERMINISTIC_PACKAGES)
        ]
        stop = lambda fid: self._module_in(graph, fid, EXEMPT_PARTS)  # noqa: E731
        digest_walk = ReachabilityWalk(graph, sorted(digest_roots), stop=stop)
        core_walk = ReachabilityWalk(graph, sorted(core_roots), stop=stop)

        findings: list[Finding] = []
        for fid in sorted(digest_walk.reached | core_walk.reached):
            module = graph.modules[graph.owner[fid]]
            from_digest = fid in digest_walk.reached
            walk = digest_walk if from_digest else core_walk
            root_kind = (
                "the digest/canonical-encoding surface"
                if from_digest
                else "the deterministic packages"
            )
            for sink in graph.functions[fid].sinks:
                if sink.kind == "float-repr" and not from_digest:
                    continue
                if site_suppressed(sink.suppress, self.rule_id):
                    continue
                findings.append(
                    self.finding(
                        path=module.display_path,
                        line=sink.lineno,
                        col=sink.col,
                        message=(
                            f"{sink.detail} ({sink.kind}) is reachable from "
                            f"{root_kind}: {walk.describe_chain(fid)}"
                        ),
                    )
                )
        return findings

"""Reachability/taint walking on top of :class:`ProgramGraph`.

The interprocedural rules share one shape: a set of *root* functions
(digest entry points, serve coroutines), a set of
*fact sites* attached to functions (determinism sinks, global writes),
and the question "which facts are transitively reachable from a root,
and through what chain?". :class:`ReachabilityWalk` answers it once per
rule run; rules then turn each reached fact into a finding carrying a
witness call chain.

Propagation can be fenced: a rule passes a ``stop`` predicate naming
modules taint must not enter (telemetry is wall-clock *by design*; the
checks package itself sorts sets deliberately). A stopped function
neither reports its own facts nor forwards taint to its callees.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .graph import ProgramGraph

#: Maximum call-chain hops printed in a finding message.
CHAIN_DISPLAY_LIMIT = 6


class ReachabilityWalk:
    """Forward closure from root functions, with witness chains."""

    def __init__(
        self,
        graph: ProgramGraph,
        roots: Iterable[str],
        stop: Callable[[str], bool] | None = None,
    ) -> None:
        self.graph = graph
        self.roots = [fid for fid in roots if fid in graph.functions]
        self._stop = stop
        self.reached: set[str] = set()
        self.parents: dict[str, str] = {}
        self._walk()

    def _walk(self) -> None:
        frontier: list[str] = []
        for root in self.roots:
            if self._stop is not None and self._stop(root):
                continue
            if root not in self.reached:
                self.reached.add(root)
                frontier.append(root)
        while frontier:
            current = frontier.pop()
            for callee in self.graph.edges.get(current, ()):
                if callee in self.reached:
                    continue
                if self._stop is not None and self._stop(callee):
                    continue
                self.reached.add(callee)
                self.parents[callee] = current
                frontier.append(callee)

    def chain(self, fid: str) -> list[str]:
        """Witness path from a root to ``fid`` (inclusive)."""
        path = [fid]
        while path[-1] in self.parents:
            path.append(self.parents[path[-1]])
        path.reverse()
        return path

    def describe_chain(self, fid: str) -> str:
        """``root -> hop -> target`` rendered for a finding message."""
        chain = [self.graph.display(step) for step in self.chain(fid)]
        if len(chain) > CHAIN_DISPLAY_LIMIT:
            head = chain[: CHAIN_DISPLAY_LIMIT - 2]
            chain = head + [f"... ({len(chain) - len(head) - 1} more)", chain[-1]]
        return " -> ".join(chain)


__all__ = [
    "CHAIN_DISPLAY_LIMIT",
    "ReachabilityWalk",
]

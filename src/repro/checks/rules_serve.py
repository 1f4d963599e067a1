"""RPR009 — blocking I/O on the serving event loop.

The characterization service (:mod:`repro.serve`) multiplexes every
client on one asyncio event loop; a single blocking call inside an
``async def`` — a file read, an sqlite query, a ``time.sleep`` — stalls
*all* in-flight requests for its duration, which is exactly the failure
mode the service's executor offload exists to prevent
(:meth:`repro.serve.service.CharacterizationService._offload`).

Flagged inside ``async def`` bodies of serve modules:

- ``open(...)`` and ``Path`` read/write/stat-style methods;
- ``time.sleep`` (use ``asyncio.sleep``);
- ``sqlite3.connect`` and cursor/connection ``.execute`` /
  ``.executemany`` / ``.executescript`` / ``.commit``;
- blocking ``os`` / ``shutil`` filesystem calls (``os.replace``,
  ``os.unlink``, ``os.makedirs``, ``shutil.rmtree``, ...).

Synchronous ``def`` bodies are exempt even when nested inside an
``async def`` — defining a function is not running it, and the nested
function is typically precisely the thing being handed to
``run_in_executor``. Deliberate exceptions can be annotated
``# repro: ignore[RPR009]``.
"""

from __future__ import annotations

import ast

from .engine import FileContext, Rule, register_rule
from .graph import dotted_name

#: Exact dotted calls that block the calling thread.
_BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "sqlite3.connect",
        "os.replace",
        "os.rename",
        "os.unlink",
        "os.remove",
        "os.makedirs",
        "os.listdir",
        "os.scandir",
        "os.stat",
        "shutil.rmtree",
        "shutil.copyfile",
        "subprocess.run",
        "subprocess.check_output",
    }
)

#: Method names that block regardless of the receiver expression —
#: Path I/O and sqlite connection/cursor work. Narrow, distinctive
#: names only; generic verbs like ``write`` (StreamWriter) stay out.
_BLOCKING_METHODS = frozenset(
    {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "execute",
        "executemany",
        "executescript",
        "commit",
    }
)

#: Bare built-in calls that open blocking file handles.
_BLOCKING_BUILTINS = frozenset({"open"})


def _blocking_label(func: ast.AST) -> str | None:
    """A display label if ``func`` is a known blocking callable."""
    if isinstance(func, ast.Name):
        return func.id if func.id in _BLOCKING_BUILTINS else None
    if isinstance(func, ast.Attribute):
        full = dotted_name(func)
        if full in _BLOCKING_DOTTED:
            return full
        if func.attr in _BLOCKING_METHODS:
            return full or f"<expr>.{func.attr}"
    return None


@register_rule
class BlockingAsyncIORule(Rule):
    rule_id = "RPR009"
    title = "blocking I/O inside an async def on the serving event loop"
    hint = (
        "offload blocking work through the service executor "
        "(loop.run_in_executor / CharacterizationService._offload) or use "
        "the asyncio equivalent (asyncio.sleep); annotate deliberate "
        "cases with `# repro: ignore[RPR009]`"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return "serve" in ctx.parts

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._scan(node)
        # nested async defs get their own visit (and their own scan)
        self.generic_visit(node)

    def _scan(self, func: ast.AsyncFunctionDef) -> None:
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                # defined here, run elsewhere — usually in the executor
                continue
            if isinstance(node, ast.Call):
                label = _blocking_label(node.func)
                if label is not None:
                    self.report(
                        node,
                        f"blocking call `{label}` inside "
                        f"`async def {func.name}` stalls every in-flight "
                        "request on the event loop",
                    )
            stack.extend(ast.iter_child_nodes(node))

"""RPR007 — exception swallowing.

The execution layer classifies every failure into a typed taxonomy
(:mod:`repro.resilience.failures`) precisely so that nothing dies with
an opaque, untriageable error — a discipline a single ``except
Exception: pass`` quietly undoes. Two shapes are flagged:

- a bare ``except:`` clause, always — it catches ``SystemExit`` and
  ``KeyboardInterrupt`` and hides which failures were anticipated;
- a broad handler (``except Exception`` / ``except BaseException``)
  whose body neither re-raises, returns, yields nor calls anything —
  i.e. the failure is swallowed without being recorded, classified,
  logged or transformed.

Handlers that *do something* with the exception (classify it, build an
error record, log it, fall back to a computed value) are legitimate and
untouched; so are narrow handlers (``except OSError: pass`` states
exactly which failure is being tolerated). Code inside a nested
``def`` or ``class`` does not count — code merely *defined* in a
handler never runs there. Deliberate swallows can be annotated
``# repro: ignore[RPR007]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import Rule, register_rule
from .graph import dotted_name

#: Exception names considered "broad": catching these without acting on
#: the failure swallows every possible error indiscriminately.
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _is_broad(annotation: ast.AST | None) -> bool:
    """Whether an ``except <annotation>`` clause catches everything."""
    if annotation is None:
        return True
    if isinstance(annotation, ast.Tuple):
        return any(_is_broad(element) for element in annotation.elts)
    name = dotted_name(annotation)
    if name is None:
        return False
    return name.rsplit(".", 1)[-1] in _BROAD_NAMES


def _runs_in_handler(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Every node of a handler body, skipping nested def/class bodies."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _acts_on_failure(body: list[ast.stmt]) -> bool:
    """Raise/Return/Yield/Call anywhere in the handler (nested ifs too)."""
    return any(
        isinstance(
            node, (ast.Raise, ast.Return, ast.Call, ast.Yield, ast.YieldFrom)
        )
        for node in _runs_in_handler(body)
    )


@register_rule
class ExceptionSwallowRule(Rule):
    rule_id = "RPR007"
    title = "bare or broad exception handler that swallows the failure"
    hint = (
        "classify the failure (repro.resilience.classify_failure), record "
        "it, or narrow the except to the exception you mean to tolerate; "
        "annotate deliberate swallows with `# repro: ignore[RPR007]`"
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:` catches SystemExit/KeyboardInterrupt and "
                "hides which failures were anticipated",
            )
        elif _is_broad(node.type):
            caught = dotted_name(node.type) or "a broad exception tuple"
            if not _acts_on_failure(node.body):
                self.report(
                    node,
                    f"`except {caught}` swallows the failure without "
                    "recording, classifying or transforming it",
                )
        self.generic_visit(node)

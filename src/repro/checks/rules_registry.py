"""RPR004 — experiment-registry hygiene.

The experiment registry (PR 1) is populated by importing every module in
``repro/experiments`` and letting ``@register`` run as a side effect.
Mistakes surface late and confusingly: a figure module that forgets the
decorator silently drops out of ``repro run --all``; a computed id
breaks manifest/cache keys; an option without a default cannot be
introspected into the ``--opt`` schema. This rule checks, at lint time:

- every ``experiments/fig*.py`` / ``table*.py`` module registers at
  least one experiment via ``@register("<literal id>", ...)``;
- registered ids are string literals, unique across the whole run;
- the run function takes ``scale`` with a default, and every other
  option parameter has a default (the registry derives the ``--opt``
  schema from defaults);
- a literal ``cost=`` keyword is one of ``cheap``/``moderate``/
  ``expensive``.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from pathlib import Path

from .engine import FileContext, Rule, register_rule

_COSTS = ("cheap", "moderate", "expensive")

#: Module name patterns that MUST register an experiment.
_MUST_REGISTER = ("fig*.py", "table*.py")


def _register_decorator(node: ast.FunctionDef) -> ast.Call | None:
    """The ``@register(...)`` call decorating ``node``, if any."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            func = decorator.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name == "register":
                return decorator
    return None


@register_rule
class RegistryHygieneRule(Rule):
    rule_id = "RPR004"
    title = "experiment-registry hygiene violation"
    hint = (
        "experiment modules declare themselves with "
        "@register(\"<id>\", ...) on a run function whose options all "
        "have defaults; see repro/experiments/registry.py"
    )

    def __init__(self) -> None:
        super().__init__()
        #: experiment id -> (display path, line) of first registration.
        self._seen_ids: dict[str, tuple[str, int]] = {}

    def applies_to(self, ctx: FileContext) -> bool:
        return "experiments" in ctx.parts and Path(ctx.path).suffix == ".py"

    def setup(self, ctx: FileContext) -> None:
        self._registered_here = 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        decorator = _register_decorator(node)
        if decorator is not None:
            self._registered_here += 1
            self._check_register_call(node, decorator)
            self._check_signature(node)
        self.generic_visit(node)

    def _check_register_call(self, func: ast.FunctionDef, call: ast.Call) -> None:
        assert self.ctx is not None
        if not call.args:
            self.report(call, "@register call has no experiment id")
            return
        id_arg = call.args[0]
        if not (isinstance(id_arg, ast.Constant) and isinstance(id_arg.value, str)):
            self.report(
                call,
                "experiment id must be a string literal (computed ids break "
                "manifest and cache keys)",
            )
            return
        experiment_id = id_arg.value
        previous = self._seen_ids.get(experiment_id)
        if previous is not None:
            prev_path, prev_line = previous
            self.report(
                call,
                f"duplicate experiment id {experiment_id!r} "
                f"(already registered at {prev_path}:{prev_line})",
            )
        else:
            self._seen_ids[experiment_id] = (self.ctx.display_path, call.lineno)
        for keyword in call.keywords:
            if keyword.arg == "cost" and isinstance(keyword.value, ast.Constant):
                if keyword.value.value not in _COSTS:
                    self.report(
                        keyword.value,
                        f"cost must be one of {_COSTS}, got "
                        f"{keyword.value.value!r}",
                    )

    def _check_signature(self, node: ast.FunctionDef) -> None:
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        names = [arg.arg for arg in positional + arguments.kwonlyargs]
        if "scale" not in names:
            self.report(
                node,
                f"registered function {node.name!r} does not accept 'scale'",
            )
        # Map every parameter to whether it has a default; the registry
        # introspects defaults into the --opt schema, so an option
        # without one is undeclarable from the CLI.
        defaults_start = len(positional) - len(arguments.defaults)
        for index, arg in enumerate(positional):
            if index < defaults_start and arg.arg not in ("self", "cls"):
                self.report(
                    arg,
                    f"option {arg.arg!r} of {node.name!r} has no default; "
                    "the registry cannot build its --opt schema",
                )
        for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if default is None:
                self.report(
                    arg,
                    f"keyword-only option {arg.arg!r} of {node.name!r} "
                    "has no default",
                )

    def _leave_module(self) -> None:
        assert self.ctx is not None
        stem = Path(self.ctx.path).name
        if self._registered_here == 0 and any(
            fnmatch(stem, pattern) for pattern in _MUST_REGISTER
        ):
            self.report(
                self.ctx.tree,
                f"experiment module {stem} registers no experiment "
                "(missing @register?)",
            )

    def visit_Module(self, node: ast.Module) -> None:
        self.generic_visit(node)
        self._leave_module()

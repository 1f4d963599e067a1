"""Whole-program substrate: import graph + approximate call graph.

The per-file rules each see one AST at a time, so an invariant that
spans a module boundary — ``Scenario.digest()`` calling into a helper
that calls ``time.time()`` two modules away — is invisible to them.
This module builds the program-level view the interprocedural rules
(RPR010, RPR011) walk:

- :func:`extract_summary` distills one parsed file into a
  :class:`ModuleSummary`: imports as written, its classes and
  module-level bindings, and every function with the calls it makes,
  the determinism-relevant *sink* sites it contains (entropy imports
  included) and the module-level state it writes. Code outside every
  ``def`` body — the module top level and class bodies — is
  summarized as one ``<module>`` pseudo-function per module.
- :class:`ProgramGraph` binds summaries to dotted module names,
  resolves imports (absolute, relative, aliased; ``import x as y``)
  and builds an approximate call graph: calls through imported names
  and ``self.`` resolve precisely, attribute calls on unknown objects
  fall back to linking every program class that defines a method of
  that name (minus a blocklist of builtin-container method names).
  Dynamic imports and computed calls degrade gracefully — they simply
  contribute no edges. :class:`~repro.checks.dataflow.ReachabilityWalk`
  walks the edges and keeps parent links, so rules can print a call
  chain with every finding.

The approximation is deliberately *over*-linking for the taint rules
(an edge too many surfaces a finding a human dismisses with an
``ignore``; an edge too few hides a real nondeterminism leak behind a
module boundary).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import AbstractSet, Sequence

#: Call targets that read wall-clock state.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)

#: Call targets that read entropy.
ENTROPY_CALLS = frozenset(
    {
        "uuid.uuid4",
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbelow",
    }
)

#: Unseeded RNG factories (only a sink when called with no arguments).
RNG_FACTORIES = frozenset(
    {
        "np.random.default_rng",
        "numpy.random.default_rng",
        "random.Random",
    }
)

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: Method names never linked by the by-name fallback: they belong to
#: builtin containers / IO objects and would wire the call graph to
#: every class that happens to define one.
_FALLBACK_BLOCKLIST = frozenset(
    {
        "acquire",
        "add",
        "append",
        "astype",
        "cancel",
        "clear",
        "close",
        "copy",
        "decode",
        "discard",
        "done",
        "encode",
        "endswith",
        "exists",
        "extend",
        "flush",
        "format",
        "get",
        "insert",
        "is_dir",
        "is_file",
        "items",
        "join",
        "keys",
        "lower",
        "mkdir",
        "open",
        "pop",
        "popitem",
        "put",
        "read",
        "read_text",
        "release",
        "remove",
        "reshape",
        "result",
        "rglob",
        "set_result",
        "setdefault",
        "shutdown",
        "sort",
        "split",
        "start",
        "startswith",
        "stop",
        "strip",
        "submit",
        "tolist",
        "unlink",
        "update",
        "upper",
        "values",
        "write",
        "write_text",
    }
)

#: Root modules whose import alone is a determinism sink.
ENTROPY_MODULES = frozenset({"random", "secrets", "uuid"})

#: Qualname of the pseudo-function holding a module's code outside
#: every ``def`` body (the top level and class bodies).
MODULE_QUALNAME = "<module>"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


def suppression(lines: Sequence[str], lineno: int) -> str | None:
    """``"*"`` (all rules), ``"RPR010,RPR011"`` or None for a line."""
    if not 1 <= lineno <= len(lines):
        return None
    match = _SUPPRESS_RE.search(lines[lineno - 1])
    if match is None:
        return None
    listed = match.group(1)
    if listed is None:
        return "*"
    return ",".join(item.strip() for item in listed.split(",") if item.strip())


def site_suppressed(suppress: str | None, rule_id: str) -> bool:
    """Whether a recorded suppression marker covers ``rule_id``."""
    if suppress is None:
        return False
    if suppress == "*":
        return True
    return rule_id in suppress.split(",")


@dataclass
class CallSite:
    """One call expression, recorded by its dotted spelling."""

    spelling: str
    lineno: int
    col: int


@dataclass
class SinkSite:
    """One determinism-hazard site inside a function body."""

    kind: str  # wallclock | entropy | environment | set-iteration | float-repr
    detail: str
    lineno: int
    col: int
    suppress: str | None = None


@dataclass
class GlobalWrite:
    """A write to module-level state from inside a function."""

    name: str  # bare global, or "alias.global" for a cross-module write
    kind: str  # rebind | mutate
    lineno: int
    col: int
    suppress: str | None = None


@dataclass
class FunctionSummary:
    """One function or method, with the facts the program rules need."""

    qualname: str  # "func" or "Class.method", unique within the module
    name: str
    cls: str | None
    is_async: bool
    calls: list[CallSite] = field(default_factory=list)
    sinks: list[SinkSite] = field(default_factory=list)
    global_writes: list[GlobalWrite] = field(default_factory=list)


@dataclass
class ImportEntry:
    """One import binding as written (resolved later by the graph)."""

    alias: str  # local name the import binds
    module: str  # module path as written ("" for ``from . import x``)
    name: str | None  # attribute for from-imports, None for ``import m``
    level: int  # relative-import level (0 = absolute)


@dataclass
class ModuleSummary:
    """Everything the program rules need from one source file.

    Content-derived only — the binding to a dotted module name and a
    display path happens at graph-build time.
    """

    imports: list[ImportEntry] = field(default_factory=list)
    star_imports: list[str] = field(default_factory=list)
    functions: list[FunctionSummary] = field(default_factory=list)
    #: names of top-level classes (``C()`` links to ``C.__init__``)
    classes: set[str] = field(default_factory=set)
    #: names bound at module level (the state RPR011 guards)
    globals: set[str] = field(default_factory=set)

    # bound at graph-build time
    module: str = ""
    display_path: str = ""
    parts: frozenset[str] = frozenset()
    is_package: bool = False


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FunctionVisitor(ast.NodeVisitor):
    """Collects calls, sinks and global writes from one function body
    (or, for ``<module>``, from a module's code outside them).

    Nested functions, classes and lambdas fold into the enclosing
    function: a closure that calls ``time.time()`` taints its definer,
    which is the conservative direction for the taint rules.
    """

    def __init__(
        self,
        summary: FunctionSummary,
        module_globals: AbstractSet[str],
        lines: Sequence[str],
    ) -> None:
        self.summary = summary
        self.module_globals = module_globals
        self.lines = lines
        self.global_decls: set[str] = set()
        self.local_names: set[str] = set()

    # -- scope bookkeeping ---------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.global_decls.update(node.names)

    def _note_local(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id not in self.global_decls:
                self.local_names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_local(element)
        elif isinstance(target, ast.Starred):
            self._note_local(target.value)

    def _is_module_global(self, name: str) -> bool:
        if name in self.global_decls:
            return name in self.module_globals
        return name in self.module_globals and name not in self.local_names

    def _record_write(self, name: str, kind: str, node: ast.AST) -> None:
        lineno = getattr(node, "lineno", 1)
        self.summary.global_writes.append(
            GlobalWrite(
                name=name,
                kind=kind,
                lineno=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                suppress=suppression(self.lines, lineno),
            )
        )

    def _check_store(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_decls and target.id in self.module_globals:
                self._record_write(target.id, "rebind", node)
            else:
                self._note_local(target)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            if isinstance(base, ast.Name) and self._is_module_global(base.id):
                self._record_write(base.id, "mutate", node)
            elif isinstance(base, ast.Attribute):
                spelling = dotted_name(target)
                # "alias.GLOBAL = v" cross-module rebinds resolve later
                if spelling is not None and spelling.count(".") == 1:
                    self._record_write(spelling, "rebind", node)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target, node)
        # cross-module "alias.NAME = value" rebinds
        for target in node.targets:
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                if not self._is_module_global(target.value.id) and (
                    target.value.id not in self.local_names
                ):
                    self._record_write(
                        f"{target.value.id}.{target.attr}", "rebind", node
                    )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._note_local(node.target)
        self._sink_set_iteration(node, node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._note_local(node.target)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._note_local(item.optional_vars)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._note_local(node.target)
        self._sink_set_iteration(node.iter, node.iter)
        self.generic_visit(node)

    # -- nested definitions fold into the parent -----------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._note_local(ast.Name(id=node.name))
        for stmt in node.body:
            self.visit(stmt)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._note_local(ast.Name(id=node.name))
        for stmt in node.body:
            self.visit(stmt)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._note_local(ast.Name(id=node.name))
        for stmt in node.body:
            self.visit(stmt)

    # -- sinks and calls ------------------------------------------------

    def _sink(self, kind: str, detail: str, node: ast.AST) -> None:
        lineno = getattr(node, "lineno", 1)
        self.summary.sinks.append(
            SinkSite(
                kind=kind,
                detail=detail,
                lineno=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                suppress=suppression(self.lines, lineno),
            )
        )

    def _sink_set_iteration(self, node: ast.AST, iterable: ast.AST) -> None:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            self._sink("set-iteration", "set display", node)
        elif isinstance(iterable, ast.Call) and dotted_name(iterable.func) in (
            "set",
            "frozenset",
        ):
            self._sink("set-iteration", f"{dotted_name(iterable.func)}(...)", node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] in ENTROPY_MODULES:
                self._sink("entropy", f"import {alias.name}", node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # ``from uuid import UUID`` is harmless: only uuid4() reads entropy
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] in ("random", "secrets"):
            self._sink("entropy", f"from {module} import", node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if dotted_name(node) == "os.environ":
            self._sink("environment", "os.environ", node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        spelling = dotted_name(node.func)
        if spelling is not None:
            self.summary.calls.append(
                CallSite(
                    spelling=spelling,
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                )
            )
            self._classify_call(spelling, node)
        self.generic_visit(node)

    def _classify_call(self, spelling: str, node: ast.Call) -> None:
        if spelling in WALLCLOCK_CALLS:
            self._sink("wallclock", spelling, node)
        elif spelling in ENTROPY_CALLS:
            self._sink("entropy", spelling, node)
        elif spelling in RNG_FACTORIES and not (node.args or node.keywords):
            self._sink("entropy", f"{spelling}() without a seed", node)
        elif spelling.startswith("random.") and spelling not in RNG_FACTORIES:
            self._sink("entropy", f"{spelling} (process-global RNG)", node)
        elif spelling == "os.getenv":
            self._sink("environment", spelling, node)
        elif spelling == "repr" and not (
            node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            self._sink("float-repr", "repr()", node)


def _function_summary(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    cls: str | None,
    module_globals: AbstractSet[str],
    lines: Sequence[str],
) -> FunctionSummary:
    summary = FunctionSummary(
        qualname=f"{cls}.{node.name}" if cls else node.name,
        name=node.name,
        cls=cls,
        is_async=isinstance(node, ast.AsyncFunctionDef),
    )
    visitor = _FunctionVisitor(summary, module_globals, lines)
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        visitor.local_names.add(arg.arg)
    for star in (args.vararg, args.kwarg):
        if star is not None:
            visitor.local_names.add(star.arg)
    for stmt in node.body:
        visitor.visit(stmt)
    return summary


def _module_summary(
    tree: ast.Module,
    module_globals: AbstractSet[str],
    lines: Sequence[str],
) -> FunctionSummary:
    """The ``<module>`` pseudo-function: code outside every def body.

    Covers the top level and the bodies of top-level classes, plus the
    decorators and defaults those levels evaluate; the bodies of
    top-level functions and methods have summaries of their own.
    """
    summary = FunctionSummary(
        qualname=MODULE_QUALNAME,
        name=MODULE_QUALNAME,
        cls=None,
        is_async=False,
    )
    visitor = _FunctionVisitor(summary, module_globals, lines)
    for stmt in tree.body:
        nodes: list[ast.stmt] = [stmt]
        if isinstance(stmt, ast.ClassDef):
            for part in (*stmt.decorator_list, *stmt.bases, *stmt.keywords):
                visitor.visit(part)
            nodes = stmt.body
        for node in nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visitor.visit(node)
                continue
            args = node.args
            for expr in (*node.decorator_list, *args.defaults, *args.kw_defaults):
                if expr is not None:
                    visitor.visit(expr)
    return summary


def extract_summary(tree: ast.Module, source: str) -> ModuleSummary:
    """Distill one parsed module into its :class:`ModuleSummary`."""
    lines = source.splitlines()
    summary = ModuleSummary()

    # pass 1: module-level bindings (needed before visiting functions so
    # writes can be attributed to module globals)
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    summary.globals.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            summary.globals.add(stmt.target.id)

    # pass 2: imports, functions, classes, then the module's own code
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                summary.imports.append(
                    ImportEntry(alias=bound, module=target, name=None, level=0)
                )
        elif isinstance(stmt, ast.ImportFrom):
            module = stmt.module or ""
            for alias in stmt.names:
                if alias.name == "*":
                    summary.star_imports.append(module)
                    continue
                summary.imports.append(
                    ImportEntry(
                        alias=alias.asname or alias.name,
                        module=module,
                        name=alias.name,
                        level=stmt.level,
                    )
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions.append(
                _function_summary(stmt, None, summary.globals, lines)
            )
        elif isinstance(stmt, ast.ClassDef):
            summary.classes.add(stmt.name)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    summary.functions.append(
                        _function_summary(item, stmt.name, summary.globals, lines)
                    )
    summary.functions.append(_module_summary(tree, summary.globals, lines))
    return summary


# ----------------------------------------------------------------------
# The program graph
# ----------------------------------------------------------------------


def module_names_for(paths: Sequence[str]) -> list[str]:
    """Dotted module names for a set of display paths.

    Paths containing a ``repro`` component anchor there (``src/repro/
    core/curve.py`` -> ``repro.core.curve``); anything else drops the
    directories shared by every path except the last one (``tmp/x/pkg/
    a.py`` + ``tmp/x/pkg/b.py`` -> ``pkg.a`` + ``pkg.b``), so fixture
    trees get stable dotted names that their own absolute imports can
    resolve against. ``__init__.py`` names the package itself.
    """
    split: list[list[str]] = []
    for path in paths:
        parts = [part for part in re.split(r"[\\/]+", path) if part not in ("", ".")]
        split.append(parts)
    prefix = 0
    if len(split) > 1:
        # strip directories shared by every path, but keep the last
        # shared one: {pkg/a.py, pkg/b.py} must name pkg.a / pkg.b so
        # the files' own absolute imports ("from pkg.b import ...")
        # still resolve
        directories = [parts[:-1] for parts in split]
        shortest = min(len(parts) for parts in directories)
        common = 0
        while common < shortest and len({parts[common] for parts in directories}) == 1:
            common += 1
        prefix = max(0, common - 1)
    names = []
    for parts in split:
        if "repro" in parts:
            anchored = parts[parts.index("repro"):]
        else:
            anchored = parts[prefix:] if len(split) > 1 else parts[-1:]
        if anchored[-1].endswith(".py"):
            anchored = anchored[:-1] + [anchored[-1][:-3]]
        if anchored[-1] == "__init__":
            anchored = anchored[:-1]
        names.append(".".join(anchored) or "module")
    return names


class ProgramGraph:
    """Import + approximate call graph over a set of module summaries."""

    def __init__(self, modules: Sequence[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for module in modules:
            if module.module:
                self.modules[module.module] = module
        #: "module:qualname" -> FunctionSummary
        self.functions: dict[str, FunctionSummary] = {}
        #: function id -> owning module name
        self.owner: dict[str, str] = {}
        #: method name -> function ids (for the by-name fallback)
        self._methods: dict[str, list[str]] = {}
        for name, module in self.modules.items():
            for fn in module.functions:
                fid = f"{name}:{fn.qualname}"
                self.functions[fid] = fn
                self.owner[fid] = name
                if fn.cls is not None and fn.name not in _FALLBACK_BLOCKLIST:
                    self._methods.setdefault(fn.name, []).append(fid)
        #: caller id -> callee ids
        self.edges: dict[str, list[str]] = {}
        self._import_maps: dict[str, dict[str, tuple[str, str | None]]] = {}
        for name in self.modules:
            self._import_maps[name] = self._resolve_imports(name)
        for name, module in self.modules.items():
            for fn in module.functions:
                fid = f"{name}:{fn.qualname}"
                targets: list[str] = []
                seen: set[str] = set()
                for call in fn.calls:
                    for callee in self.resolve_call(name, fn, call.spelling):
                        if callee not in seen:
                            seen.add(callee)
                            targets.append(callee)
                self.edges[fid] = targets

    # -- construction helpers -------------------------------------------

    @classmethod
    def build(
        cls, summaries: Sequence[ModuleSummary], paths: Sequence[str]
    ) -> "ProgramGraph":
        """Bind ``summaries`` to module names derived from ``paths``."""
        names = module_names_for(list(paths))
        for summary, name, path in zip(summaries, names, paths):
            summary.module = name
            summary.display_path = path
            normalized = [
                part for part in re.split(r"[\\/]+", path) if part not in ("", ".")
            ]
            summary.parts = frozenset(part.lower() for part in normalized)
            summary.is_package = path.endswith("__init__.py")
        return cls(summaries)

    def _lookup_module(self, dotted: str) -> str | None:
        """Find a scanned module for an absolute dotted path.

        Tries the name as written, then with the ``repro.`` prefix
        added or removed, so ``from repro.specs import x`` resolves in
        a tree scanned from ``src/repro`` and relative fixtures alike.
        """
        if dotted in self.modules:
            return dotted
        if dotted.startswith("repro."):
            trimmed = dotted[len("repro."):]
            if trimmed in self.modules:
                return trimmed
        prefixed = f"repro.{dotted}"
        if prefixed in self.modules:
            return prefixed
        return None

    def _resolve_imports(
        self, module_name: str
    ) -> dict[str, tuple[str, str | None]]:
        """alias -> (module, attribute | None) with modules resolved.

        An entry ``("repro.specs", None)`` binds a module; an entry
        ``("repro.specs", "spec_digest")`` binds one attribute of it.
        Unresolvable imports (stdlib, third-party, dynamic) are kept
        with their written spelling so sink classification still sees
        ``time.time`` even though no edge exists.
        """
        module = self.modules[module_name]
        resolved: dict[str, tuple[str, str | None]] = {}
        for entry in module.imports:
            if entry.level > 0:
                parts = module_name.split(".")
                # inside a package __init__, level 1 is the package itself
                drop = entry.level - 1 if module.is_package else entry.level
                base = parts[: len(parts) - drop] if drop else parts
                target = ".".join(base + ([entry.module] if entry.module else []))
            else:
                target = entry.module
            found = self._lookup_module(target)
            if entry.name is None:
                resolved[entry.alias] = (found or target, None)
                continue
            submodule = self._lookup_module(
                f"{found}.{entry.name}" if found else f"{target}.{entry.name}"
            )
            if submodule is not None:
                resolved[entry.alias] = (submodule, None)
            else:
                resolved[entry.alias] = (found or target, entry.name)
        return resolved

    # -- call resolution ------------------------------------------------

    def _function_in(self, module_name: str, qualname: str) -> str | None:
        fid = f"{module_name}:{qualname}"
        return fid if fid in self.functions else None

    def _resolve_in_module(
        self, module_name: str, parts: list[str]
    ) -> list[str]:
        """Resolve an attribute path rooted at a scanned module."""
        if not parts:
            return []
        module = self.modules.get(module_name)
        if module is None:
            return []
        head = parts[0]
        submodule = self._lookup_module(f"{module_name}.{head}")
        if submodule is not None and len(parts) > 1:
            return self._resolve_in_module(submodule, parts[1:])
        if head in module.classes:
            if len(parts) >= 2:
                found = self._function_in(module_name, f"{head}.{parts[1]}")
                return [found] if found else []
            targets = []
            for ctor in ("__init__", "__post_init__", "__new__"):
                found = self._function_in(module_name, f"{head}.{ctor}")
                if found:
                    targets.append(found)
            return targets
        found = self._function_in(module_name, head)
        if found:
            return [found]
        # re-export: follow the module's own import of this name
        imports = self._import_maps.get(module_name, {})
        if head in imports:
            target_module, attribute = imports[head]
            if attribute is None:
                if len(parts) > 1 and target_module in self.modules:
                    return self._resolve_in_module(target_module, parts[1:])
            elif target_module in self.modules:
                return self._resolve_in_module(
                    target_module, [attribute] + parts[1:]
                )
        # star re-exports
        for star in module.star_imports:
            star_module = self._lookup_module(star)
            if star_module:
                resolved = self._resolve_in_module(star_module, parts)
                if resolved:
                    return resolved
        return []

    def resolve_call(
        self, module_name: str, caller: FunctionSummary, spelling: str
    ) -> list[str]:
        """Function ids a call spelling may reach (possibly empty)."""
        parts = spelling.split(".")
        head = parts[0]
        module = self.modules[module_name]
        if head in ("self", "cls") and caller.cls is not None:
            if len(parts) == 2:
                found = self._function_in(module_name, f"{caller.cls}.{parts[1]}")
                if found:
                    return [found]
            # self.attr.method(...): the receiver's type is unknown —
            # over-link by method name (the safe direction for taint)
            return self._fallback(parts[-1])
        imports = self._import_maps.get(module_name, {})
        if head in imports:
            target_module, attribute = imports[head]
            if attribute is None:
                if target_module in self.modules:
                    return self._resolve_in_module(target_module, parts[1:])
                return []  # unscanned module (stdlib / third party)
            if target_module in self.modules:
                return self._resolve_in_module(
                    target_module, [attribute] + parts[1:]
                )
            return []
        local = self._resolve_in_module(module_name, parts)
        if local:
            return local
        if len(parts) >= 2:
            return self._fallback(parts[-1])
        return []

    def _fallback(self, method: str) -> list[str]:
        """By-name linking for attribute calls on unknown receivers."""
        return list(self._methods.get(method, []))

    # -- queries ---------------------------------------------------------

    def display(self, fid: str) -> str:
        """Human form of a function id: ``module.qualname``."""
        module, _, qualname = fid.partition(":")
        return f"{module}.{qualname}"


__all__ = [
    "CallSite",
    "FunctionSummary",
    "GlobalWrite",
    "ImportEntry",
    "ModuleSummary",
    "ProgramGraph",
    "SinkSite",
    "dotted_name",
    "extract_summary",
    "module_names_for",
    "site_suppressed",
    "suppression",
]

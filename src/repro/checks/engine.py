"""AST rule engine for the project-specific static-analysis pass.

Generic linters cannot see the invariants this reproduction depends on:
unit discipline funneled through :mod:`repro.units` and the telemetry
hot-path binding discipline, each visible in one file, plus determinism
of the simulation core (the content-addressed result cache is only
sound if the same inputs produce the same tables), which spans files.
The first kind is a :class:`Rule`, the second a :class:`ProgramRule`
over the program graph; the engine parses files once and runs every
selected rule over the tree.

A rule is an :class:`ast.NodeVisitor` subclass with a ``rule_id``
(``RPR001`` ...), a one-line ``title`` and a ``hint`` users see next to
each finding. Rules are registered with :func:`register_rule` and
instantiated fresh per :func:`check_paths` run; a rule that needs more
than one file is a :class:`ProgramRule`.

Every run is cold and serial: :func:`check_paths` reads, parses and
analyses every file it is given, then runs the whole-program rules over
a graph built from the same parsed trees. Nothing is cached between
runs, so a finding always reflects the current source *and* the current
rule code.

Suppression: a line ending in ``# repro: ignore`` silences every rule on
that line; ``# repro: ignore[RPR001,RPR005]`` silences only the listed
rules. Suppressions are deliberate, grep-able escape hatches — prefer
fixing the code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import CheckError
from .graph import (
    ModuleSummary,
    ProgramGraph,
    extract_summary,
    site_suppressed,
    suppression,
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    hint: str = ""

    def format(self) -> str:
        """``file:line:col: RPRnnn message (hint)`` for terminal output."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "hint": self.hint,
        }

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


class FileContext:
    """One parsed source file plus what rules need to scope themselves."""

    def __init__(
        self, path: Path, source: str, display_path: str | None = None
    ) -> None:
        self.path = path
        self.display_path = display_path or str(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.display_path)
        #: Lowercased path components, used by rules to decide scope
        #: (``experiments`` for the scenario-layer boundary, ``serve``
        #: for the event-loop rule, ``telemetry`` for hot-path
        #: exemption).
        self.parts = frozenset(part.lower() for part in path.parts)

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Whether a ``# repro: ignore`` comment covers this finding."""
        return site_suppressed(suppression(self.lines, line), rule_id)


class Rule(ast.NodeVisitor):
    """Base class for one lint rule.

    Subclasses set ``rule_id``, ``title`` and ``hint``, override
    ``visit_*`` methods and call :meth:`report` for each violation.
    Per-file state must be reset in :meth:`setup`.
    """

    rule_id: str = ""
    title: str = ""
    hint: str = ""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self.ctx: FileContext | None = None

    # -- hooks ---------------------------------------------------------

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule should run on ``ctx`` at all."""
        return True

    def setup(self, ctx: FileContext) -> None:
        """Reset per-file state before visiting a new tree."""

    # -- driver --------------------------------------------------------

    def run(self, ctx: FileContext) -> list[Finding]:
        self.ctx = ctx
        self.findings = []
        self.setup(ctx)
        self.visit(ctx.tree)
        found, self.findings = self.findings, []
        return found

    def report(
        self,
        node: ast.AST,
        message: str,
        *,
        hint: str | None = None,
        ctx: FileContext | None = None,
    ) -> None:
        ctx = ctx or self.ctx
        assert ctx is not None
        line = getattr(node, "lineno", 1)
        if ctx.suppressed(line, self.rule_id):
            return
        self.findings.append(
            Finding(
                path=ctx.display_path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=self.rule_id,
                message=message,
                hint=self.hint if hint is None else hint,
            )
        )


class ProgramRule:
    """Base class for one whole-program (interprocedural) rule.

    Unlike :class:`Rule`, a program rule never sees a single file: it
    receives the :class:`~repro.checks.graph.ProgramGraph` built over
    every scanned module and returns findings directly. Suppression is
    the rule's responsibility — the graph's summaries carry the
    ``# repro: ignore`` markers recorded at extraction time (see
    :func:`repro.checks.graph.site_suppressed`), because a finding may
    be anchored in a different file from the one the rule reasons
    about.
    """

    rule_id: str = ""
    title: str = ""
    hint: str = ""

    def run_program(self, graph: ProgramGraph) -> list[Finding]:
        """Findings over the whole program; override in subclasses."""
        raise NotImplementedError

    def finding(
        self,
        *,
        path: str,
        line: int,
        col: int,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        return Finding(
            path=path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
            hint=self.hint if hint is None else hint,
        )


#: rule id -> rule class, populated by :func:`register_rule`.
RULE_CLASSES: dict[str, type[Rule] | type[ProgramRule]] = {}

#: Pseudo-rules reported by the engine itself, not by a rule class.
#: RPR000 marks a file the analyzer could not parse: the file is
#: reported and skipped instead of aborting the whole run.
PARSE_RULE_ID = "RPR000"
PSEUDO_RULES: dict[str, tuple[str, str]] = {
    PARSE_RULE_ID: (
        "source file could not be parsed",
        "fix the syntax error; every other file was still analyzed",
    ),
}


def register_rule(
    cls: type[Rule] | type[ProgramRule],
) -> type[Rule] | type[ProgramRule]:
    """Class decorator adding a rule to the engine's registry."""
    if not cls.rule_id:
        raise CheckError(f"rule class {cls.__name__} has no rule_id")
    if cls.rule_id in RULE_CLASSES or cls.rule_id in PSEUDO_RULES:
        raise CheckError(f"duplicate rule id {cls.rule_id}")
    RULE_CLASSES[cls.rule_id] = cls
    return cls


def available_rules() -> list[tuple[str, str]]:
    """``(rule_id, title)`` pairs for every registered rule, sorted."""
    catalog = {rule_id: cls.title for rule_id, cls in RULE_CLASSES.items()}
    catalog.update(
        {rule_id: title for rule_id, (title, _) in PSEUDO_RULES.items()}
    )
    return sorted(catalog.items())


def parse_failure_finding(display_path: str, error: str) -> Finding:
    """The RPR000 finding for one unparseable file."""
    title, hint = PSEUDO_RULES[PARSE_RULE_ID]
    line = 1
    match = re.search(r"line (\d+)", error)
    if match is not None:
        line = max(1, int(match.group(1)))
    return Finding(
        path=display_path,
        line=line,
        col=1,
        rule_id=PARSE_RULE_ID,
        message=f"{title}: {error}",
        hint=hint,
    )


def _select_rules(
    rules: Sequence[str] | None,
) -> tuple[list[Rule], list[ProgramRule]]:
    """Instantiate the selected rules, split by kind."""
    if rules is None:
        selected = sorted(RULE_CLASSES)
    else:
        selected = [rule_id for rule_id in rules if rule_id not in PSEUDO_RULES]
        unknown = sorted(set(selected) - set(RULE_CLASSES))
        if unknown:
            raise CheckError(
                f"unknown rule(s) {unknown}; available: "
                f"{sorted([*RULE_CLASSES, *PSEUDO_RULES])}"
            )
    file_rules: list[Rule] = []
    program_rules: list[ProgramRule] = []
    for rule_id in selected:
        cls = RULE_CLASSES[rule_id]
        instance = cls()
        if isinstance(instance, Rule):
            file_rules.append(instance)
        else:
            program_rules.append(instance)
    return file_rules, program_rules


def _collect_files(paths: Iterable[str | Path]) -> tuple[list[Path], list[Path]]:
    """Split the given paths into Python sources and JSON artifacts.

    A file named twice (``DIR`` and ``DIR/x.py``) is kept once, in
    first-seen order and under the first spelling that reached it.
    """
    python_files: list[Path] = []
    json_files: list[Path] = []
    seen: set[Path] = set()

    def add(files: list[Path], path: Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            files.append(path)

    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise CheckError(f"no such path: {path}")
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" not in candidate.parts:
                    add(python_files, candidate)
            continue
        if path.suffix == ".py":
            add(python_files, path)
        elif path.suffix == ".json":
            add(json_files, path)
        else:
            raise CheckError(
                f"cannot check {path}: expected a directory, .py or .json file"
            )
    return python_files, json_files


def _run_rules(
    contexts: Iterable[FileContext],
    file_rules: Sequence[Rule],
    program_rules: Sequence[ProgramRule],
) -> list[Finding]:
    """File rules, then the program rules.

    The one analysis core behind :func:`check_sources` and
    :func:`check_paths`; returns the findings unsorted. Each file's
    tree is summarized for the program graph as soon as its rules have
    run, so a streamed ``contexts`` never holds a whole tree's syntax
    trees alive at once (the garbage collector would walk them all).
    """
    findings: list[Finding] = []
    summaries: list[ModuleSummary] = []
    paths: list[str] = []
    for ctx in contexts:
        for rule in file_rules:
            if rule.applies_to(ctx):
                findings.extend(rule.run(ctx))
        if program_rules:
            summaries.append(extract_summary(ctx.tree, ctx.source))
            paths.append(ctx.display_path)
    if summaries:
        graph = ProgramGraph.build(summaries, paths)
        for program_rule in program_rules:
            findings.extend(program_rule.run_program(graph))
    return findings


def check_sources(
    files: Mapping[str, str],
    rules: Sequence[str] | None = None,
) -> list[Finding]:
    """Run the selected rules over an in-memory multi-file tree.

    ``files`` maps display paths to sources; the paths participate in
    rule scoping (``core/x.py`` is simulation-core code, ``serve/app.
    py`` is serving code) and in the module naming of the program
    graph, which makes this the natural entry point for whole-program
    fixture tests. A source that does not parse raises
    :class:`CheckError`.
    """
    file_rules, program_rules = _select_rules(rules)
    contexts: list[FileContext] = []
    for filename, source in files.items():
        try:
            ctx = FileContext(Path(filename), source, display_path=filename)
        except SyntaxError as exc:
            raise CheckError(f"{filename}: syntax error: {exc}") from exc
        contexts.append(ctx)
    findings = _run_rules(contexts, file_rules, program_rules)
    return sorted(findings, key=Finding.sort_key)


def check_source(
    source: str,
    filename: str = "<string>",
    rules: Sequence[str] | None = None,
) -> list[Finding]:
    """Run the selected rules over one in-memory source snippet."""
    return check_sources({filename: source}, rules=rules)


def check_paths(
    paths: Sequence[str | Path],
    rules: Sequence[str] | None = None,
) -> list[Finding]:
    """Run the selected rules over files and directories.

    Directories are walked for ``*.py``; ``.json`` files are validated
    as run manifests, or as scenarios / fault plans when they carry
    the ``repro_scenario`` / ``repro_fault_plan`` marker (see
    :mod:`repro.checks.invariants`). Returns every finding, sorted by
    location. Raises :class:`CheckError` for missing or unreadable
    paths and unknown rules; a file that fails to parse becomes an
    ``RPR000`` finding and is left out of the analysis, so one syntax
    error cannot hide every other finding in the tree.
    """
    file_rules, program_rules = _select_rules(rules)
    python_files, json_files = _collect_files(paths)
    findings: list[Finding] = []

    def parsed() -> Iterator[FileContext]:
        for path in python_files:
            try:
                source = path.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise CheckError(f"cannot read {path}: {exc}") from exc
            try:
                ctx = FileContext(path, source, display_path=str(path))
            except SyntaxError as exc:
                error = f"line {exc.lineno or 0}: {exc.msg or 'syntax error'}"
                findings.append(parse_failure_finding(str(path), error))
                continue
            yield ctx

    findings.extend(_run_rules(parsed(), file_rules, program_rules))
    if json_files:
        from .invariants import check_json_file

        for path in json_files:
            findings.extend(check_json_file(path))
    return sorted(findings, key=Finding.sort_key)


# ----------------------------------------------------------------------
# Shared AST helpers used by several rule modules
# ----------------------------------------------------------------------

def value_name(node: ast.AST) -> str | None:
    """The identifier a value expression reads from, if any.

    ``latency_ns`` -> ``latency_ns``; ``self.window_ns`` ->
    ``window_ns``; ``entry["total_us"]`` -> ``total_us``. Used for
    suffix-based unit inference.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        index = node.slice
        if isinstance(index, ast.Constant) and isinstance(index.value, str):
            return index.value
    return None

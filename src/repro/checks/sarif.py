"""SARIF 2.1.0 serialization of ``repro check`` findings.

SARIF (Static Analysis Results Interchange Format) is the lingua
franca of code-scanning UIs: GitHub's security tab, VS Code's SARIF
viewer, and most CI annotators ingest it directly. Emitting it makes
the project-specific rules (RPR001–RPR012) first-class citizens next
to ruff and mypy in a PR review — inline annotations on the changed
lines, rule help text on hover — without any bespoke glue.

The mapping is deliberately small and schema-faithful:

- one ``run`` with one ``tool.driver`` (``repro-check``), its
  ``rules`` array carrying every rule that appears in the results
  (id, short description, full help text from the rule's hint);
- one ``result`` per finding with ``ruleId``, ``ruleIndex``, message
  and a single ``physicalLocation`` (URI + 1-based region);
- a stable ``partialFingerprints`` entry per result so code-scanning
  tracks a finding across pushes even as line numbers shift.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .engine import PSEUDO_RULES, RULE_CLASSES, Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-check"
INFORMATION_URI = "https://github.com/mess-benchmark/repro"


def fingerprint(finding: Finding) -> str:
    """Location-stable identity of a finding (path, rule, message).

    Line and column are deliberately excluded: unrelated edits above a
    finding must not change its identity, or every code-scanning alert
    would churn on each push.
    """
    return f"{finding.path}::{finding.rule_id}::{finding.message}"


def _rule_metadata(rule_id: str) -> tuple[str, str]:
    """(title, hint) for any rule id, including pseudo-rules."""
    if rule_id in PSEUDO_RULES:
        return PSEUDO_RULES[rule_id]
    cls = RULE_CLASSES.get(rule_id)
    if cls is None:
        return (rule_id, "")
    return (cls.title, cls.hint)


def to_sarif(findings: Sequence[Finding]) -> dict[str, Any]:
    """The SARIF 2.1.0 log object for a list of findings."""
    rule_ids = sorted({finding.rule_id for finding in findings})
    rule_index = {rule_id: index for index, rule_id in enumerate(rule_ids)}
    rules: list[dict[str, Any]] = []
    for rule_id in rule_ids:
        title, hint = _rule_metadata(rule_id)
        descriptor: dict[str, Any] = {
            "id": rule_id,
            "shortDescription": {"text": title or rule_id},
        }
        if hint:
            descriptor["fullDescription"] = {"text": hint}
            descriptor["help"] = {"text": hint}
        rules.append(descriptor)

    results: list[dict[str, Any]] = []
    for finding in findings:
        message = finding.message
        if finding.hint:
            message = f"{message}\nhint: {finding.hint}"
        results.append(
            {
                "ruleId": finding.rule_id,
                "ruleIndex": rule_index[finding.rule_id],
                "level": "error",
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path.replace("\\", "/"),
                            },
                            "region": {
                                "startLine": max(1, finding.line),
                                "startColumn": max(1, finding.col),
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "reproCheck/v1": fingerprint(finding),
                },
            }
        )

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": INFORMATION_URI,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(findings: Sequence[Finding]) -> str:
    """The SARIF log as pretty-printed JSON text."""
    return json.dumps(to_sarif(findings), indent=2, sort_keys=True) + "\n"

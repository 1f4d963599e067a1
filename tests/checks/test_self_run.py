"""The merged tree must be clean under its own static-analysis pass."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.checks import check_paths

PACKAGE_DIR = Path(repro.__file__).parent


def test_package_is_clean_under_all_rules():
    findings = check_paths([PACKAGE_DIR])
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_every_rule_ran_over_a_nonempty_tree():
    # Guard against the self-run passing vacuously (wrong path, no files).
    sources = [
        p for p in PACKAGE_DIR.rglob("*.py") if "__pycache__" not in p.parts
    ]
    assert len(sources) > 50
    assert (PACKAGE_DIR / "experiments" / "fig2.py").exists()

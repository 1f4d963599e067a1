"""``check_paths`` over files on disk: parse failures, overlapping
paths, whole-program rules, and a fresh analysis on every run."""

from __future__ import annotations

from repro.checks import check_paths, rules_resilience

DIRTY = "x = latency_ns + cas_cycles\n"


def test_parse_failure_is_a_finding_not_an_abort(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    (tmp_path / "bad.py").write_text(DIRTY)
    findings = check_paths([tmp_path])
    assert [f.rule_id for f in findings] == ["RPR001", "RPR000"]
    rpr000 = findings[1]
    assert rpr000.line == 1
    assert "broken.py" in rpr000.path


def test_overlapping_paths_are_analysed_once(tmp_path):
    # A file reached twice (through its directory and by name) is one
    # file: one finding, under the spelling that reached it first.
    core = tmp_path / "core"
    core.mkdir()
    (core / "bad.py").write_text("import random\n" + DIRTY)
    again = tmp_path / "core" / ".." / "core" / "bad.py"
    findings = check_paths([tmp_path, again, core])
    assert [(f.rule_id, f.path) for f in findings] == [
        ("RPR010", str(core / "bad.py")),
        ("RPR001", str(core / "bad.py")),
    ]
    assert check_paths([again, tmp_path])[0].path == str(again)


def test_program_rules_taint_across_files(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "specs.py").write_text(
        "from repro.helpers import stamp\n"
        "def digest(x):\n"
        "    return stamp(x)\n"
    )
    (pkg / "helpers.py").write_text(
        "import time\n"
        "def stamp(x):\n"
        "    return time.time()\n"
    )
    (finding,) = check_paths([pkg])
    assert finding.rule_id == "RPR010"
    assert finding.path.endswith("helpers.py")


def test_rule_edit_shows_on_the_next_run(tmp_path, monkeypatch):
    # Nothing is cached between runs, so a changed rule predicate must
    # change the findings over an unchanged tree.
    (tmp_path / "a.py").write_text("try:\n    run()\nexcept Exception:\n    pass\n")
    first = check_paths([tmp_path], rules=["RPR007"])
    assert [f.rule_id for f in first] == ["RPR007"]
    monkeypatch.setattr(rules_resilience, "_acts_on_failure", lambda body: True)
    assert check_paths([tmp_path], rules=["RPR007"]) == []

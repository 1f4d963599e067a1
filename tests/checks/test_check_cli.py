"""CLI integration for ``repro check`` (and the missing-path contract
shared with ``telemetry summarize``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_check_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("total_ns = a_ns + b_ns\n")
    assert main(["check", str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_check_violation_exits_one_with_location(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text("x = latency_ns + cas_cycles\n")
    assert main(["check", str(target)]) == 1
    out = capsys.readouterr().out
    assert f"{target}:1:" in out
    assert "RPR001" in out
    assert "hint:" in out


def test_check_json_format(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text("x = latency_ns + cas_cycles\n")
    assert main(["check", "--format", "json", str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "RPR001"
    assert payload[0]["line"] == 1


def test_check_rule_selection(tmp_path, capsys):
    target = tmp_path / "core" / "bad.py"
    target.parent.mkdir()
    target.write_text("import random\nx = a_ns + b_cycles\n")
    assert main(["check", "--rules", "RPR010", str(target)]) == 1
    out = capsys.readouterr().out
    assert "RPR010" in out and "RPR001" not in out


def test_check_missing_path_is_one_line_error(capsys):
    # Satellite contract: usage errors exit 2 (findings exit 1),
    # one-line error, no traceback.
    assert main(["check", "/no/such/path"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_check_unknown_rule_is_one_line_error(capsys):
    # RPR002 was folded into RPR010; its id is unknown, not an alias.
    for rule_id in ("RPR999", "RPR002"):
        assert main(["check", "--rules", rule_id, "src"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPR001", "RPR003", "RPR005", "RPR010"):
        assert rule_id in out
    # RPR002 was folded into RPR010; RPR004 went when ``@register``
    # became the one check of a registration
    assert "RPR002" not in out and "RPR004" not in out


def test_check_validates_manifest_json(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"experiments": [{"status": "nope"}]}))
    assert main(["check", str(bad)]) == 1
    assert "RPR103" in capsys.readouterr().out


def test_telemetry_summarize_missing_path_is_one_line_error(capsys):
    assert main(["telemetry", "summarize", "/no/such/file"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_telemetry_summarize_binary_file_is_one_line_error(tmp_path, capsys):
    blob = tmp_path / "trace.bin"
    blob.write_bytes(b"\xff\xfe\x00\x01")
    assert main(["telemetry", "summarize", str(blob)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_check_rejects_unknown_file_kind(tmp_path, capsys):
    target = tmp_path / "notes.txt"
    target.write_text("hello")
    assert main(["check", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_default_target_is_the_package(fmt, capsys):
    # No paths: checks the installed package, which must be clean.
    assert main(["check", "--format", fmt]) == 0

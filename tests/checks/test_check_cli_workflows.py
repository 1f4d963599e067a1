"""``repro check --format sarif`` end to end through the CLI."""

from __future__ import annotations

import json

from repro.cli import main

DIRTY = "x = latency_ns + cas_cycles\n"
CLEAN = "total_ns = a_ns + b_ns\n"


def check(*argv):
    return main(["check", *argv])


class TestSarifOutput:
    def test_sarif_format_emits_a_2_1_0_log(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(DIRTY)
        assert check("--format", "sarif", str(target)) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "RPR001"
        uri = result["locations"][0]["physicalLocation"]["artifactLocation"][
            "uri"
        ]
        assert uri.endswith("bad.py")

    def test_clean_tree_sarif_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert check("--format", "sarif", str(tmp_path)) == 0
        assert json.loads(capsys.readouterr().out)["runs"][0]["results"] == []

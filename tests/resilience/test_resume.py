"""Tests for checkpoint-resume: the manifest as the checkpoint."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.runner import RunManifest, resume_run
from repro.runner.manifest import ExperimentRecord
from tests.resilience.test_chaos import tiny_mess_scenario


def ok_record(experiment_id: str, digest: str = "ca7712ed") -> ExperimentRecord:
    return ExperimentRecord(
        experiment_id=experiment_id,
        status="ok",
        rows=3,
        result_digest=digest,
    )


def failed_record(
    experiment_id: str, kind: str = "crash", **extra
) -> ExperimentRecord:
    return ExperimentRecord(
        experiment_id=experiment_id,
        status="error",
        error="boom",
        failure_kind=kind,
        **extra,
    )


class TestManifestAggregates:
    def test_pending_selects_non_terminal_records(self):
        manifest = RunManifest(
            records=[ok_record("fig2"), failed_record("fig17", "timeout")]
        )
        assert [r.experiment_id for r in manifest.pending()] == ["fig17"]

    def test_failure_summary_counts_by_kind(self):
        manifest = RunManifest(
            records=[
                ok_record("fig2"),
                failed_record("fig17", "timeout"),
                failed_record("fig3", "crash"),
                failed_record("fig4", "crash"),
            ]
        )
        assert manifest.failure_summary() == {"crash": 2, "timeout": 1}

    def test_legacy_record_without_kind_is_unclassified(self):
        record = failed_record("fig2")
        record.failure_kind = None
        manifest = RunManifest(records=[record])
        assert manifest.failure_summary() == {"unclassified": 1}

    def test_summary_line_reports_failure_classes_and_degraded(self):
        record = ok_record("fig2")
        record.degraded = True
        manifest = RunManifest(
            records=[record, failed_record("fig17", "timeout")]
        )
        line = manifest.summary()
        assert "degraded=1" in line
        assert "FAILED=1 (timeout=1)" in line


class TestResume:
    def test_nothing_pending_carries_records_over(self, tmp_path):
        path = tmp_path / "done.json"
        RunManifest(records=[ok_record("fig2"), ok_record("fig17")]).write(path)
        outcome = resume_run(path, use_cache=False)
        assert outcome.manifest.resumed_from == str(path)
        assert [r.experiment_id for r in outcome.manifest.records] == [
            "fig2",
            "fig17",
        ]
        assert not outcome.results  # nothing was re-executed

    def test_reruns_only_failed_records_preserving_order(self, tmp_path):
        path = tmp_path / "partial.json"
        RunManifest(
            records=[failed_record("fig2"), ok_record("fig17", digest="cee9cee9")]
        ).write(path)
        outcome = resume_run(path, jobs=1, use_cache=False)
        assert outcome.manifest.ok
        assert outcome.manifest.resumed_from == str(path)
        by_id = {r.experiment_id: r for r in outcome.manifest.records}
        # The failure was re-executed; the success was carried verbatim.
        assert by_id["fig2"].status == "ok"
        assert by_id["fig2"].result_digest not in (None, "ca7712ed")
        assert by_id["fig17"].result_digest == "cee9cee9"
        assert [r.experiment_id for r in outcome.manifest.records] == [
            "fig2",
            "fig17",
        ]
        assert sorted(outcome.results) == ["fig2"]

    def test_resume_reuses_recorded_options(self, tmp_path):
        path = tmp_path / "options.json"
        RunManifest(
            records=[
                failed_record("fig2", options={"bogus-option": 1}),
            ]
        ).write(path)
        # Recorded options flow back through validation on resume.
        with pytest.raises(ConfigurationError):
            resume_run(path, use_cache=False)

    def test_scenario_resume_requires_recorded_spec(self, tmp_path):
        path = tmp_path / "scenario.json"
        RunManifest(records=[failed_record("scenario:lost")]).write(path)
        with pytest.raises(ConfigurationError, match="scenario"):
            resume_run(path, use_cache=False)

    def test_scenario_resume_reruns_from_recorded_spec(self, tmp_path):
        scenario = tiny_mess_scenario("resumable")
        path = tmp_path / "scenario.json"
        RunManifest(
            records=[
                failed_record(
                    "scenario:resumable", scenario_spec=scenario.to_spec()
                )
            ]
        ).write(path)
        outcome = resume_run(path, jobs=1, use_cache=False)
        assert outcome.manifest.ok
        assert outcome.manifest.records[0].experiment_id == "scenario:resumable"

    def test_resume_is_idempotent_through_the_checkpoint(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        RunManifest(
            records=[failed_record("fig2"), ok_record("fig17", digest="cee9cee9")]
        ).write(path)
        first = resume_run(path, jobs=1, use_cache=False)
        assert first.manifest.ok
        first.manifest.write(path)
        second = resume_run(path, use_cache=False)
        assert not second.results
        assert [r.result_digest for r in second.manifest.records] == [
            r.result_digest for r in first.manifest.records
        ]

"""Tests for the decorator registry, option validation and result JSON."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    SPECS,
    ExperimentResult,
    experiment_ids,
    get_spec,
    register,
    run_experiment,
    validate_options,
)


class TestRegistration:
    def test_every_spec_has_metadata(self):
        for spec in SPECS.values():
            assert spec.title, spec.experiment_id
            assert spec.cost in ("cheap", "moderate", "expensive")
            assert spec.func.experiment_id == spec.experiment_id

    def test_paper_order_preserved(self):
        ids = experiment_ids()
        assert ids[:3] == ["table1", "fig2", "fig3"]
        assert ids[-3:] == ["wsweep", "thrash", "policydelta"]
        assert ids[-6:-3] == ["openpiton", "optane", "ablation"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(ConfigurationError):

            @register("fig2", title="impostor")
            def run(scale: float = 1.0):  # pragma: no cover
                raise AssertionError("never runs")

        # the original registration is untouched
        assert SPECS["fig2"].title.startswith("Skylake")

    def test_new_registration_and_cleanup(self):
        @register("zz-test", title="synthetic", tags=("test",), cost="cheap")
        def run(scale: float = 1.0, *, knob: int = 3) -> ExperimentResult:
            result = ExperimentResult("zz-test", "synthetic", columns=["knob"])
            result.add(knob=knob)
            return result

        try:
            assert experiment_ids()[-1] == "zz-test"  # after paper order
            assert SPECS["zz-test"].params == {"knob": 3}
            result = run_experiment("zz-test", knob=7)
            assert result.rows == [{"knob": 7}]
        finally:
            del SPECS["zz-test"]

    def test_invalid_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            register("zz-bad-cost", cost="free")

    def test_get_spec_unknown(self):
        with pytest.raises(ConfigurationError):
            get_spec("fig99")


class TestOptionValidation:
    def test_declared_options_introspected(self):
        assert SPECS["fig3"].params == {"platforms": None}
        assert SPECS["fig10"].params == {"memories": None}
        assert SPECS["fig2"].params == {}

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            run_experiment("fig2", bogus=1)

    def test_validate_options_helper(self):
        validate_options("fig3", {"platforms": "skylake"})
        with pytest.raises(ConfigurationError):
            validate_options("fig3", {"platform": "skylake"})  # typo

    def test_fig3_platform_filter(self):
        result = run_experiment("fig3", platforms="skylake,graviton")
        platforms = {row["platform"] for row in result.rows}
        assert len(platforms) == 2
        assert any("Skylake" in p for p in platforms)

    def test_fig3_unknown_platform(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig3", platforms="not-a-platform")

    def test_scale_is_keyword_only(self):
        with pytest.raises(TypeError):
            run_experiment("fig2", 2.0)  # noqa: B026 - the point of the test


# exact output of format_table(), trailing pad spaces included
GOLDEN_TABLE = (
    "== xdemo: serialization demo ==\n"
    "kind   value  ok \n"
    "-----  -----  ---\n"
    "small  1.25   yes\n"
    "large  12345  no \n"
    "empty  -      -  \n"
    "note: with a note attached"
)


def golden_result() -> ExperimentResult:
    result = ExperimentResult(
        "xdemo", "serialization demo", columns=["kind", "value", "ok"]
    )
    result.add(kind="small", value=1.25, ok="yes")
    result.add(kind="large", value=12345.0, ok="no")
    result.add(kind="empty", value=None, ok=None)
    result.note("with a note attached")
    return result


class TestResultSerialization:
    def test_format_table_golden(self):
        assert golden_result().format_table() == GOLDEN_TABLE

    def test_round_trip_preserves_table(self):
        original = golden_result()
        clone = ExperimentResult.from_dict(original.to_dict())
        assert clone.format_table() == GOLDEN_TABLE
        assert clone.to_dict() == original.to_dict()
        assert clone.digest() == original.digest()

    def test_round_trip_through_json_string(self):
        import json

        original = golden_result()
        clone = ExperimentResult.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert clone.format_table() == GOLDEN_TABLE

    def test_digest_tracks_content(self):
        a = golden_result()
        b = golden_result()
        assert a.digest() == b.digest()
        b.add(kind="extra", value=1.0, ok="yes")
        assert a.digest() != b.digest()

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ConfigurationError):
            ExperimentResult.from_dict({"title": "missing id"})
        with pytest.raises(ConfigurationError):
            ExperimentResult.from_dict(
                {
                    "experiment_id": "x",
                    "title": "t",
                    "columns": ["a"],
                    "rows": [{"not_a_column": 1}],
                }
            )

    def test_real_experiment_round_trips(self):
        original = run_experiment("fig2")
        clone = ExperimentResult.from_dict(original.to_dict())
        assert clone.format_table() == original.format_table()
        assert clone.digest() == original.digest()


class TestSpecImmutability:
    def test_params_view_is_read_only(self):
        spec = get_spec("fig3")
        with pytest.raises(TypeError):
            spec.params["platforms"] = "tampered"

    def test_params_still_iterable_and_testable(self):
        spec = get_spec("fig3")
        assert "platforms" in spec.params
        assert sorted(spec.params)

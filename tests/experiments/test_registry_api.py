"""Tests for the decorator registry, option validation and result JSON."""

from __future__ import annotations

import pytest

from repro.core.curve import BandwidthLatencyCurve
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
from repro.experiments import registry
from repro.experiments.registry import new_result


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

    def test_duplicate_id_names_the_module_that_registered_it(self):
        # an id claimed by another module is reported against its owner
        with pytest.raises(ConfigurationError, match="already registered by fig2"):

            @register("fig2", cost="cheap")
            def run(scale: float = 1.0):  # pragma: no cover
                raise AssertionError("never runs")

    def test_second_registration_in_one_module_rejected(self):
        @register("zz-twice", cost="cheap")
        def run(scale: float = 1.0):  # pragma: no cover
            raise AssertionError("never runs")

        try:
            with pytest.raises(
                ConfigurationError, match="duplicate experiment id 'zz-twice'"
            ):

                @register("zz-twice", cost="cheap")
                def run2(scale: float = 1.0):  # pragma: no cover
                    raise AssertionError("never runs")

            assert SPECS["zz-twice"].func is run
        finally:
            del SPECS["zz-twice"]

    def test_conforming_registration_keeps_its_metadata(self):
        @register("zz-conforming", title="t", tags=("x",), cost="cheap")
        def run(scale: float = 1.0, *, platforms=None):  # pragma: no cover
            raise AssertionError("never runs")

        try:
            spec = SPECS["zz-conforming"]
            assert (spec.title, spec.tags, spec.cost) == ("t", ("x",), "cheap")
            assert spec.params == {"platforms": None}
            assert run.experiment_id == "zz-conforming"
        finally:
            del SPECS["zz-conforming"]

    def test_invalid_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            register("zz-bad-cost", cost="free")

    def test_bad_cost_rejected_before_the_function_is_registered(self):
        with pytest.raises(
            ConfigurationError, match=r"zz-bad-cost: cost must be one of .*'free'"
        ):

            @register("zz-bad-cost", cost="free")
            def run(scale: float = 1.0):  # pragma: no cover
                raise AssertionError("never runs")

        assert "zz-bad-cost" not in SPECS

    def test_run_function_without_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="does not accept 'scale'"):

            @register("zz-no-scale", cost="cheap")
            def run(platforms: str | None = None):  # pragma: no cover
                raise AssertionError("never runs")

        assert "zz-no-scale" not in SPECS

    def test_option_without_default_rejected(self):
        # the --opt schema is read from the defaults; a missing one used
        # to be declared as None
        with pytest.raises(ConfigurationError, match="'knob' .* no default"):

            @register("zz-no-default", cost="cheap")
            def run(scale: float = 1.0, *, knob: int):  # pragma: no cover
                raise AssertionError("never runs")

        assert "zz-no-default" not in SPECS

    def test_paper_module_must_register_its_own_id(self, monkeypatch):
        registry._load_experiment_modules()  # every shipped module does
        # ``base`` is an experiment-package module that registers nothing
        monkeypatch.setattr(registry, "_PAPER_ORDER", ("base",))
        with pytest.raises(ConfigurationError, match="base registers no"):
            registry._load_experiment_modules()

    def test_get_spec_unknown(self):
        with pytest.raises(ConfigurationError):
            get_spec("fig99")

    def test_new_result_takes_the_registered_title(self):
        result = new_result("fig2", ["series", "read_ratio"])
        assert result.experiment_id == "fig2"
        assert result.title == get_spec("fig2").title
        assert result.columns == ["series", "read_ratio"]
        assert result.rows == [] and result.notes == []

    def test_new_result_unknown_id(self):
        with pytest.raises(ConfigurationError, match="fig99"):
            new_result("fig99", ["a"])


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


def demo_curves() -> list[BandwidthLatencyCurve]:
    return [
        BandwidthLatencyCurve(1.0, [1.0, 2.5], [90.0, 95.5]),
        BandwidthLatencyCurve(0.5, [3.0], [120.0]),
    ]


class TestAddCurves:
    COLUMNS = ["system", "read_ratio", "bandwidth_gbps", "latency_ns"]

    def test_rows_curve_by_curve_then_point_by_point(self):
        result = ExperimentResult("x", "demo", columns=self.COLUMNS)
        result.add_curves(demo_curves(), system="actual")
        assert result.rows == [
            {"system": "actual", "read_ratio": 1.0,
             "bandwidth_gbps": 1.0, "latency_ns": 90.0},
            {"system": "actual", "read_ratio": 1.0,
             "bandwidth_gbps": 2.5, "latency_ns": 95.5},
            {"system": "actual", "read_ratio": 0.5,
             "bandwidth_gbps": 3.0, "latency_ns": 120.0},
        ]

    def test_values_are_python_floats_equal_to_the_arrays(self):
        result = ExperimentResult("x", "demo", columns=self.COLUMNS)
        curves = demo_curves()
        result.add_curves(curves, system="actual")
        for column, arrays in (
            ("bandwidth_gbps", [c.bandwidth_gbps for c in curves]),
            ("latency_ns", [c.latency_ns for c in curves]),
        ):
            values = result.column(column)
            assert all(type(value) is float for value in values)
            assert values == [float(v) for array in arrays for v in array]

    def test_labels_land_in_their_columns(self):
        result = ExperimentResult(
            "x", "demo", columns=["memory", "system", *self.COLUMNS[1:]]
        )
        result.add_curves(demo_curves(), memory="ddr4", system="zsim+mess")
        assert set(result.column("memory")) == {"ddr4"}
        assert set(result.column("system")) == {"zsim+mess"}

    def test_undeclared_label_rejected(self):
        result = ExperimentResult("x", "demo", columns=self.COLUMNS)
        with pytest.raises(ConfigurationError, match="bogus"):
            result.add_curves(demo_curves(), system="actual", bogus=1)

    def test_generator_of_curves_accepted(self):
        result = ExperimentResult("x", "demo", columns=self.COLUMNS)
        result.add_curves(
            (c for c in demo_curves() if c.read_ratio >= 0.75), system="actual"
        )
        assert result.column("read_ratio") == [1.0, 1.0]


class TestSpecImmutability:
    def test_params_view_is_read_only(self):
        spec = get_spec("fig3")
        with pytest.raises(TypeError):
            spec.params["platforms"] = "tampered"

    def test_params_still_iterable_and_testable(self):
        spec = get_spec("fig3")
        assert "platforms" in spec.params
        assert sorted(spec.params)

"""Tests for the seeded fault plan: matching, injection sites, format."""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import pytest

from repro.errors import CacheError, ResilienceError, SimulationError
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    WorkerCrashError,
    load_fault_plan,
)
from repro.resilience import faults as faults_mod
from repro.runner import ResultCache
from repro.specs import spec_digest


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ResilienceError, match="unknown fault kind"):
            FaultSpec(kind="meteor")

    def test_empty_target_rejected(self):
        with pytest.raises(ResilienceError, match="target"):
            FaultSpec(kind="crash", target="")

    def test_non_positive_attempts_rejected(self):
        with pytest.raises(ResilienceError, match="attempts"):
            FaultSpec(kind="crash", attempts=(0,))
        with pytest.raises(ResilienceError, match="attempts"):
            FaultSpec(kind="crash", attempts=())

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ResilienceError, match="probability"):
            FaultSpec(kind="crash", probability=1.5)

    def test_negative_window_and_seconds_rejected(self):
        with pytest.raises(ResilienceError, match="window"):
            FaultSpec(kind="controller-nan", window=-1)
        with pytest.raises(ResilienceError, match="seconds"):
            FaultSpec(kind="hang", seconds=-1.0)

    def test_error_fault_requires_known_failure_kind(self):
        with pytest.raises(ResilienceError, match="failure_kind|raise one of"):
            FaultSpec(kind="error", failure_kind="timeout")

    def test_unknown_payload_key_rejected(self):
        with pytest.raises(ResilienceError, match="bogus"):
            FaultSpec.from_dict({"kind": "crash", "bogus": 1})


class TestSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(kind="crash", target="fig2"),
            FaultSpec(kind="hang", target="fig*", seconds=2.5, attempts=(1, 2)),
            FaultSpec(kind="error", target="ablation", failure_kind="cache-error"),
            FaultSpec(kind="cache-corrupt", target="*", probability=0.25),
            FaultSpec(kind="controller-nan", target="scenario:*", window=3),
            FaultSpec(
                kind="controller-nan", target="scenario:*", window=1, value=-5.0
            ),
        ],
    )
    def test_spec_round_trip(self, spec):
        rebuilt = FaultSpec.from_dict(spec.to_dict())
        # NaN defaults compare unequal; compare the serialized forms.
        assert rebuilt.to_dict() == spec.to_dict()

    def test_plan_round_trip_through_json(self):
        plan = FaultPlan(
            seed=1234,
            faults=(
                FaultSpec(kind="crash", target="fig2"),
                FaultSpec(kind="hang", target="fig17", seconds=30.0),
            ),
        )
        payload = json.loads(json.dumps(plan.to_dict()))
        rebuilt = FaultPlan.from_dict(payload)
        assert rebuilt.to_dict() == plan.to_dict()

    def test_missing_marker_rejected(self):
        with pytest.raises(ResilienceError, match=faults_mod.FORMAT_KEY):
            FaultPlan.from_dict({"seed": 1, "faults": []})

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(ResilienceError, match="mystery"):
            FaultPlan.from_dict(
                {faults_mod.FORMAT_KEY: 1, "mystery": True, "faults": []}
            )

    def test_faults_must_be_a_list(self):
        with pytest.raises(ResilienceError, match="list"):
            FaultPlan.from_dict({faults_mod.FORMAT_KEY: 1, "faults": {}})


class TestScoping:
    def test_label_pattern_and_attempt_filtering(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="crash", target="fig*", attempts=(1,)),
                FaultSpec(kind="hang", target="scenario:*", attempts=(2,)),
            )
        )
        assert [s.kind for s in plan.scoped("fig2", 1).faults] == ["crash"]
        assert plan.scoped("fig2", 2).faults == ()
        assert [s.kind for s in plan.scoped("scenario:x", 2).faults] == ["hang"]
        assert plan.scoped("ablation", 1).faults == ()

    def test_zero_probability_never_fires(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash", target="*", probability=0.0),)
        )
        assert all(
            plan.scoped(f"fig{n}", 1).faults == () for n in range(20)
        )

    def test_probability_draw_is_deterministic(self):
        plan = FaultPlan(
            seed=1234,
            faults=(FaultSpec(kind="crash", target="*", probability=0.5),),
        )
        first = [bool(plan.scoped(f"fig{n}", 1).faults) for n in range(40)]
        second = [bool(plan.scoped(f"fig{n}", 1).faults) for n in range(40)]
        assert first == second
        # A half-probability fault should fire for some labels, not all.
        assert any(first) and not all(first)

    def test_seed_changes_which_labels_fire(self):
        spec = FaultSpec(kind="crash", target="*", probability=0.5)
        a = FaultPlan(seed=1, faults=(spec,))
        b = FaultPlan(seed=2, faults=(spec,))
        fired_a = [bool(a.scoped(f"fig{n}", 1).faults) for n in range(40)]
        fired_b = [bool(b.scoped(f"fig{n}", 1).faults) for n in range(40)]
        assert fired_a != fired_b

    def test_matching_filters_by_kind(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="crash"),
                FaultSpec(kind="hang", seconds=0.0),
            )
        )
        assert [s.kind for s in plan.matching("hang")] == ["hang"]


class TestInjectionSites:
    def test_crash_is_survivable_inline(self):
        # In the main (parentless) process the crash degrades to a
        # classifiable exception instead of os._exit.
        plan = FaultPlan(faults=(FaultSpec(kind="crash", target="fig2"),))
        with pytest.raises(WorkerCrashError):
            plan.fire_entry_faults("fig2")

    def test_error_fault_raises_typed_exception(self):
        cache_fault = FaultPlan(
            faults=(FaultSpec(kind="error", failure_kind="cache-error"),)
        )
        with pytest.raises(CacheError):
            cache_fault.fire_entry_faults("fig2")
        model_fault = FaultPlan(
            faults=(FaultSpec(kind="error", failure_kind="model-error"),)
        )
        with pytest.raises(SimulationError):
            model_fault.fire_entry_faults("fig2")

    def test_hang_sleeps_for_requested_duration(self):
        plan = FaultPlan(faults=(FaultSpec(kind="hang", seconds=0.05),))
        start = time.monotonic()
        plan.fire_entry_faults("fig2")
        assert time.monotonic() - start >= 0.05

    def test_empty_plan_entry_is_noop(self):
        FaultPlan().fire_entry_faults("fig2")

    def test_feedback_override_matches_window(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="controller-nan", window=2, value=-1.0),
            )
        )
        assert plan.feedback_override(2) == -1.0
        assert plan.feedback_override(1) is None

    def test_feedback_override_defaults_to_nan(self):
        plan = FaultPlan(faults=(FaultSpec(kind="controller-nan", window=0),))
        assert math.isnan(plan.feedback_override(0))

    def test_corrupt_cache_entry_trashes_existing_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = spec_digest({"x": 1})
        cache.put(key, {"rows": [1, 2, 3]})
        plan = FaultPlan(faults=(FaultSpec(kind="cache-corrupt"),))
        assert plan.corrupt_cache_entry(cache, key)
        # The corrupted entry quarantines on the next read.
        assert cache.get(key) is None
        assert list(cache.corrupt_entries())

    def test_corrupt_cache_entry_is_noop_on_cold_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        plan = FaultPlan(faults=(FaultSpec(kind="cache-corrupt"),))
        assert not plan.corrupt_cache_entry(cache, spec_digest({}))


class TestActivation:
    def test_activation_context_restores_previous(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        assert faults_mod.active() is None
        with faults_mod.activation(outer):
            assert faults_mod.active() is outer
            with faults_mod.activation(inner):
                assert faults_mod.active() is inner
            assert faults_mod.active() is outer
        assert faults_mod.active() is None

    def test_activation_with_none_deactivates(self):
        plan = FaultPlan(seed=3)
        with faults_mod.activation(plan):
            with faults_mod.activation(None):
                assert faults_mod.active() is None
            assert faults_mod.active() is plan
        assert faults_mod.active() is None


class TestLoadFaultPlan:
    def test_loads_valid_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    faults_mod.FORMAT_KEY: 1,
                    "seed": 7,
                    "faults": [{"kind": "crash", "target": "fig2"}],
                }
            )
        )
        plan = load_fault_plan(path)
        assert plan.seed == 7
        assert plan.faults[0].kind == "crash"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ResilienceError, match="cannot read"):
            load_fault_plan(tmp_path / "absent.json")

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ResilienceError, match="invalid JSON"):
            load_fault_plan(path)

    def test_example_plan_in_repo_loads(self):
        repo_root = Path(__file__).resolve().parents[2]
        plan = load_fault_plan(repo_root / "examples" / "chaos-plan.json")
        assert plan.seed == 1234
        assert {s.kind for s in plan.faults} >= {"crash", "hang"}

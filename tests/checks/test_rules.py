"""Each lint rule must fire on a violating fixture and stay silent on a
conforming one. Fixtures are in-memory snippets; the filename passed to
``check_source`` drives path-based rule scoping."""

from __future__ import annotations

import pytest

from repro.checks import check_source
from repro.errors import CheckError


def rule_ids(source: str, filename: str = "mod.py", rules=None) -> list[str]:
    return [f.rule_id for f in check_source(source, filename=filename, rules=rules)]


class TestUnitSafetyRPR001:
    def test_fires_on_mixed_addition(self):
        assert rule_ids("total = latency_ns + cas_cycles\n") == ["RPR001"]

    def test_fires_on_mixed_subtraction_of_attributes(self):
        src = "delta = self.window_ns - request.size_bytes\n"
        assert rule_ids(src) == ["RPR001"]

    def test_fires_on_mixed_comparison(self):
        assert rule_ids("if peak_gbps > limit_bytes:\n    pass\n") == ["RPR001"]

    def test_fires_on_augmented_assignment(self):
        assert rule_ids("elapsed_ns += duration_us\n") == ["RPR001"]

    def test_fires_on_string_subscript_units(self):
        src = "entry['total_us'] += span_ns\n"
        assert rule_ids(src) == ["RPR001"]

    def test_silent_on_same_unit(self):
        assert rule_ids("total_ns = start_ns + extra_ns\n") == []

    def test_silent_on_conversion_by_division(self):
        # Division/multiplication are how conversions are written.
        assert rule_ids("bw = window_bytes / elapsed_ns\n") == []
        assert rule_ids("ts_us = now_ns / 1e3\n") == []

    def test_silent_when_one_side_has_no_unit(self):
        assert rule_ids("latency = base_ns + overhead\n") == []

    def test_suppression_comment(self):
        src = "x = a_ns + b_cycles  # repro: ignore[RPR001]\n"
        assert rule_ids(src) == []
        src = "x = a_ns + b_cycles  # repro: ignore\n"
        assert rule_ids(src) == []
        # suppressing a different rule does not silence this one
        src = "x = a_ns + b_cycles  # repro: ignore[RPR005]\n"
        assert rule_ids(src) == ["RPR001"]


class TestDeterminismRPR002:
    def test_fires_on_random_import_in_core(self):
        assert rule_ids("import random\n", "core/sim.py") == ["RPR002"]

    def test_fires_on_wall_clock_in_dram(self):
        src = "import time\nnow = time.time()\n"
        assert rule_ids(src, "dram/ctl.py") == ["RPR002"]

    def test_fires_on_unseeded_rng_in_memmodels(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rule_ids(src, "memmodels/model.py") == ["RPR002"]

    def test_fires_on_set_iteration_in_cpu(self):
        src = "for bank in {1, 2, 3}:\n    pass\n"
        assert rule_ids(src, "cpu/core.py") == ["RPR002"]
        src = "order = [b for b in set(banks)]\n"
        assert rule_ids(src, "cpu/core.py") == ["RPR002"]

    def test_silent_on_seeded_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert rule_ids(src, "memmodels/model.py") == []

    def test_silent_on_sorted_set_iteration(self):
        src = "for bank in sorted(set(banks)):\n    pass\n"
        assert rule_ids(src, "cpu/core.py") == []

    def test_silent_outside_the_simulation_core(self):
        # Workloads seed their own RNGs; the rule does not police them.
        assert rule_ids("import random\n", "workloads/gups.py") == []


class TestTelemetryHotPathRPR003:
    def test_fires_on_lookup_in_loop(self):
        src = (
            "while running:\n"
            "    tel.counter('dram.reads').inc()\n"
        )
        assert rule_ids(src, "dram/ctl.py") == ["RPR003"]

    def test_fires_on_active_in_for_loop(self):
        src = (
            "for request in requests:\n"
            "    tel = telemetry.active()\n"
        )
        assert rule_ids(src, "core/sim.py") == ["RPR003"]

    def test_silent_on_constructor_binding(self):
        src = (
            "tel = telemetry.active()\n"
            "counter = tel.counter('dram.reads')\n"
            "for request in requests:\n"
            "    counter.inc()\n"
        )
        assert rule_ids(src, "dram/ctl.py") == []

    def test_silent_inside_telemetry_package(self):
        src = (
            "for name in names:\n"
            "    registry.counter(name)\n"
        )
        assert rule_ids(src, "telemetry/exporters.py") == []


class TestRegistryHygieneRPR004:
    def test_fires_on_unregistered_figure_module(self):
        src = "def run(scale=1.0):\n    return None\n"
        assert rule_ids(src, "experiments/fig99.py") == ["RPR004"]

    def test_fires_on_computed_id(self):
        src = (
            "@register('fig' + str(99))\n"
            "def run(scale=1.0):\n    return None\n"
        )
        assert "RPR004" in rule_ids(src, "experiments/fig99.py")

    def test_fires_on_missing_scale_and_defaults(self):
        src = (
            "@register('fig99')\n"
            "def run(platforms):\n    return None\n"
        )
        found = check_source(src, filename="experiments/fig99.py")
        messages = " ".join(f.message for f in found)
        assert "does not accept 'scale'" in messages
        assert "no default" in messages

    def test_fires_on_duplicate_ids_across_files(self):
        src_a = "@register('fig99')\ndef run(scale=1.0):\n    return None\n"
        # duplicate inside one run of the engine: same module twice
        src_b = src_a + "\n@register('fig99')\ndef run2(scale=1.0):\n    return None\n"
        found = check_source(src_b, filename="experiments/fig99.py")
        assert any("duplicate experiment id" in f.message for f in found)

    def test_fires_on_bad_cost(self):
        src = (
            "@register('fig99', cost='free')\n"
            "def run(scale=1.0):\n    return None\n"
        )
        assert "RPR004" in rule_ids(src, "experiments/fig99.py")

    def test_silent_on_conforming_module(self):
        src = (
            "@register('fig99', title='t', tags=('x',), cost='cheap')\n"
            "def run(scale=1.0, *, platforms=None):\n"
            "    return None\n"
        )
        assert rule_ids(src, "experiments/fig99.py") == []

    def test_silent_on_non_figure_helper_module(self):
        src = "def helper():\n    return 1\n"
        assert rule_ids(src, "experiments/common.py") == []

    def test_silent_outside_experiments(self):
        src = "def run(scale=1.0):\n    return None\n"
        assert rule_ids(src, "core/fig_like.py") == []


class TestFloatEqualityRPR005:
    def test_fires_on_measured_name_equality(self):
        assert rule_ids("ok = latency_ns == previous\n") == ["RPR005"]
        assert rule_ids("ok = peak_gbps != target\n") == ["RPR005"]

    def test_fires_on_float_literal_equality(self):
        assert rule_ids("ok = ratio == 2.5\n") == ["RPR005"]

    def test_silent_on_sentinel_comparison(self):
        # values assigned, then read back exactly
        assert rule_ids("ok = duration_s == 0\n") == []
        assert rule_ids("ok = wall_time_s == -1.0\n") == []

    def test_silent_on_ordering(self):
        assert rule_ids("ok = latency_ns >= previous_ns\n") == []

    def test_silent_on_unsuffixed_names(self):
        assert rule_ids("ok = l0 == l1\n") == []


class TestEngine:
    def test_unknown_rule_is_a_check_error(self):
        with pytest.raises(CheckError):
            check_source("x = 1\n", rules=["RPR999"])

    def test_rule_selection_limits_findings(self):
        src = "import random\nx = a_ns + b_cycles\n"
        assert rule_ids(src, "core/sim.py", rules=["RPR002"]) == ["RPR002"]

    def test_syntax_error_is_a_check_error(self):
        with pytest.raises(CheckError):
            check_source("def broken(:\n")

    def test_finding_format_carries_location_rule_and_hint(self):
        finding = check_source("x = a_ns + b_cycles\n", filename="core/x.py")[0]
        text = finding.format()
        assert text.startswith("core/x.py:1:")
        assert "RPR001" in text
        assert "hint:" in text
        payload = finding.to_dict()
        assert payload["rule"] == "RPR001"
        assert payload["line"] == 1


class TestScenarioBoundaryRPR006:
    def test_fires_on_direct_construction_in_experiments(self):
        src = "model = SystemConfig(cores=4)\n"
        assert rule_ids(src, "src/repro/experiments/fig9.py", rules=["RPR006"]) == ["RPR006"]

    def test_fires_on_attribute_chain_construction(self):
        src = "bench = harness.MessBenchmark(system_config=c)\n"
        assert rule_ids(src, "src/repro/experiments/figX.py", rules=["RPR006"]) == ["RPR006"]

    def test_silent_on_classmethod_spec_constructors(self):
        src = "sweep = MessBenchmarkConfig.from_spec({'warmup_ns': 1.0})\n"
        assert rule_ids(src, "src/repro/experiments/figX.py", rules=["RPR006"]) == []

    def test_silent_outside_experiments(self):
        src = "model = CycleAccurateModel(timing, channels=6)\n"
        assert rule_ids(src, "src/repro/scenario/memory.py", rules=["RPR006"]) == []

    def test_silent_in_experiment_tests(self):
        src = "config = SystemConfig(cores=4)\n"
        assert rule_ids(src, "tests/experiments/test_x.py", rules=["RPR006"]) == []

    def test_suppression_comment_works(self):
        src = "config = SystemConfig(cores=4)  # repro: ignore[RPR006]\n"
        assert rule_ids(src, "src/repro/experiments/figX.py", rules=["RPR006"]) == []


class TestExceptionSwallowRPR007:
    def test_fires_on_bare_except(self):
        src = "try:\n    run()\nexcept:\n    pass\n"
        assert rule_ids(src, rules=["RPR007"]) == ["RPR007"]

    def test_fires_on_swallowed_broad_handler(self):
        src = "try:\n    run()\nexcept Exception:\n    pass\n"
        assert rule_ids(src, rules=["RPR007"]) == ["RPR007"]

    def test_fires_on_tuple_containing_base_exception(self):
        src = "try:\n    run()\nexcept (ValueError, BaseException):\n    x = 1\n"
        assert rule_ids(src, rules=["RPR007"]) == ["RPR007"]

    def test_fires_on_dotted_broad_name(self):
        src = "try:\n    run()\nexcept builtins.Exception:\n    flag = True\n"
        assert rule_ids(src, rules=["RPR007"]) == ["RPR007"]

    def test_silent_when_handler_reraises(self):
        src = (
            "try:\n    run()\nexcept Exception as exc:\n"
            "    raise CacheError(str(exc)) from exc\n"
        )
        assert rule_ids(src, rules=["RPR007"]) == []

    def test_silent_when_handler_calls_something(self):
        # Classifying, logging or recording the failure all show up as a
        # call in the handler body.
        src = (
            "try:\n    run()\nexcept Exception as exc:\n"
            "    kind = classify_failure(exc)\n"
        )
        assert rule_ids(src, rules=["RPR007"]) == []

    def test_silent_when_handler_returns_fallback(self):
        src = "try:\n    run()\nexcept Exception:\n    return default\n"
        wrapped = "def f():\n" + "\n".join(
            "    " + line for line in src.splitlines()
        ) + "\n"
        assert rule_ids(wrapped, rules=["RPR007"]) == []

    def test_call_nested_in_conditional_counts_as_acting(self):
        src = (
            "try:\n    run()\nexcept Exception as exc:\n"
            "    if verbose:\n        log(exc)\n"
        )
        assert rule_ids(src, rules=["RPR007"]) == []

    def test_call_only_inside_nested_def_does_not_count(self):
        # Code merely *defined* in the handler never runs there.
        src = (
            "try:\n    run()\nexcept Exception:\n"
            "    def later():\n        log('x')\n"
        )
        assert rule_ids(src, rules=["RPR007"]) == ["RPR007"]

    def test_silent_on_narrow_handler(self):
        src = "try:\n    run()\nexcept OSError:\n    pass\n"
        assert rule_ids(src, rules=["RPR007"]) == []

    def test_suppression_on_the_except_line(self):
        src = (
            "try:\n    run()\n"
            "except Exception:  # repro: ignore[RPR007]\n    pass\n"
        )
        assert rule_ids(src, rules=["RPR007"]) == []

    def test_one_test_in_every_module(self):
        handler = "def call():\n    try:\n        run()\n    except Exception:\n"
        swallowed = handler + "        pass\n"
        returned = handler + "        return None\n"
        for path in ("src/repro/serve/client.py", "src/repro/runner/pool.py"):
            assert rule_ids(swallowed, path, rules=["RPR007"]) == ["RPR007"]
            assert rule_ids(returned, path, rules=["RPR007"]) == []


class TestBlockingAsyncIORPR009:
    FILE = "src/repro/serve/http.py"

    def test_fires_on_time_sleep(self):
        src = "async def handle():\n    time.sleep(1)\n"
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == ["RPR009"]

    def test_fires_on_open(self):
        src = "async def handle():\n    data = open('x').read()\n"
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == ["RPR009"]

    def test_fires_on_path_write(self):
        src = "async def handle(path):\n    path.write_text('x')\n"
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == ["RPR009"]

    def test_fires_on_sqlite_work(self):
        src = (
            "async def handle(conn):\n"
            "    conn.execute('select 1')\n"
            "    conn.commit()\n"
        )
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == [
            "RPR009",
            "RPR009",
        ]

    def test_fires_on_os_replace(self):
        src = "async def handle():\n    os.replace('a', 'b')\n"
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == ["RPR009"]

    def test_silent_on_asyncio_sleep(self):
        src = "async def handle():\n    await asyncio.sleep(1)\n"
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == []

    def test_silent_in_sync_function(self):
        src = "def compute(path):\n    return path.read_text()\n"
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == []

    def test_silent_in_nested_sync_function(self):
        # the nested def is the executor payload — defining it is fine
        src = (
            "async def handle(loop, path):\n"
            "    def payload():\n"
            "        return path.read_text()\n"
            "    return await loop.run_in_executor(None, payload)\n"
        )
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == []

    def test_silent_on_lambda_payload(self):
        src = (
            "async def handle(loop, path):\n"
            "    return await loop.run_in_executor("
            "None, lambda: path.read_text())\n"
        )
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == []

    def test_fires_in_nested_async_function(self):
        src = (
            "async def outer():\n"
            "    async def inner():\n"
            "        time.sleep(1)\n"
            "    await inner()\n"
        )
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == ["RPR009"]

    def test_silent_outside_serve(self):
        src = "async def handle():\n    time.sleep(1)\n"
        assert rule_ids(src, "src/repro/runner/pool.py", rules=["RPR009"]) == []

    def test_suppression_comment_works(self):
        src = (
            "async def handle():\n"
            "    time.sleep(1)  # repro: ignore[RPR009]\n"
        )
        assert rule_ids(src, self.FILE, rules=["RPR009"]) == []

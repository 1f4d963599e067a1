"""Fixture tests for the whole-program rules (RPR010/011).

Each rule gets fire + silent fixtures as in-memory trees; the display
paths drive module naming and package scoping exactly as on disk.
"""

from __future__ import annotations

import pytest

from repro.checks import check_sources


def rule_ids(files: dict[str, str], rules=None) -> list[str]:
    return [f.rule_id for f in check_sources(files, rules=rules)]


class TestDigestTaintRPR010:
    def test_fires_three_calls_deep_below_a_digest_root(self):
        # The acceptance fixture: time.time() is three frames below a
        # digest-reachable function and still caught, with a chain.
        files = {
            "repro/specs.py": (
                "def canonical_json(obj):\n"
                "    return _encode(obj)\n"
                "def _encode(obj):\n"
                "    return _stamp(obj)\n"
                "def _stamp(obj):\n"
                "    return _now(obj)\n"
                "def _now(obj):\n"
                "    import time\n"
                "    return time.time()\n"
            ),
        }
        findings = check_sources(files, rules=["RPR010"])
        assert [f.rule_id for f in findings] == ["RPR010"]
        message = findings[0].message
        assert "time.time" in message
        assert "_encode -> " in message and "_stamp -> " in message

    @pytest.mark.parametrize(
        "root",
        ["repro/core/model.py", "repro/experiments/figx.py"],
        ids=["core", "experiments"],
    )
    def test_fires_across_modules(self, root):
        # every function of a root package is a root: the simulation
        # core's, and each experiment's run
        files = {
            root: (
                "from repro.helpers import jitter\n"
                "def run(x):\n"
                "    return jitter(x)\n"
            ),
            "repro/helpers.py": (
                "import random\n"
                "def jitter(x):\n"
                "    return x + random.random()\n"
            ),
        }
        assert rule_ids(files, rules=["RPR010"]) == ["RPR010"]

    def test_silent_when_sink_is_unreachable(self):
        files = {
            "repro/core/model.py": "def step(x):\n    return x\n",
            "repro/helpers.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
        }
        assert rule_ids(files, rules=["RPR010"]) == []

    def test_silent_for_telemetry_wallclock(self):
        # Telemetry is wall-clock by design; taint must not enter it.
        files = {
            "repro/core/model.py": (
                "from repro.telemetry.clock import stamp\n"
                "def step(x):\n"
                "    return stamp()\n"
            ),
            "repro/telemetry/clock.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
        }
        assert rule_ids(files, rules=["RPR010"]) == []

    def test_suppression_comment_silences_the_sink(self):
        files = {
            "repro/specs.py": (
                "import time\n"
                "def digest(x):\n"
                "    return time.time()  # repro: ignore[RPR010]\n"
            ),
        }
        assert rule_ids(files, rules=["RPR010"]) == []

    def test_unsorted_set_iteration_is_a_sink(self):
        files = {
            "repro/specs.py": (
                "def to_spec(items):\n"
                "    return [x for x in set(items)]\n"
            ),
        }
        assert rule_ids(files, rules=["RPR010"]) == ["RPR010"]

    def test_core_internal_sink_is_reported_once(self):
        # step() is a core root and is also reached from a digest root;
        # its sink is still reported once, with the digest chain.
        files = {
            "repro/core/model.py": (
                "import time\n"
                "def digest(x):\n"
                "    return step(x)\n"
                "def step(x):\n"
                "    return time.time()\n"
            ),
        }
        findings = check_sources(files)
        assert [(f.rule_id, f.line) for f in findings] == [("RPR010", 5)]
        assert "digest -> repro.core.model.step" in findings[0].message


class TestSharedStateRacesRPR011:
    def test_fires_on_global_mutated_from_serve_coroutine(self):
        files = {
            "repro/serve/app.py": (
                "_CACHE = {}\n"
                "async def handle(request):\n"
                "    _record(request)\n"
                "def _record(request):\n"
                "    _CACHE[request.key] = request\n"
            ),
        }
        findings = check_sources(files, rules=["RPR011"])
        assert [f.rule_id for f in findings] == ["RPR011"]
        assert "_CACHE" in findings[0].message
        assert "serve coroutine" in findings[0].message

    def test_fires_on_global_rebound_across_pool_boundary(self):
        files = {
            "repro/runner/work.py": (
                "_STATE = None\n"
                "def _worker(item):\n"
                "    global _STATE\n"
                "    _STATE = item\n"
                "def run(pool, items):\n"
                "    return [pool.submit(_worker, item) for item in items]\n"
            ),
        }
        findings = check_sources(files, rules=["RPR011"])
        assert [f.rule_id for f in findings] == ["RPR011"]
        assert "executor-submitted" in findings[0].message

    def test_silent_for_activation_pattern(self):
        files = {
            "repro/serve/app.py": (
                "_ACTIVE = None\n"
                "def activate(plan):\n"
                "    global _ACTIVE\n"
                "    _ACTIVE = plan\n"
                "async def handle(request):\n"
                "    activate(request.plan)\n"
            ),
        }
        assert rule_ids(files, rules=["RPR011"]) == []

    def test_silent_for_local_shadowing_a_global_name(self):
        files = {
            "repro/serve/app.py": (
                "_CACHE = {}\n"
                "async def handle(request):\n"
                "    _CACHE = {}\n"
                "    _CACHE[request.key] = request\n"
            ),
        }
        assert rule_ids(files, rules=["RPR011"]) == []

    def test_silent_outside_racy_contexts(self):
        files = {
            "repro/config.py": (
                "_SETTINGS = {}\n"
                "def configure(key, value):\n"
                "    _SETTINGS[key] = value\n"
            ),
        }
        assert rule_ids(files, rules=["RPR011"]) == []

    def test_suppression_comment_silences_the_write(self):
        files = {
            "repro/serve/app.py": (
                "_HITS = 0\n"
                "async def handle(request):\n"
                "    global _HITS\n"
                "    _HITS += 1  # repro: ignore[RPR011]\n"
            ),
        }
        assert rule_ids(files, rules=["RPR011"]) == []

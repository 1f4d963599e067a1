"""Import/call-graph construction over in-memory module trees."""

from __future__ import annotations

from repro.checks.graph import (
    ProgramGraph,
    module_names_for,
    summarize_source,
)


def build(files: dict[str, str]) -> ProgramGraph:
    paths = list(files)
    summaries = [summarize_source(files[path]) for path in paths]
    return ProgramGraph.build(summaries, paths)


class TestModuleNaming:
    def test_repro_component_anchors_the_name(self):
        names = module_names_for(
            ["src/repro/core/curve.py", "src/repro/units.py"]
        )
        assert names == ["repro.core.curve", "repro.units"]

    def test_init_names_the_package(self):
        assert module_names_for(["src/repro/core/__init__.py"]) == [
            "repro.core"
        ]

    def test_fixture_trees_use_common_ancestor_relative_names(self):
        names = module_names_for(["proj/app/a.py", "proj/app/sub/b.py"])
        assert names == ["app.a", "app.sub.b"]


class TestCallResolution:
    def test_direct_import_call_resolves(self):
        g = build(
            {
                "pkg/a.py": "from pkg.b import helper\ndef f():\n    helper()\n",
                "pkg/b.py": "def helper():\n    pass\n",
            }
        )
        assert g.edges["pkg.a:f"] == ["pkg.b:helper"]

    def test_aliased_module_import_resolves(self):
        g = build(
            {
                "pkg/a.py": "import pkg.b as bee\ndef f():\n    bee.helper()\n",
                "pkg/b.py": "def helper():\n    pass\n",
            }
        )
        assert g.edges["pkg.a:f"] == ["pkg.b:helper"]

    def test_relative_import_resolves(self):
        g = build(
            {
                "pkg/a.py": "from .b import helper\ndef f():\n    helper()\n",
                "pkg/b.py": "def helper():\n    pass\n",
                "pkg/__init__.py": "",
            }
        )
        assert g.edges["pkg.a:f"] == ["pkg.b:helper"]

    def test_self_method_call_resolves_within_class(self):
        g = build(
            {
                "pkg/a.py": (
                    "class C:\n"
                    "    def f(self):\n"
                    "        self.g()\n"
                    "    def g(self):\n"
                    "        pass\n"
                ),
                "pkg/b.py": "",
            }
        )
        assert g.edges["pkg.a:C.f"] == ["pkg.a:C.g"]

    def test_constructor_call_links_to_init(self):
        g = build(
            {
                "pkg/a.py": "from pkg.b import C\ndef f():\n    C()\n",
                "pkg/b.py": (
                    "class C:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                ),
            }
        )
        assert g.edges["pkg.a:f"] == ["pkg.b:C.__init__"]

    def test_reexport_through_package_init_resolves(self):
        g = build(
            {
                "pkg/__init__.py": "from .impl import helper\n",
                "pkg/impl.py": "def helper():\n    pass\n",
                "app.py": "import pkg\ndef f():\n    pkg.helper()\n",
            }
        )
        assert g.edges["app:f"] == ["pkg.impl:helper"]

    def test_star_import_resolves(self):
        g = build(
            {
                "pkg/a.py": "from pkg.b import *\ndef f():\n    helper()\n",
                "pkg/b.py": "def helper():\n    pass\n",
            }
        )
        assert g.edges["pkg.a:f"] == ["pkg.b:helper"]

    def test_cycles_terminate(self):
        g = build(
            {
                "pkg/a.py": "from pkg.b import g\ndef f():\n    g()\n",
                "pkg/b.py": "from pkg.a import f\ndef g():\n    f()\n",
            }
        )
        reached, _ = g.reachable(["pkg.a:f"])
        assert reached == {"pkg.a:f", "pkg.b:g", "pkg.a:f"} | {"pkg.b:g"}

    def test_dynamic_calls_degrade_to_no_edge(self):
        # getattr dispatch and dict-of-functions patterns must not
        # crash or invent edges.
        g = build(
            {
                "pkg/a.py": (
                    "def f(table, name):\n"
                    "    getattr(table, name)()\n"
                    "    table[name]()\n"
                ),
                "pkg/b.py": "",
            }
        )
        assert g.edges["pkg.a:f"] == []

    def test_unknown_receiver_falls_back_by_method_name(self):
        g = build(
            {
                "pkg/a.py": "def f(model):\n    model.latency_at(1.0)\n",
                "pkg/b.py": (
                    "class Curve:\n"
                    "    def latency_at(self, bw):\n"
                    "        pass\n"
                ),
            }
        )
        assert g.edges["pkg.a:f"] == ["pkg.b:Curve.latency_at"]

    def test_builtin_container_methods_are_not_fallback_linked(self):
        g = build(
            {
                "pkg/a.py": "def f(seen):\n    seen.update([1])\n",
                "pkg/b.py": (
                    "class Registry:\n"
                    "    def update(self, items):\n"
                    "        pass\n"
                ),
            }
        )
        assert g.edges["pkg.a:f"] == []


class TestParseFailures:
    def test_syntax_error_becomes_parse_error_summary(self):
        summary = summarize_source("def broken(:\n")
        assert summary.parse_error is not None
        assert "line 1" in summary.parse_error
        assert summary.functions == []

    def test_graph_builds_around_a_broken_module(self):
        g = build(
            {
                "pkg/a.py": "def f():\n    pass\n",
                "pkg/broken.py": "def broken(:\n",
            }
        )
        assert "pkg.a:f" in g.functions
        assert g.modules["pkg.broken"].parse_error is not None

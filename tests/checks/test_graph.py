"""Import/call-graph construction over in-memory module trees."""

from __future__ import annotations

import ast

from repro.checks.dataflow import ReachabilityWalk
from repro.checks.graph import ProgramGraph, extract_summary, module_names_for


def build(files: dict[str, str]) -> ProgramGraph:
    paths = list(files)
    summaries = [
        extract_summary(ast.parse(files[path]), files[path]) for path in paths
    ]
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
        walk = ReachabilityWalk(g, ["pkg.a:f"])
        assert walk.reached == {"pkg.a:f", "pkg.b:g"}
        assert walk.chain("pkg.b:g") == ["pkg.a:f", "pkg.b:g"]

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
        # ``submit`` must stay blocked: linked by name, a memory backend's
        # ``backend.submit(request)`` reaches the serve layer's ``submit``
        # methods and, through them, its wall-clock reads.
        for method in ("update", "submit"):
            g = build(
                {
                    "pkg/a.py": f"def f(seen):\n    seen.{method}([1])\n",
                    "pkg/b.py": (
                        "class Registry:\n"
                        f"    def {method}(self, items):\n"
                        "        pass\n"
                    ),
                }
            )
            assert g.edges["pkg.a:f"] == [], method


class TestModuleCode:
    SOURCE = (
        "import random\n"
        "from pkg.b import helper\n"
        "x = helper()\n"
        "class C:\n"
        "    for y in {1, 2}:\n"
        "        pass\n"
        "    def m(self, t=helper()):\n"
        "        return random.random()\n"
    )

    def test_top_level_and_class_bodies_form_the_module_function(self):
        g = build({"pkg/a.py": self.SOURCE, "pkg/b.py": "def helper():\n    pass\n"})
        module = g.functions["pkg.a:<module>"]
        assert [(s.kind, s.lineno) for s in module.sinks] == [
            ("entropy", 1),
            ("set-iteration", 5),
        ]
        # the default ``t=helper()`` runs at class-definition time
        assert [c.lineno for c in module.calls] == [3, 7]
        assert g.edges["pkg.a:<module>"] == ["pkg.b:helper"]

    def test_method_bodies_stay_with_their_method(self):
        g = build({"pkg/a.py": self.SOURCE, "pkg/b.py": ""})
        method = g.functions["pkg.a:C.m"]
        assert [(s.kind, s.lineno) for s in method.sinks] == [("entropy", 8)]

"""The call-graph substrate: indexing, type-lite inference, reachability."""

from __future__ import annotations

import ast

from repro_check.callgraph import (
    CallGraph,
    get_callgraph,
    module_name_for,
    walk_unit,
)
from repro_check.framework import AnalysisConfig, Project


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def build(tmp_path) -> CallGraph:
    project = Project(tmp_path, ("src",))
    return get_callgraph(project, AnalysisConfig())


def test_module_name_for_strips_src_and_init():
    assert module_name_for("src/repro/sim/events.py", "src") == "repro.sim.events"
    assert module_name_for("src/repro/__init__.py", "src") == "repro"
    assert module_name_for("tests/test_x.py", "src") is None
    assert module_name_for("src/repro/data.txt", "src") is None


def test_walk_unit_skips_nested_def_bodies():
    tree = ast.parse(
        "def outer():\n"
        "    a()\n"
        "    def inner():\n"
        "        b()\n"
        "    class C:\n"
        "        def m(self):\n"
        "            c()\n"
        "    d()\n"
    )
    outer = tree.body[0]
    calls = {node.func.id for node in walk_unit(outer.body)
             if isinstance(node, ast.Call)}
    assert calls == {"a", "d"}


def test_functions_classes_and_method_ids(tmp_path):
    write(tmp_path, "src/repro/mod.py",
          "def helper():\n"
          "    return 1\n"
          "class Thing:\n"
          "    def method(self):\n"
          "        return helper()\n")
    graph = build(tmp_path)
    assert "repro.mod:helper" in graph.functions
    assert "repro.mod:Thing.method" in graph.functions
    thing = graph.classes["repro.mod:Thing"]
    assert thing.methods == {"method": "repro.mod:Thing.method"}
    method = graph.functions["repro.mod:Thing.method"]
    assert method.class_id == "repro.mod:Thing"
    assert method.params == ("self",)


def test_resolve_call_through_imports_and_annotations(tmp_path):
    write(tmp_path, "src/repro/queue.py",
          "class Queue:\n"
          "    def push(self, item):\n"
          "        return item\n")
    write(tmp_path, "src/repro/user.py",
          "from repro.queue import Queue\n"
          "def use(q: Queue):\n"
          "    return q.push(1)\n"
          "def make():\n"
          "    return Queue()\n")
    graph = build(tmp_path)
    use = graph.functions["repro.user:use"]
    push_call = next(node for node in ast.walk(use.node)
                     if isinstance(node, ast.Call))
    assert graph.resolve_call(push_call, use) == "repro.queue:Queue.push"
    assert graph.expr_types(push_call.func.value, use) == {"repro.queue:Queue"}
    make = graph.functions["repro.user:make"]
    ctor = next(node for node in ast.walk(make.node)
                if isinstance(node, ast.Call))
    assert graph.resolve_call(ctor, make) == "repro.queue:Queue"


def test_self_and_constructor_locals_are_typed(tmp_path):
    write(tmp_path, "src/repro/owner.py",
          "class Inner:\n"
          "    def hit(self):\n"
          "        return 1\n"
          "class Outer:\n"
          "    def __init__(self):\n"
          "        self.inner = Inner()\n"
          "    def go(self):\n"
          "        return self.inner.hit()\n")
    graph = build(tmp_path)
    go = graph.functions["repro.owner:Outer.go"]
    call = next(node for node in ast.walk(go.node) if isinstance(node, ast.Call))
    assert graph.resolve_call(call, go) == "repro.owner:Inner.hit"


def test_reachability_finds_dead_code(tmp_path):
    write(tmp_path, "src/repro/cli.py",
          "from repro.work import run\n"
          "def main():\n"
          "    return run()\n")
    write(tmp_path, "src/repro/work.py",
          "def run():\n"
          "    return step()\n"
          "def step():\n"
          "    return 1\n"
          "def orphan():\n"
          "    return 2\n")
    graph = build(tmp_path)
    reachable = graph.reachable_from(("repro.cli",))
    assert "repro.work:run" in reachable
    assert "repro.work:step" in reachable
    assert "repro.work:orphan" not in reachable


def test_decorated_defs_of_reachable_modules_are_seeded(tmp_path):
    write(tmp_path, "src/repro/cli.py", "import repro.plugins\n")
    write(tmp_path, "src/repro/plugins.py",
          "def register(fn):\n"
          "    return fn\n"
          "@register\n"
          "def hook():\n"
          "    return inner()\n"
          "def inner():\n"
          "    return 3\n")
    graph = build(tmp_path)
    reachable = graph.reachable_from(("repro.cli",))
    assert "repro.plugins:hook" in reachable
    assert "repro.plugins:inner" in reachable


def test_instantiated_class_methods_are_live(tmp_path):
    write(tmp_path, "src/repro/cli.py",
          "from repro.agent import Agent\n"
          "def main():\n"
          "    return Agent()\n")
    write(tmp_path, "src/repro/agent.py",
          "class Agent:\n"
          "    def tick(self):\n"
          "        return 1\n"
          "class Unused:\n"
          "    def never(self):\n"
          "        return 2\n")
    graph = build(tmp_path)
    reachable = graph.reachable_from(("repro.cli",))
    assert "repro.agent:Agent.tick" in reachable
    assert "repro.agent:Unused.never" not in reachable


def test_callgraph_is_memoised_per_project(tmp_path):
    write(tmp_path, "src/repro/mod.py", "x = 1\n")
    project = Project(tmp_path, ("src",))
    config = AnalysisConfig()
    assert get_callgraph(project, config) is get_callgraph(project, config)

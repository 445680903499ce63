"""The dataflow substrate: atom propagation and stored streams."""

from __future__ import annotations

from dataclasses import replace

from repro_check.dataflow import MAIN_ATOM, get_dataflow
from repro_check.framework import AnalysisConfig, Project


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def flow_for(tmp_path, **overrides):
    config = replace(AnalysisConfig(), **overrides)
    project = Project(tmp_path, ("src",))
    return get_dataflow(project, config)


def test_generator_atom_flows_local_to_attr_to_param(tmp_path):
    write(tmp_path, "src/repro/maker.py",
          "import numpy as np\n"
          "class Holder:\n"
          "    def __init__(self):\n"
          "        rng = np.random.default_rng(7)\n"
          "        self.rng = rng\n"
          "def consume(value):\n"
          "    return value\n"
          "def hand_over():\n"
          "    h = Holder()\n"
          "    return consume(h.rng)\n")
    flow = flow_for(tmp_path)
    attr_tags = flow.tags(("attr", "repro.maker:Holder", "rng"))
    assert any(tag[0] == "gen" and tag[3] for tag in attr_tags)
    param_tags = flow.tags(("local", "repro.maker:consume", "value"))
    assert any(tag[0] == "gen" for tag in param_tags)


def test_main_atom_injected_at_configured_root(tmp_path):
    write(tmp_path, "src/repro/sim.py",
          "import numpy as np\n"
          "class Sim:\n"
          "    def __init__(self, seed):\n"
          "        self.rng = np.random.default_rng(seed)\n"
          "    def share(self):\n"
          "        return self.rng\n"
          "def borrower(sim: Sim):\n"
          "    value = sim.share()\n"
          "    return value\n")
    flow = flow_for(tmp_path, rng_main_root=("src/repro/sim.py", "Sim", "rng"))
    assert MAIN_ATOM in flow.tags(("attr", "repro.sim:Sim", "rng"))
    assert MAIN_ATOM in flow.tags(("local", "repro.sim:borrower", "value"))


def test_stored_atom_marks_counter_module_attributes(tmp_path):
    write(tmp_path, "src/repro/chan.py",
          "import numpy as np\n"
          "class Window:\n"
          "    def __init__(self, rng):\n"
          "        self.rng = rng\n"
          "def build():\n"
          "    return Window(np.random.default_rng(3))\n")
    flow = flow_for(tmp_path, counter_modules=("src/repro/chan.py",))
    tags = flow.tags(("attr", "repro.chan:Window", "rng"))
    assert ("stored", "repro.chan:Window", "rng") in tags


def test_direct_attr_atoms_exclude_parameter_injection(tmp_path):
    write(tmp_path, "src/repro/enc.py",
          "import numpy as np\n"
          "class Direct:\n"
          "    def __init__(self):\n"
          "        self.rng = np.random.default_rng(1)\n"
          "    def reseed(self):\n"
          "        self.rng = np.random.default_rng(2)\n"
          "class Injected:\n"
          "    def __init__(self, rng):\n"
          "        self.rng = rng\n"
          "def make_two():\n"
          "    return (Injected(np.random.default_rng(1)),\n"
          "            Injected(np.random.default_rng(2)))\n")
    flow = flow_for(tmp_path)
    direct = flow.direct_attr_atoms.get(("attr", "repro.enc:Direct", "rng"), set())
    assert len({(a[1], a[2]) for a in direct}) == 2
    injected = flow.direct_attr_atoms.get(
        ("attr", "repro.enc:Injected", "rng"), set())
    assert injected == set()
    # ...while full propagation still sees both construction sites arrive.
    arrived = flow.tags(("attr", "repro.enc:Injected", "rng"))
    assert len([tag for tag in arrived if tag[0] == "gen"]) == 2


def test_unresolvable_expressions_contribute_nothing(tmp_path):
    write(tmp_path, "src/repro/dark.py",
          "def use(mystery):\n"
          "    value = mystery.derive()\n"
          "    return value.random()\n")
    flow = flow_for(tmp_path)
    assert flow.tags(("local", "repro.dark:use", "value")) == frozenset()

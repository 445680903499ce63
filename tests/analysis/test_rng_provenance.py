"""DET101: interprocedural RNG provenance, proven on accept/reject fixtures."""

from __future__ import annotations

from dataclasses import replace

from repro_check import run_rules
from repro_check.framework import AnalysisConfig


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def det_config(**overrides) -> AnalysisConfig:
    defaults = dict(
        counter_modules=("src/repro/chan.py",),
        rng_main_root=("src/repro/sim.py", "Sim", "rng"),
    )
    defaults.update(overrides)
    return replace(AnalysisConfig(), **defaults)


SIM = ("import numpy as np\n"
       "class Sim:\n"
       "    def __init__(self, seed):\n"
       "        self.rng = np.random.default_rng(seed)\n")


def test_per_query_derivation_is_accepted(tmp_path):
    write(tmp_path, "src/repro/sim.py", SIM)
    write(tmp_path, "src/repro/chan.py",
          "import numpy as np\n"
          "class Channel:\n"
          "    def __init__(self, seed):\n"
          "        self.seed = seed\n"
          "    def sample(self, counter):\n"
          "        rng = np.random.default_rng((self.seed, counter))\n"
          "        return rng.random()\n")
    assert run_rules(tmp_path, config=det_config(), select=["DET101"]) == []


def test_main_rng_leak_into_counter_module_is_rejected(tmp_path):
    write(tmp_path, "src/repro/sim.py",
          SIM +
          "    def leak(self):\n"
          "        return self.rng\n")
    write(tmp_path, "src/repro/chan.py",
          "from repro.sim import Sim\n"
          "class Channel:\n"
          "    def sample(self, sim: Sim):\n"
          "        shared = sim.leak()\n"
          "        return shared.random()\n")
    findings = run_rules(tmp_path, config=det_config(), select=["DET101"])
    assert len(findings) == 1
    assert findings[0].path == "src/repro/chan.py"
    assert "main" in findings[0].message


#: The simulator's shape: its generator is read through one word stream
#: (``repro.rng.WordStream``), and ``rng`` is a property over that stream.
STREAM_SIM = ("import numpy as np\n"
              "class WordStream:\n"
              "    def __init__(self, generator):\n"
              "        self._generator = generator\n"
              "    def bounded(self, span):\n"
              "        return int(self._generator.integers(0, span))\n"
              "    def generator(self):\n"
              "        return self._generator\n"
              "class Sim:\n"
              "    def __init__(self, seed):\n"
              "        self.words = WordStream(np.random.default_rng(seed))\n"
              "    @property\n"
              "    def rng(self):\n"
              "        return self.words.generator()\n")


def test_a_draw_through_the_simulators_word_stream_is_rejected(tmp_path):
    """The main root is the attribute holding the stream: a counter-module
    draw through it is main-RNG leakage.  Rooted at the ``rng`` property,
    which nothing assigns, the same draw would pass unseen."""
    write(tmp_path, "src/repro/sim.py", STREAM_SIM)
    write(tmp_path, "src/repro/chan.py",
          "from repro.sim import Sim\n"
          "class Channel:\n"
          "    def sample(self, sim: Sim):\n"
          "        return sim.words.bounded(8)\n")
    root = AnalysisConfig().rng_main_root[2]
    findings = run_rules(tmp_path, select=["DET101"], config=det_config(
        rng_main_root=("src/repro/sim.py", "Sim", root)))
    assert len(findings) == 1
    assert findings[0].path == "src/repro/chan.py"
    assert "`.bounded()` draws from the *main* simulation RNG" in findings[0].message
    assert run_rules(tmp_path, select=["DET101"], config=det_config(
        rng_main_root=("src/repro/sim.py", "Sim", "rng"))) == []


def test_the_shipped_main_root_is_the_simulators_stream():
    """The configured root names an attribute ``Simulator`` assigns, and it
    holds the stream every MAC and the medium read."""
    from repro.rng import WordStream
    from repro.sim.simulator import Simulator
    from repro.topology.generator import chain

    path, class_name, attribute = AnalysisConfig().rng_main_root
    assert (path, class_name) == ("src/repro/sim/simulator.py", "Simulator")
    sim = Simulator(chain(2))
    assert isinstance(vars(sim)[attribute], WordStream)
    assert sim.medium._words is vars(sim)[attribute]
    assert sim.nodes[0].mac._draw_slots.__self__ is vars(sim)[attribute]


def test_stored_generator_draw_is_query_order_dependent(tmp_path):
    write(tmp_path, "src/repro/sim.py", SIM)
    write(tmp_path, "src/repro/chan.py",
          "import numpy as np\n"
          "class Window:\n"
          "    def __init__(self, rng):\n"
          "        self.rng = rng\n"
          "    def sample(self):\n"
          "        return self.rng.random()\n"
          "def build():\n"
          "    return Window(np.random.default_rng(9))\n")
    findings = run_rules(tmp_path, config=det_config(), select=["DET101"])
    assert len(findings) == 1
    assert "query-order" in findings[0].message
    assert "Window.rng" in findings[0].message


def test_two_direct_construction_sites_confuse_streams(tmp_path):
    write(tmp_path, "src/repro/sim.py", SIM)
    write(tmp_path, "src/repro/enc.py",
          "import numpy as np\n"
          "class Encoder:\n"
          "    def __init__(self, seed):\n"
          "        self.rng = np.random.default_rng(seed)\n"
          "    def reset(self, seed):\n"
          "        self.rng = np.random.default_rng((seed, 1))\n")
    findings = run_rules(tmp_path, config=det_config(), select=["DET101"])
    assert len(findings) == 1
    assert "distinct construction sites" in findings[0].message


def test_dependency_injection_is_not_stream_confusion(tmp_path):
    write(tmp_path, "src/repro/sim.py", SIM)
    write(tmp_path, "src/repro/enc.py",
          "import numpy as np\n"
          "class Encoder:\n"
          "    def __init__(self, rng):\n"
          "        self.rng = rng\n"
          "def harness():\n"
          "    return Encoder(np.random.default_rng(1))\n"
          "def agent():\n"
          "    return Encoder(np.random.default_rng(2))\n")
    assert run_rules(tmp_path, config=det_config(), select=["DET101"]) == []


def test_unseeded_provenance_is_unattributable(tmp_path):
    write(tmp_path, "src/repro/sim.py", SIM)
    write(tmp_path, "src/repro/chan.py",
          "import numpy as np\n"
          "def helper():\n"
          "    return np.random.default_rng()\n"
          "def sample():\n"
          "    rng = helper()\n"
          "    return rng.random()\n")
    findings = run_rules(tmp_path, config=det_config(), select=["DET101"])
    assert len(findings) == 1
    assert "no declared stream root" in findings[0].message


def test_unresolvable_receivers_are_skipped_not_guessed(tmp_path):
    write(tmp_path, "src/repro/sim.py", SIM)
    write(tmp_path, "src/repro/chan.py",
          "def sample(mystery):\n"
          "    return mystery.rng.random()\n")
    assert run_rules(tmp_path, config=det_config(), select=["DET101"]) == []


def test_shipped_tree_has_attributable_rng_flow():
    from pathlib import Path
    root = Path(__file__).resolve().parents[2]
    assert run_rules(root, select=["DET101"]) == []

"""The import budget: what a process loads before its first simulated frame.

Every CLI command, pool worker and benchmark process pays for what
``import repro...`` pulls in.  scipy (the LP oracle's solver: half a second
and 40 MiB) once rode along with all of them; this holds the line.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.metrics.lp import solve_min_cost_flow
from repro.topology.generator import two_hop_relay

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Top-level packages no run needs: the solver, the test tooling, plotting.
UNWANTED = ("scipy", "hypothesis", "pytest", "matplotlib", "pandas")

_PROBE = """
import importlib.util, json, sys
import repro.cli, repro.experiments.runner, repro.experiments.orchestrator, repro.scenarios
report = {"loaded": sorted({name.partition(".")[0] for name in sys.modules})}

import repro.metrics
from repro.metrics import FlowSolution, solve_min_cost_flow, verify_flow_conservation
report["exports"] = all(name in repro.metrics.__all__ for name in
                        ("FlowSolution", "solve_min_cost_flow", "verify_flow_conservation"))
report["after_metrics"] = "scipy" in sys.modules

if importlib.util.find_spec("scipy") is not None:
    from repro.metrics.eotx import eotx_dijkstra
    from repro.topology.generator import two_hop_relay
    relay = two_hop_relay()
    solution = solve_min_cost_flow(relay, 0, 2)
    report["lp"] = [solution.total_cost, float(eotx_dijkstra(relay, 2)[0]),
                    isinstance(solution, FlowSolution),
                    verify_flow_conservation(solution, 0, 2)]
print(json.dumps(report))
"""


def _probe(code: str, *args: str) -> dict:
    """What ``code`` prints as JSON, run in a fresh interpreter on ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_run_path_loads_no_solver_or_test_tooling():
    report = _probe(_PROBE)
    assert "numpy" in report["loaded"] and "repro" in report["loaded"]
    assert not set(UNWANTED) & set(report["loaded"])
    # The LP names stay importable from the package, and cost nothing there.
    assert report["exports"]
    assert not report["after_metrics"]
    if "lp" in report:  # scipy installed: the solver still loads on first use
        optimum, eotx, is_solution, conserved = report["lp"]
        assert optimum == pytest.approx(eotx, abs=1e-6)
        assert is_solution and conserved


#: Layers a single run never executes: the worker pool's start-up, the
#: figures, the preset registry, the cell runner and the Chapter 5 theory.
NOT_ON_THE_RUN_PATH = ("multiprocessing", "repro.experiments.figures",
                       "repro.scenarios.presets", "repro.scenarios.execute",
                       "repro.metrics.lp", "repro.metrics.gap")

#: Packages whose ``__init__`` names its exports without importing them
#: (``repro.experiments`` re-exports nothing).
LAZY_PACKAGES = ("repro.experiments.orchestrator", "repro.scenarios", "repro.metrics")

_RUN_PATH_PROBE = """
import ast, importlib, json, sys
from pathlib import Path

# What the benchmark's workloads import, then one flow on the testbed.
from repro.experiments import orchestrator
from repro.experiments.runner import PROTOCOLS, RunConfig, run_flows, run_single_flow
from repro.experiments.workloads import multiflow_sets, random_pairs
from repro.protocols.more import setup_more_flow
from repro.scenarios.spec import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import indoor_testbed, random_geometric

topology = indoor_testbed(floors=3, seed=7)
(source, destination), = random_pairs(topology, 1, seed=1)
result = run_single_flow(topology, "MORE", source, destination,
                         config=RunConfig(total_packets=32, seed=1))
report = {"completed": result.completed, "loaded": sorted(sys.modules)}

# Each package's names, as its TYPE_CHECKING imports state where they live.
surfaces = {}
for package_name in json.loads(sys.argv[1]):
    package = importlib.import_module(package_name)
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    guarded = [node for node in tree.body if isinstance(node, ast.If)
               and getattr(node.test, "id", None) == "TYPE_CHECKING"]
    homes = {alias.name: node.module for block in guarded for node in block.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    surfaces[package_name] = {
        "all": sorted(package.__all__),
        "typed": sorted(homes),
        "same": sorted(name for name in package.__all__ if name in homes
                       and getattr(package, name)
                       is getattr(importlib.import_module(homes[name]), name)),
        "listed": sorted(set(package.__all__) & set(dir(package))),
        "cached": sorted(set(package.__all__) & set(vars(package))),
    }
report["surfaces"] = surfaces
print(json.dumps(report))
"""


def test_a_run_loads_only_the_layers_it_runs():
    """A run imports its package surfaces without what they re-export from
    the layers above it, and every re-exported name still resolves, once, to
    the object its module defines."""
    report = _probe(_RUN_PATH_PROBE, json.dumps(LAZY_PACKAGES))
    assert report["completed"]
    assert [name for name in NOT_ON_THE_RUN_PATH if name in report["loaded"]] == []
    for package, surface in report["surfaces"].items():
        names = surface["all"]
        assert names, package
        assert surface["typed"] == names, package
        assert surface["same"] == names, package
        assert surface["listed"] == names, package
        assert surface["cached"] == names, package


def test_the_analyzer_is_outside_the_runtime_package():
    """``src/repro`` is the simulator: the static analyzer is tooling beside
    it (``repro_check/``), so it is neither installed with the package nor
    hashed into the result store's code key."""
    assert importlib.util.find_spec("repro.analysis") is None
    package = Path(_SRC) / "repro"
    imports_it = re.compile(r"^\s*(?:import|from)\s+repro_check\b", re.MULTILINE)
    assert [path.relative_to(package).as_posix() for path in package.rglob("*.py")
            if imports_it.search(path.read_text(encoding="utf-8"))] == []


def test_lp_without_scipy_is_a_one_line_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    with pytest.raises(ImportError) as raised:
        solve_min_cost_flow(two_hop_relay(), 0, 2)
    assert str(raised.value) == ("the LP reference needs scipy: "
                                 "pip install more-repro[test]")

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


def test_importing_the_run_path_loads_no_solver_or_test_tooling():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert "numpy" in report["loaded"] and "repro" in report["loaded"]
    assert not set(UNWANTED) & set(report["loaded"])
    # The LP names stay importable from the package, and cost nothing there.
    assert report["exports"]
    assert not report["after_metrics"]
    if "lp" in report:  # scipy installed: the solver still loads on first use
        optimum, eotx, is_solution, conserved = report["lp"]
        assert optimum == pytest.approx(eotx, abs=1e-6)
        assert is_solution and conserved


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

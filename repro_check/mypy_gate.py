"""The typed-core gate: strict mypy over the allowlisted modules.

Type errors in the GF layer and the event engine are exactly the class of
bug the differential tests are slowest to localise (a wrong dtype or a
``None`` leaking into a kernel shows up as a trace divergence three layers
away), so the core modules are held to strict typing.  The allowlist
starts small and is meant to only ever grow:

* :mod:`repro.gf` (arithmetic, tables, matrix, kernels)
* :mod:`repro.rng`
* :mod:`repro.sim.events`
* :mod:`repro.sim.faults`
* :mod:`repro.topology.mobility`
* :mod:`repro.experiments.orchestrator.store`

mypy is a third-party tool and hermetic containers may not ship it, so the
gate runs mypy when it is importable and reports a skip otherwise.  CI's
``analyze`` job installs mypy explicitly, so the gate is always enforced
before merge; the flag configuration lives in ``pyproject.toml`` under
``[tool.mypy]``.
"""

from __future__ import annotations

import subprocess
import sys
from importlib import util
from pathlib import Path

#: Package/module names held to the strict per-module mypy overrides.
#: Keep in sync with the ``[[tool.mypy.overrides]]`` table in pyproject.toml.
STRICT_MODULES = (
    "repro.gf",
    "repro.rng",
    "repro.sim.events",
    "repro.sim.faults",
    "repro.topology.mobility",
    "repro.experiments.orchestrator.store",
)


def mypy_available() -> bool:
    """True when mypy is importable in this interpreter."""
    return util.find_spec("mypy") is not None


def run_mypy(root: Path) -> int | None:
    """Run mypy over the strict allowlist; ``None`` when mypy is absent.

    Packages are addressed by module name (``-p``) so mypy follows the
    pyproject ``mypy_path = ["src"]`` configuration rather than guessing
    the package layout from file paths.
    """
    if not mypy_available():
        return None
    command = [sys.executable, "-m", "mypy"]
    for module in STRICT_MODULES:
        command += ["-p", module]
    print(f"analyze: mypy over {', '.join(STRICT_MODULES)}")
    return subprocess.run(command, cwd=root).returncode

"""Package surfaces that load a name's module on its first use (PEP 562).

Importing any submodule runs its package's ``__init__`` first, so a
package that re-exported its layers eagerly made every process that runs
one flow also load what it holds above that flow: the sweep engine and its
worker pool, the figures, the presets, the LP.  A package ``__init__``
therefore imports nothing above its own layer.  It names where each public
name lives instead, and the name is bound on first access::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.experiments.orchestrator.engine": ("SweepResult", "run_sweep"),
    })

The first ``package.run_sweep`` (or ``from package import run_sweep``)
imports the engine and caches the value in the package namespace; later
reads are plain attribute reads of the very object the engine holds.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(package: str, layout: dict[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` / ``__dir__`` pair for ``package``.

    ``layout`` maps a defining module's dotted name to the names the package
    re-exports from it.
    """
    home = {name: module for module, names in layout.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__

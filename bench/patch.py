"""Replace a function of the program under test, by dotted name, and undo it.

The benchmark records everything from its own files, so it reaches into the
program only through *public* module and class attributes, resolved at run
time.  ``repro.sim.medium.WirelessMedium.complete`` names a class
attribute; ``repro.topology.estimation.probe_estimated_topology`` names a
module function — and because modules bind functions with ``from x import
f``, a module function is replaced in every loaded ``repro``/``bench``
namespace that holds the same object.  A function reached through a
registry dict or a value cached at import time is not found this way; its
time stays with its caller.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable

_SCANNED_PACKAGES = ("repro", "bench")


def resolve(dotted: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` for a dotted name.

    Raises ``LookupError`` if no importable module prefix has the attribute
    chain — the caller decides whether that is fatal.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            break
    raise LookupError(f"no such entry point: {dotted}")


class Patches:
    """A set of attribute replacements that can be undone in one call."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, dotted: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``dotted`` with ``make(original)``; ``LookupError`` if absent."""
        owner, attribute, original = resolve(dotted)
        replacement = make(original)
        if isinstance(owner, ModuleType):
            for module in list(sys.modules.values()):
                if (module is not None
                        and module.__name__.split(".")[0] in _SCANNED_PACKAGES):
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, name, replacement, original)
        else:
            self._set(owner, attribute, replacement, original)

    def _set(self, owner: Any, name: str, value: Any, original: Any) -> None:
        setattr(owner, name, value)
        self._undo.append((owner, name, original))

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

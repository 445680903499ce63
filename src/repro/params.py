"""The ``params`` of a scenario section (``topology``, ``workload``, ``channel``,
``mobility``, ``faults``) end as keyword arguments, and they come from outside
the program: spec files and ``--set`` / ``--axis`` overrides."""

from __future__ import annotations

from typing import Any, Callable, TypeVar

T = TypeVar("T")


def call_with_params(section: str, kind: str, factory: Callable[..., T],
                     *args: Any, **params: Any) -> T:
    """``factory(*args, **params)``; a bad ``<section>.<param>`` is a one-line error.

    An unknown, missing or mistyped keyword raises ``TypeError`` in the
    callee; it is re-raised as the ``ValueError`` the CLI prints as
    ``repro: error: bad parameter for <section> '<kind>': ...``.
    """
    try:
        return factory(*args, **params)
    except TypeError as error:
        raise ValueError(f"bad parameter for {section} {kind!r}: {error}") from None

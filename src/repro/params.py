"""A scenario section (``topology``, ``workload``, ``channel``, ``mobility``,
``faults``) is a ``{kind, params}`` pair: ``kind`` names an entry of the
section's registry and ``params`` end as that entry's keyword arguments.  Both
come from outside the program: spec files and ``--set`` / ``--axis`` overrides."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Collection, Mapping, TypeVar

T = TypeVar("T")
S = TypeVar("S", bound="SectionSpec")


@dataclass
class SectionSpec:
    """One ``{kind, params}`` section; round-trips through dicts/JSON.

    Subclasses state their ``label`` (the word error messages use) and, where
    the section has one, a default ``kind``.
    """

    label: ClassVar[str] = "section"

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls: type[S], data: dict[str, Any]) -> S:
        if "kind" not in data:
            raise ValueError(f"{cls.label} spec needs a 'kind' field")
        return cls(kind=data["kind"], params=dict(data.get("params", {})))


def bad_parameter(section: str, kind: str, problem: object) -> ValueError:
    """The error a rejected ``<section>.<param>`` value raises: the CLI prints
    it as ``repro: error: bad parameter for <section> '<kind>': ...``, exit 2."""
    return ValueError(f"bad parameter for {section} {kind!r}: {problem}")


def call_with_params(section: str, kind: str, factory: Callable[..., T],
                     *args: Any, **params: Any) -> T:
    """``factory(*args, **params)``; a bad ``<section>.<param>`` is a one-line error.

    An unknown, missing or mistyped keyword raises ``TypeError`` in the
    callee; it is re-raised as :func:`bad_parameter`'s ``ValueError``.
    """
    try:
        return factory(*args, **params)
    except TypeError as error:
        raise bad_parameter(section, kind, error) from None


def pop_count(spec: SectionSpec, params: dict[str, Any], name: str, default: int) -> int:
    """``params.pop(name, default)`` as an integer; fewer than one is a one-line error."""
    count = int(params.pop(name, default))
    if count < 1:
        raise bad_parameter(spec.label, spec.kind,
                            f"{name} must be at least 1, got {count}")
    return count


def check_kind(spec: SectionSpec, kinds: Collection[str]) -> None:
    """``spec.kind`` must be one of the section's ``kinds``."""
    if spec.kind not in kinds:
        raise ValueError(f"unknown {spec.label} kind {spec.kind!r}; expected one "
                         f"of {tuple(kinds)}")


def build_model(section: str, spec: SectionSpec | None,
                models: Mapping[str, Callable[..., T]], kinds: Collection[str],
                seed: int) -> T | None:
    """The live model a ``channel`` / ``mobility`` / ``faults`` spec describes.

    No spec builds ``None``, and so does a kind among ``kinds`` but not
    ``models`` (``"none"``): the section's no-model kind, which takes no
    parameters.  ``seed`` (normally the cell seed) drives the model's private
    RNG stream unless the spec params pin their own ``seed`` — the same
    convention the workload builders use.  A parameter the model's constructor
    rejects — unknown, mistyped (``TypeError``) or out of range, NaN included
    (its own ``ValueError``) — is re-raised as :func:`bad_parameter`'s error.
    """
    if spec is None:
        return None
    check_kind(spec, kinds)
    if spec.kind not in models:
        if spec.params:
            raise ValueError(f"{spec.label} kind {spec.kind!r} accepts no parameters")
        return None
    params = dict(spec.params)
    params.setdefault("seed", int(seed))
    try:
        return models[spec.kind](**params)
    except (TypeError, ValueError) as error:
        raise bad_parameter(section, spec.kind, error) from None

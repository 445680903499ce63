"""Per-layer spans, recorded from the benchmark's side of each layer boundary.

A span wraps one public entry point of one layer (see ``SPANS``).  Spans
nest through a stack: a span's *self* time is its duration minus the part
its child spans cover, so self times partition the repetition and a
layer's share is its self time over the traced repetition's time.  Calling
a span of the same name from inside itself (``ForwarderEncoder.add_packet``
calls ``BatchBuffer.add``; ``gf_matmul`` calls ``ShiftedRows.matmul``) is
transparent: one call, one interval.

Only aggregates are kept — calls, inclusive and self seconds, measured
units, and seconds by calling span — because a repetition enters some
spans a million times.  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from bench.patch import Patches

ROOT = "bench.rep"


def _size(array: Any) -> int:
    return int(array.size)


#: span name -> entry points (dotted name, or (dotted name, unit measure)).
#: A measure maps the call's result to a count: receivers of a frame,
#: whether an insert was innovative, output bytes of a GF product.
SPANS: dict[str, tuple[Any, ...]] = {
    "topology.build": ("repro.scenarios.build.build_topology",),
    "topology.estimate": ("repro.topology.estimation.probe_estimated_topology",),
    "metrics.plan": ("repro.protocols.more.flow.setup_more_flow",
                     "repro.protocols.exor.agent.setup_exor_flow",
                     "repro.protocols.srcr.agent.setup_srcr_flow"),
    "sim.build": ("repro.sim.simulator.Simulator.__init__",),
    "sim.events.run": ("repro.sim.events.EventQueue.run",),
    "sim.mac.trigger": ("repro.sim.mac.CsmaMac.trigger",),
    "sim.medium.complete": (("repro.sim.medium.WirelessMedium.complete", len),),
    "sim.medium.begin": ("repro.sim.medium.WirelessMedium.begin",),
    "sim.medium.sense": ("repro.sim.medium.WirelessMedium.is_busy",
                         "repro.sim.medium.WirelessMedium.busy_until",
                         "repro.sim.medium.WirelessMedium.busy_horizon"),
    **{f"protocols.{layer}.{side}": tuple(
        f"repro.protocols.{layer}.agent.{agent}.{method}" for method in methods)
       for layer, agent in (("more", "MoreAgent"), ("exor", "ExorAgent"),
                            ("srcr", "SrcrAgent"))
       for side, methods in (("rx", ("on_frame_received",)),
                             ("tx", ("has_pending", "on_transmit_opportunity",
                                     "on_frame_sent")))},
    "coding.insert": (("repro.coding.buffer.BatchBuffer.add", bool),
                      ("repro.coding.encoder.ForwarderEncoder.add_packet", bool),
                      ("repro.coding.decoder.BatchDecoder.add_packet", bool)),
    "coding.recode": ("repro.coding.encoder.ForwarderEncoder.next_packet",),
    "coding.encode": ("repro.coding.encoder.SourceEncoder.next_packet",
                      "repro.coding.encoder.SourceEncoder.next_packets"),
    "coding.decode": ("repro.coding.decoder.BatchDecoder.decode",),
    "gf.matmul": (("repro.gf.kernels.gf_matmul", _size),
                  ("repro.gf.kernels.ShiftedRows.matmul", _size)),
    "gf.vecmat": (("repro.gf.kernels.gf_vecmat", _size),
                  ("repro.gf.kernels.ShiftedRows.vecmul", _size)),
    "gf.expand": ("repro.gf.kernels.ShiftedRows.__init__",),
    "scenarios.expand": ("repro.scenarios.spec.ScenarioSpec.expand",
                         "repro.experiments.orchestrator.store.ResultStore.key_for"),
    "scenarios.run_cell": ("repro.scenarios.execute.run_cell",),
    "orchestrator.sweep": ("repro.experiments.orchestrator.engine.run_sweep",),
    "orchestrator.store_save": ("repro.experiments.orchestrator.store.ResultStore.save",),
    "orchestrator.store_load": ("repro.experiments.orchestrator.store.ResultStore.load",),
    "orchestrator.journal": ("repro.experiments.orchestrator.journal.SweepJournal.append",),
}


class Span:
    """Aggregate of every interval recorded under one name."""

    __slots__ = ("name", "layer", "calls", "seconds", "self_seconds", "units", "callers")

    def __init__(self, name: str) -> None:
        self.name = name
        self.layer = name.rsplit(".", 1)[0]
        self.clear()

    def clear(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.units = 0
        self.callers: dict[str, float] = {}

    def to_dict(self) -> dict[str, Any]:
        return {"calls": self.calls, "seconds": self.seconds,
                "self_seconds": self.self_seconds, "units": self.units,
                "seconds_by_caller": dict(self.callers)}


class Tracer:
    """Installs the span wrappers, keeps the aggregates, removes the wrappers."""

    def __init__(self, spans: dict[str, tuple[Any, ...]] | None = None) -> None:
        self._targets = SPANS if spans is None else spans
        self.spans: dict[str, Span] = {ROOT: Span(ROOT)}
        #: Entry points that no longer exist; each costs only its own metrics.
        self.missing: list[str] = []
        self._stack: list[list[Any]] = []
        self._patches = Patches()

    def install(self) -> None:
        for name, entries in self._targets.items():
            span = self.spans.setdefault(name, Span(name))
            for entry in entries:
                dotted, measure = entry if isinstance(entry, tuple) else (entry, None)
                try:
                    self._patches.replace(
                        dotted, lambda original: self._wrap(span, original, measure))
                except LookupError:
                    self.missing.append(dotted)

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, span: Span, function: Callable, measure: Callable | None) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] is span:
                return function(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                span.calls += 1
                span.seconds += elapsed
                span.self_seconds += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    callers = span.callers
                    caller = parent[0].name
                    callers[caller] = callers.get(caller, 0.0) + elapsed
            # Units are counted at a layer's outermost span, so a GF product
            # that delegates to another GF entry point is counted once.
            if measure is not None and (parent is None or parent[0].layer != span.layer):
                span.units += measure(result)
            return result

        return traced

    @contextmanager
    def repetition(self) -> Iterator[None]:
        """The root span: one traced repetition."""
        root = self.spans[ROOT]
        frame = [root, 0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            root.calls += 1
            root.seconds += elapsed
            root.self_seconds += elapsed - frame[1]

    def take(self) -> dict[str, dict[str, Any]]:
        """The aggregates since the last call, by span name; then start afresh."""
        taken = {name: span.to_dict() for name, span in self.spans.items()}
        for span in self.spans.values():
            span.clear()
        return taken


def layer_metrics(spans: dict[str, dict[str, Any]], calib_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, from its span aggregates."""
    total = spans[ROOT]["seconds"]

    def share(name: str) -> float:
        return spans[name]["self_seconds"] / total

    def calls(name: str) -> float:
        return float(spans[name]["calls"])

    def per_call(name: str, field: str, scale: float = 1.0) -> float:
        count = spans[name]["calls"]
        return spans[name][field] * scale / count if count else 0.0

    gf_spans = ("gf.matmul", "gf.vecmat", "gf.expand")
    gf_seconds = sum(spans[name]["self_seconds"] for name in gf_spans)
    gf_bytes = float(sum(spans[name]["units"] for name in gf_spans))
    metrics = {
        "topology.build_share": share("topology.build"),
        "topology.build_calls": calls("topology.build"),
        "topology.estimate_share": share("topology.estimate"),
        "metrics.plan_share": share("metrics.plan"),
        "metrics.plan_calls": calls("metrics.plan"),
        "sim.build_share": share("sim.build"),
        "sim.events.run_self_share": share("sim.events.run"),
        "sim.mac.trigger_calls": calls("sim.mac.trigger"),
        "sim.mac.trigger_share": share("sim.mac.trigger"),
        "sim.medium.complete_calls": calls("sim.medium.complete"),
        "sim.medium.complete_share": share("sim.medium.complete"),
        "sim.medium.complete_us": per_call("sim.medium.complete", "seconds", 1e6),
        "sim.medium.begin_share": share("sim.medium.begin"),
        "sim.medium.sense_share": share("sim.medium.sense"),
        "sim.medium.receivers_per_frame": per_call("sim.medium.complete", "units"),
        "coding.insert_calls": calls("coding.insert"),
        "coding.insert_share": share("coding.insert"),
        "coding.innovative_ratio": per_call("coding.insert", "units"),
        "coding.recode_calls": calls("coding.recode"),
        "coding.recode_share": share("coding.recode"),
        "coding.encode_share": share("coding.encode"),
        "coding.decode_calls": calls("coding.decode"),
        "coding.decode_share": share("coding.decode"),
        "gf.matmul_calls": calls("gf.matmul"),
        "gf.matmul_share": share("gf.matmul"),
        "gf.vecmat_calls": calls("gf.vecmat"),
        "gf.vecmat_share": share("gf.vecmat"),
        "gf.expand_share": share("gf.expand"),
        "gf.out_bytes": gf_bytes,
        "gf.mb_per_cu": gf_bytes / 1e6 / (gf_seconds / calib_seconds) if gf_seconds else 0.0,
        "scenarios.expand_share": share("scenarios.expand"),
        "scenarios.run_cell_share": share("scenarios.run_cell"),
        "scenarios.run_cell_calls": calls("scenarios.run_cell"),
        "orchestrator.overhead_share": share("orchestrator.sweep"),
        "orchestrator.store_save_share": share("orchestrator.store_save"),
        "orchestrator.store_load_share": share("orchestrator.store_load"),
        "orchestrator.journal_share": share("orchestrator.journal"),
        "trace.coverage": 1.0 - share(ROOT),
    }
    for protocol in ("more", "exor", "srcr"):
        metrics[f"protocols.{protocol}.rx_calls"] = calls(f"protocols.{protocol}.rx")
        metrics[f"protocols.{protocol}.rx_share"] = share(f"protocols.{protocol}.rx")
        metrics[f"protocols.{protocol}.tx_share"] = share(f"protocols.{protocol}.tx")
    return metrics

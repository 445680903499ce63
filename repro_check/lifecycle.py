"""EVT101: event-handle lifecycle.

Every ``EventQueue.schedule`` / ``schedule_at`` call returns a cancel
handle, and that handle is an *obligation*: either some teardown path
cancels it, or the event was never meant to be cancellable and should
have been scheduled through the fire-and-forget ``schedule_callback``
variants (which allocate no handle at all — cheaper *and* honest about
intent).  The PR 4 ``_pending_handle`` leak is the canonical violation:
the MAC stored a handle, *cleared* the attribute on one path without
cancelling, and the orphaned event later fired into a recycled frame
state.  Clearing is not cancelling; this rule knows the difference.

For every handle-returning schedule call on a receiver the type-lite
layer resolves to a registered queue class, exactly one of these must
hold:

* the result is **discarded** — rejected: use ``schedule_callback`` /
  ``schedule_callback_at`` (same ``(time, sequence)`` key space, so the
  rewrite is dispatch-identical), or keep the handle;
* the result is stored on an **instance attribute** — some method of
  that class must call ``.cancel()`` on a value the dataflow layer
  traces back to the attribute (alias-aware: ``h = self._pending; if h
  is not None: h.cancel()`` counts);
* the result is bound to a **local** — the function must cancel it or
  let it escape (return it, pass it on, store it);
* the result is **returned or passed directly** — the obligation moves
  to the caller, which this rule checks in its own context.

Receivers the type layer cannot resolve are skipped (never guessed).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro_check.callgraph import (
    CallGraph,
    FunctionInfo,
    get_callgraph,
    walk_unit,
)
from repro_check.dataflow import DataFlow, get_dataflow
from repro_check.framework import (
    AnalysisConfig,
    Finding,
    Project,
    Rule,
    register,
)

#: The handle-returning schedule methods (the ``schedule_callback*``
#: fire-and-forget variants are the sanctioned discard path).
_SCHEDULE_METHODS = frozenset({"schedule", "schedule_at"})


@register
class EventHandleLifecycle(Rule):
    """EVT101: schedule handles are cancelled, escaped, or not created."""

    name = "EVT101"
    description = ("every handle-returning schedule*() call must store a "
                   "handle some teardown path cancels, hand it to its "
                   "caller, or use the schedule_callback fire-and-forget "
                   "variants instead")

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        graph = get_callgraph(project, config)
        flow = get_dataflow(project, config)
        queue_ids = {
            class_id for class_id in (
                graph.class_id_for(path, name)
                for path, name in config.event_queue_classes)
            if class_id is not None}
        if not queue_ids:
            return
        #: (class_id, attr) -> first store site (source, line, method name)
        attr_stores: dict[tuple[str, str], tuple] = {}
        for info in graph.functions.values():
            yield from self._check_function(info, graph, queue_ids,
                                            attr_stores)
        for (class_id, attr), (source, line, _) in sorted(attr_stores.items()):
            if self._class_cancels(graph, flow, class_id, attr):
                continue
            owner = class_id.rpartition(":")[2]
            yield Finding(
                self.name, source.relative, line,
                f"`{owner}.{attr}` stores a schedule handle but no method of "
                f"`{owner}` ever cancels it: clearing the attribute without "
                "`.cancel()` leaks the event (the `_pending_handle` bug "
                "class) — cancel on every teardown path or use "
                "schedule_callback",
            )

    # -- per-function contexts --------------------------------------------- #

    def _is_schedule_call(self, node: ast.AST, info: FunctionInfo,
                          graph: CallGraph, queue_ids: set[str]) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULE_METHODS
                and bool(graph.expr_types(node.func.value, info) & queue_ids))

    def _check_function(self, info: FunctionInfo, graph: CallGraph,
                        queue_ids: set[str],
                        attr_stores: dict) -> Iterator[Finding]:
        def is_sched(node: ast.AST) -> bool:
            return self._is_schedule_call(node, info, graph, queue_ids)

        locals_to_check: list[tuple[str, ast.Call]] = []
        # Shallow walk: nested defs are their own FunctionInfo units, so
        # descending into them here would double-report every site.
        for node in walk_unit(info.node.body):
            if isinstance(node, ast.Expr) and is_sched(node.value):
                call = node.value
                assert isinstance(call, ast.Call)
                assert isinstance(call.func, ast.Attribute)
                method = call.func.attr
                variant = ("schedule_callback_at" if method == "schedule_at"
                           else "schedule_callback")
                yield Finding(
                    self.name, info.source.relative, node.lineno,
                    f"the handle returned by `.{method}()` is "
                    f"discarded: use `.{variant}()` for fire-and-forget "
                    "events (dispatch-identical, no handle allocated), or "
                    "store the handle and cancel it on teardown",
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None or not is_sched(value):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        locals_to_check.append((target.id, value))
                    elif isinstance(target, ast.Attribute):
                        # Untyped receivers resolve to no owner: the
                        # obligation is unprovable there and stays unflagged.
                        for owner in graph.expr_types(target.value, info):
                            attr_stores.setdefault(
                                (owner, target.attr),
                                (info.source, node.lineno, info.qualname))
        for name, call in locals_to_check:
            if not self._local_discharged(info, name):
                yield Finding(
                    self.name, info.source.relative, call.lineno,
                    f"the schedule handle bound to `{name}` is neither "
                    "cancelled nor escapes this function: the cancellation "
                    "obligation is silently dropped — cancel it, hand it "
                    "out, or use schedule_callback",
                )

    def _local_discharged(self, info: FunctionInfo, name: str) -> bool:
        """True when a handle-bearing local is cancelled or escapes."""
        aliases = {name}
        # Flow-insensitive alias closure over name-to-name assignments.
        for _ in range(3):
            grew = False
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id in aliases:
                    for target in node.targets:
                        if isinstance(target, ast.Name) \
                                and target.id not in aliases:
                            aliases.add(target.id)
                            grew = True
            if not grew:
                break
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "cancel" \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id in aliases:
                    return True  # cancelled
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if isinstance(arg, ast.Name) and arg.id in aliases:
                        return True  # escapes as an argument
            elif isinstance(node, ast.Return) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                return True  # escapes to the caller
            elif isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        return True  # escapes into an object/container
            elif isinstance(node, (ast.Tuple, ast.List)) \
                    and isinstance(node.ctx, ast.Load):
                for element in node.elts:
                    if isinstance(element, ast.Name) and element.id in aliases:
                        return True  # collected; lifecycle continues elsewhere
        return False

    # -- class-level cancel discipline ------------------------------------- #

    def _class_cancels(self, graph: CallGraph, flow: DataFlow,
                       class_id: str, attr: str) -> bool:
        """Does any method cancel a value traceable to ``self.<attr>``?"""
        cls = graph.classes.get(class_id)
        if cls is None:
            return False
        wanted = ("attr", class_id, attr)
        for method_id in cls.methods.values():
            method = graph.functions[method_id]
            for node in ast.walk(method.node):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "cancel"):
                    continue
                receiver_locations = flow.expr_locations(node.func.value,
                                                         method)
                if wanted in receiver_locations:
                    return True
                if wanted in flow.origins(receiver_locations):
                    return True
        return False

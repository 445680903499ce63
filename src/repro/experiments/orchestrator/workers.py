"""Persistent worker processes: warm interpreters for the sweep engine.

The PR 1 runner forked a fresh ``multiprocessing.Pool`` for every sweep, so
every ``run_sweep`` call re-paid process startup and (under spawn) the
numpy + GF-table import bill.  Here workers are long-lived:

* each :class:`Worker` is one process with its **own task queue** (so the
  engine always knows exactly which cells a dead worker was holding) and a
  **shared result queue** streaming one message per finished cell;
* cells are dispatched in **batches** (one queue message carries many
  cells) to amortise IPC, while results still stream back per cell so
  progress, the store and the journal update while the batch runs;
* a pool outlives ``run_sweep``: :func:`shared_pool` hands the same
  :class:`WorkerPool` to successive sweeps in one process (the CLI, the
  figure Makefile target, the benchmark harness), so only the first sweep
  pays worker startup;
* a worker that crashes or wedges is **replaced**, not mourned — the
  engine requeues its unfinished cells elsewhere (see
  :func:`repro.experiments.orchestrator.engine.run_sweep` for the
  retry/timeout policy).

Workers are daemons, which stops them when the orchestrator exits normally.
An orchestrator killed with SIGKILL runs no exit handler, so every worker
also watches for it: while it waits for a task, and between the cells of a
batch, it checks that its parent is still the process that started the pool
and exits when it is not — at most :data:`ORPHAN_POLL_SECONDS` after the
kill if idle, after the cell in hand otherwise.  That is what the resume
path wants (the store holds every completed cell; nothing else survives,
nothing else needs to), and it frees the meshes the worker kept
(:func:`repro.scenarios.build.build_topology`).

:class:`WorkerFaultSpec` is deliberate test instrumentation — the retry/timeout
tests inject a crash or a hang at a known cell position without patching
worker internals.  It is inert unless explicitly passed to the pool.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import multiprocessing.context
import os
import time
from dataclasses import dataclass
from queue import Empty
from typing import Any

#: Queue message tags streamed back by workers, one per cell (plus ``idle``
#: once per finished batch so the engine can dispatch the next one).
MSG_DONE = "done"
MSG_ERROR = "error"
MSG_INVALID = "invalid"
MSG_IDLE = "idle"

#: How often an idle worker checks that the process that started it is alive.
ORPHAN_POLL_SECONDS = 1.0


@dataclass(frozen=True)
class WorkerFaultSpec:
    """Test-only fault injection: misbehave at selected cell positions.

    ``kind`` is ``"crash"`` (``os._exit`` before running the cell) or
    ``"hang"`` (sleep far past any sane timeout).  ``marker`` is a file
    path used as cross-process state: when ``once`` is true the fault
    fires only while the marker does not exist (creating it), so the
    retry of the same cell succeeds — the recovery path the tests pin.
    With ``once=False`` the fault fires every time, which is how the
    retries-exhausted path is exercised.
    """

    kind: str
    positions: tuple[int, ...]
    marker: str
    once: bool = True

    def fire(self, position: int) -> None:
        if position not in self.positions:
            return
        if self.once:
            try:
                with open(self.marker, "x", encoding="utf-8"):
                    pass
            except FileExistsError:
                return  # already fired once; behave normally now
        if self.kind == "hang":
            time.sleep(3600.0)
        else:
            os._exit(3)


def _worker_main(task_queue: Any, result_queue: Any,
                 fault: WorkerFaultSpec | None, pool_pid: int) -> None:
    """One worker's lifetime: import once, then run cell batches until told
    to stop or until the pool's process (``pool_pid``) is gone."""
    import traceback

    from repro.scenarios.execute import run_cell_dict

    while os.getppid() == pool_pid:
        try:
            message = task_queue.get(timeout=ORPHAN_POLL_SECONDS)
        except Empty:
            continue
        if message is None:
            return
        task_id, items = message
        for position, cell_dict in items:
            if os.getppid() != pool_pid:
                break
            if fault is not None:
                fault.fire(position)
            try:
                result = run_cell_dict(cell_dict)
            except ValueError as error:
                # A bad spec fails the same way on every attempt: report it
                # as the serial path would raise it, not as a crash to retry.
                result_queue.put((MSG_INVALID, task_id, position, str(error)))
            except Exception:  # noqa: BLE001 - shipped to the engine verbatim
                result_queue.put((MSG_ERROR, task_id, position,
                                  traceback.format_exc()))
            else:
                result_queue.put((MSG_DONE, task_id, position, result))
        result_queue.put((MSG_IDLE, task_id, None, None))
    # The pool's process is gone and nobody reads the results any more: do
    # not wait to flush them on the way out.
    result_queue.cancel_join_thread()


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork when available (warm parent imports for free), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class Worker:
    """One persistent worker process plus its private task queue."""

    def __init__(self, context: multiprocessing.context.BaseContext,
                 result_queue: Any, fault: WorkerFaultSpec | None) -> None:
        self._context = context
        self._result_queue = result_queue
        self._fault = fault
        self.task_queue = context.Queue()
        self.process = context.Process(
            target=_worker_main,
            args=(self.task_queue, result_queue, fault, os.getpid()), daemon=True)
        self.process.start()

    def submit(self, task_id: int, items: list[tuple[int, dict]]) -> None:
        self.task_queue.put((task_id, items))

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, timeout: float = 2.0) -> None:
        """Ask nicely, then make sure."""
        if self.process.is_alive():
            try:
                self.task_queue.put(None)
            except (ValueError, OSError):
                pass
            self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)
        self.task_queue.close()

    def kill(self) -> None:
        """Immediate removal (timeout/crash replacement path)."""
        if self.process.is_alive():
            self.process.kill()
            self.process.join(2.0)
        self.task_queue.close()


class WorkerPool:
    """A fixed-size set of persistent workers sharing one result queue."""

    def __init__(self, workers: int, fault: WorkerFaultSpec | None = None) -> None:
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        self.size = workers
        self.fault = fault
        self._context = _pool_context()
        self.result_queue = self._context.Queue()
        self.workers: list[Worker] = [
            Worker(self._context, self.result_queue, fault)
            for _ in range(workers)
        ]
        self.closed = False
        self._task_counter = itertools.count()

    def next_task_id(self) -> int:
        """Task ids unique for the pool's whole lifetime, not per sweep.

        A sweep's engine loop exits as soon as its last cell lands, which
        can leave that sweep's final ``idle`` messages sitting in the shared
        result queue; unique ids let the next sweep recognise and drop them
        instead of confusing them with its own tasks.
        """
        return next(self._task_counter)

    def replace(self, index: int) -> Worker:
        """Kill worker ``index`` and put a fresh one (new queue) in its slot.

        The dead worker's task queue is abandoned with it: the engine owns
        the record of which cells were outstanding and requeues them, so
        nothing is lost and nothing is double-run.
        """
        self.workers[index].kill()
        replacement = Worker(self._context, self.result_queue, self.fault)
        self.workers[index] = replacement
        return replacement

    def shutdown(self) -> None:
        if self.closed:
            return
        self.closed = True
        for worker in self.workers:
            worker.stop()
        self.result_queue.close()


#: The shared pools, keyed by worker count (faulty pools are never shared).
_SHARED: dict[int, WorkerPool] = {}


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide persistent pool for ``workers`` — create or reuse.

    Reuse is what amortises fork + import + GF-table setup across
    successive ``run_sweep`` calls; a pool whose workers all died (e.g.
    a fault-injected test tore them down) is rebuilt transparently.
    """
    pool = _SHARED.get(workers)
    if pool is not None and not pool.closed and any(w.alive() for w in pool.workers):
        return pool
    if pool is not None:
        pool.shutdown()
    pool = WorkerPool(workers)
    _SHARED[workers] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Stop every shared pool (atexit; also handy between benchmark stages)."""
    for pool in list(_SHARED.values()):
        pool.shutdown()
    _SHARED.clear()


atexit.register(shutdown_shared_pools)

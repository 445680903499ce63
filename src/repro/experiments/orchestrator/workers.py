"""Worker processes for one pooled sweep.

:func:`repro.experiments.orchestrator.engine.run_sweep` starts a
:class:`WorkerPool` when it has cells to run on more than one worker, and
stops it before it returns, on error too; no pool serves two sweeps.

* each :class:`Worker` is one process with its **own task queue** (so the
  engine always knows which cell a dead worker was holding) and a **shared
  result queue** carrying one message per finished cell;
* a worker is handed **one cell at a time**, so a cell goes to whichever
  worker is free, and progress, the store and the journal update as each
  cell lands;
* a worker that crashes or wedges is **replaced**, not mourned — the
  engine requeues the cell it held elsewhere (see
  :func:`repro.experiments.orchestrator.engine.run_sweep` for the
  retry/timeout policy).

Starting a pool of two to four workers costs tens of milliseconds under
``fork``, and stopping it a few, against cells that take seconds to
minutes.  Without ``fork`` (spawn-only platforms) each sweep's workers pay
their imports again.

A sweep kills its workers when it ends.  An orchestrator killed with
SIGKILL cannot, so every worker also watches for it: while it waits for a
task it checks that its parent is still the process that started the
pool, and exits when it is not — at
most :data:`ORPHAN_POLL_SECONDS` after the kill if idle, after the cell in
hand otherwise.  That is what the resume path wants (the store holds every
completed cell; nothing else survives, nothing else needs to), and it frees
the meshes the worker kept (:func:`repro.scenarios.build.build_topology`).

:class:`WorkerFaultSpec` is deliberate test instrumentation — the retry/timeout
tests inject a crash or a hang at a known cell position without patching
worker internals.  It is inert unless explicitly passed to ``run_sweep``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # loaded when a pool starts: a serial sweep never needs it
    import multiprocessing.context

#: Queue message tags streamed back by workers, one per cell.
MSG_DONE = "done"
MSG_ERROR = "error"
MSG_INVALID = "invalid"

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
    """One worker's lifetime: import once, then run one cell per message
    until killed or until the pool's process (``pool_pid``) is gone."""
    import traceback
    from queue import Empty

    from repro.scenarios.execute import run_cell_dict

    while os.getppid() == pool_pid:
        try:
            message = task_queue.get(timeout=ORPHAN_POLL_SECONDS)
        except Empty:
            continue
        task_id, position, cell_dict = message
        if fault is not None:
            fault.fire(position)
        try:
            result = run_cell_dict(cell_dict)
        except ValueError as error:
            # A bad spec fails the same way on every attempt: report it
            # as the serial path would raise it, not as a crash to retry.
            result_queue.put((MSG_INVALID, task_id, position, str(error)))
        except Exception:  # noqa: BLE001 - shipped to the engine verbatim
            result_queue.put((MSG_ERROR, task_id, position, traceback.format_exc()))
        else:
            result_queue.put((MSG_DONE, task_id, position, result))
    # The pool's process is gone and nobody reads the results any more: do
    # not wait to flush them on the way out.
    result_queue.cancel_join_thread()


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork when available (warm parent imports for free), spawn otherwise."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class Worker:
    """One worker process plus its private task queue."""

    def __init__(self, context: multiprocessing.context.BaseContext,
                 result_queue: Any, fault: WorkerFaultSpec | None) -> None:
        self.task_queue = context.Queue()
        self.process = context.Process(
            target=_worker_main,
            args=(self.task_queue, result_queue, fault, os.getpid()), daemon=True)
        self.process.start()

    def submit(self, task_id: int, position: int, cell_dict: dict) -> None:
        self.task_queue.put((task_id, position, cell_dict))

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Immediate removal: replacement after a crash or timeout, shutdown."""
        if self.process.is_alive():
            self.process.kill()
            self.process.join(2.0)
        self.task_queue.close()


class WorkerPool:
    """A fixed-size set of workers sharing one result queue, for one sweep."""

    def __init__(self, workers: int, fault: WorkerFaultSpec | None = None) -> None:
        self._context = _pool_context()
        self._fault = fault
        self.result_queue = self._context.Queue()
        self.workers = [Worker(self._context, self.result_queue, fault)
                        for _ in range(workers)]

    def replace(self, index: int) -> None:
        """Kill worker ``index`` and put a fresh one (new queue) in its slot.

        The dead worker's task queue is abandoned with it: the engine owns
        the record of which cell it held and requeues it, so nothing is
        lost and nothing is double-run.
        """
        self.workers[index].kill()
        self.workers[index] = Worker(self._context, self.result_queue, self._fault)

    def shutdown(self) -> None:
        """Kill every worker.  After a finished sweep they are all idle; after
        a failed one the cells still in hand are not wanted, so nothing is
        gained by waiting for them."""
        for worker in self.workers:
            worker.kill()
        self.result_queue.close()

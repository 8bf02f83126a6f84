"""The multi-process worker plane: one compute process per worker slot.

The thread plane's workers contend on the GIL, so in-core compute-bound
workloads plateau regardless of worker count.  With
``DOoCEngine(worker_plane="process")`` every worker-filter instance owns
a long-lived child process; the filter thread stays the protocol
endpoint (tickets, segment leases, counters, failure reports) and only
the *compute* crosses the process boundary.

What crosses is an **envelope** — the task function plus
:class:`~repro.core.shm.BlockHandle` descriptors for every granted read
and write span — and what comes back is a small status dict.  The block
bytes themselves never travel: children map the named shared-memory
segments and compute on read-only views of the very buffers the parent
sealed, and call the body through the function the thread plane calls
(:func:`repro.core.task.run_task_body`), so what a body may do to its
operands and what ``bytes_copied`` counts are the same on both planes by
construction (gather/scatter for multi-block operands, nothing else).

Children are forked *before* the run's filter threads start (fork and
threads don't mix; other engines' parked graphs may be waiting, but a
child only runs the task bodies it is sent); a worker that dies mid-run
is respawned with the ``spawn`` start method, which is thread-safe at the
cost of a module re-import.  Crashes surface as
:class:`WorkerProcessCrash` and flow into the engine's existing
task-retry machinery.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
from typing import Any

from repro.core.errors import DoocError
from repro.core.opcache import (OPERAND_CONTEXT_KEY, DecodedOperandCache,
                                OperandContext)
from repro.core import shm as shm_mod
from repro.core.task import run_task_body

__all__ = ["ProcessWorkerPool", "WorkerProcessCrash", "EnvelopeUnpicklable"]


class WorkerProcessCrash(DoocError):
    """A worker process died while a task was in flight."""


class EnvelopeUnpicklable(DoocError):
    """The task cannot be shipped to a process (closure, local def...)."""


def _execute_envelope(envelope: dict, cache: DecodedOperandCache | None) -> dict:
    """Run one task envelope in the worker process: map the handles,
    then the same :func:`~repro.core.task.run_task_body` the thread
    plane calls on its tickets' views."""
    inputs = {array: [shm_mod.attach_view(h) for h in handles]
              for array, handles in envelope["inputs"].items()}
    outputs = {array: [shm_mod.attach_view(h, writable=True)
                       for h, _lo, _hi in spec["parts"]]
               for array, spec in envelope["outputs"].items()}
    context = None
    hits0 = misses0 = 0
    if cache is not None:
        hits0, misses0 = cache.hits, cache.misses
        context = OperandContext(cache, envelope["generations"])
    reply = {"ok": True, "bytes_copied": run_task_body(
        envelope["fn"], envelope["meta"], inputs, outputs, context)}
    if cache is not None:
        reply["opcache_hits"] = cache.hits - hits0
        reply["opcache_misses"] = cache.misses - misses0
    return reply


def _child_main(conn, opcache_bytes: int) -> None:
    """Worker-process loop: recv envelope, compute, reply.

    Each process owns a private :class:`DecodedOperandCache` keyed on the
    same ``(array, seal-generation)`` scheme as the parent's, so a
    reclaim parent-side silently invalidates here too — new grants carry
    a bumped generation and simply miss.
    """
    cache = (DecodedOperandCache(opcache_bytes)
             if opcache_bytes > 0 else None)
    try:
        while True:
            try:
                payload = conn.recv_bytes()
            except (EOFError, OSError):
                break
            if not payload:  # shutdown sentinel
                break
            envelope = pickle.loads(payload)
            try:
                reply = _execute_envelope(envelope, cache)
            except BaseException as exc:  # noqa: BLE001 - report, don't die
                reply = {"ok": False,
                         "error": f"{type(exc).__name__}: {exc}"}
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        shm_mod.detach_all()
        conn.close()


class _Client:
    """Parent-side handle of one worker process (pipe + Process)."""

    __slots__ = ("conn", "proc")

    def __init__(self, ctx, opcache_bytes: int):
        self.conn, child_conn = mp.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_child_main, args=(child_conn, opcache_bytes),
            daemon=True, name="dooc-worker")
        self.proc.start()
        child_conn.close()


class ProcessWorkerPool:
    """Per-run fleet of worker processes, one per (node, instance) slot.

    Built and started by ``DOoCEngine.run`` *before* the threaded
    runtime spins up (so the initial ``fork`` happens before any thread
    of this run exists) and shut down in the run's ``finally``.
    """

    def __init__(self, n_nodes: int, workers_per_node: int,
                 opcache_bytes: int = 0, start_method: str | None = None):
        self.n_nodes = int(n_nodes)
        self.workers_per_node = int(workers_per_node)
        self.opcache_bytes = int(opcache_bytes)
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(start_method)
        self._clients: dict[tuple[int, int], _Client] = {}
        self.crashes = 0
        self.respawns = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for node in range(self.n_nodes):
            for instance in range(self.workers_per_node):
                self._clients[(node, instance)] = _Client(
                    self._ctx, self.opcache_bytes)

    def shutdown(self, timeout: float = 5.0) -> None:
        for client in self._clients.values():
            try:
                client.conn.send_bytes(b"")
            except (BrokenPipeError, OSError):
                pass
        for client in self._clients.values():
            client.proc.join(timeout=timeout)
            if client.proc.is_alive():  # pragma: no cover - stuck worker
                client.proc.terminate()
                client.proc.join(timeout=timeout)
            client.conn.close()
        self._clients.clear()

    def alive_count(self) -> int:
        return sum(1 for c in self._clients.values() if c.proc.is_alive())

    # -- dispatch ------------------------------------------------------------

    def run_envelope(self, node: int, instance: int, envelope: dict) -> dict:
        """Ship an envelope to the slot's process and await its reply.

        Raises :class:`EnvelopeUnpicklable` when the task can't cross a
        process boundary (caller falls back to inline execution) and
        :class:`WorkerProcessCrash` when the process dies mid-task (the
        slot is respawned first, so the task's retry finds a live
        worker).
        """
        key = (node % self.n_nodes, instance % self.workers_per_node)
        client = self._clients[key]
        try:
            payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise EnvelopeUnpicklable(
                f"task cannot be dispatched to a worker process: {exc}"
            ) from exc
        try:
            client.conn.send_bytes(payload)
            return self._recv_reply(client)
        except WorkerProcessCrash:
            self._respawn(key, client)
            raise
        except (BrokenPipeError, OSError) as exc:
            self._respawn(key, client)
            raise WorkerProcessCrash(
                f"worker process for slot {key} died: {exc}") from exc

    def _recv_reply(self, client: _Client) -> dict:
        """Poll for the reply, watching for the process dying under us.

        A plain blocking ``recv`` can hang forever after a SIGKILL when
        a sibling (forked later) still holds the pipe's write end open —
        poll + liveness check sidesteps pipe-fd inheritance entirely.
        """
        while True:
            if client.conn.poll(0.05):
                try:
                    return client.conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerProcessCrash(
                        "worker process closed its pipe mid-task") from exc
            if not client.proc.is_alive():
                if client.conn.poll(0):
                    return client.conn.recv()
                raise WorkerProcessCrash(
                    f"worker process exited (code {client.proc.exitcode}) "
                    "with a task in flight")

    def _respawn(self, key: tuple[int, int], dead: _Client) -> None:
        """Replace a dead slot; ``spawn`` keeps a mid-run fork thread-safe."""
        self.crashes += 1
        dead.proc.join(timeout=1.0)
        try:
            dead.conn.close()
        except OSError:  # pragma: no cover
            pass
        respawn_ctx = mp.get_context("spawn")
        self._clients[key] = _Client(respawn_ctx, self.opcache_bytes)
        self.respawns += 1


def build_envelope(fn: Any, meta: dict,
                   input_handles: dict[str, list],
                   output_specs: dict[str, dict],
                   generations: dict[str, tuple[int, ...]]) -> dict:
    """Assemble the cross-process task description (parent side)."""
    meta = {k: v for k, v in meta.items() if k != OPERAND_CONTEXT_KEY}
    return {
        "fn": fn,
        "meta": meta,
        "inputs": input_handles,
        "outputs": output_specs,
        "generations": generations,
    }

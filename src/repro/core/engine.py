"""The threaded out-of-core execution engine.

``DOoCEngine`` runs a :class:`Program` — global arrays plus tasks declaring
whole arrays as inputs/outputs — on an in-process "cluster" of logical
nodes.  The engine builds the paper's architecture (Fig. 2) as a DataCutter
layout:

* one **storage filter** per node owning a :class:`~repro.core.storage.LocalStore`
  over a per-node scratch directory, with complete peer-to-peer links to
  all other storage filters (random-peer directory lookups + block fetches);
* one or more **I/O filters** per node, so filesystem interaction is fully
  asynchronous;
* a **local scheduler filter** per node driving
  :class:`~repro.core.local_scheduler.LocalSchedulerCore` (splitting,
  data-aware reordering, prefetching);
* replicated **worker filters** per node executing task bodies on NumPy
  views granted by the storage layer;
* one **global scheduler filter** walking the derived task DAG and
  dispatching ready tasks to the node chosen by the affinity heuristic.

Nodes are threads sharing one address space; "remote" transfers are
real messages through the peer protocol (the payload copy is genuine), so
every protocol path of the paper executes, just without a physical wire.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from repro.core.array import ArrayDesc
from repro.core.dag import TaskDAG
from repro.core.directory import DirectoryClient, LookupFailed
from repro.core.cancel import CancelToken
from repro.core.errors import (
    DoocError,
    IOFailedError,
    NodeLostError,
    RunCancelled,
    SchedulingError,
    StallError,
    StorageError,
    TaskFailedError,
)
from repro.core.global_scheduler import GlobalScheduler, failover_node
from repro.core.interval import (
    Interval,
    Permission,
    intervals_for_range,
    whole_array,
)
from repro.core.codecs import resolve_codec
from repro.core.iofilter import (
    IOFilter,
    backing_identity,
    block_buffer,
    read_block,
    write_array,
)
from repro.core.local_scheduler import LocalSchedulerCore
from repro.core.opcache import (
    OPERAND_CONTEXT_KEY,
    DecodedOperandCache,
    OperandContext,
)
from repro.core.program import Program
from repro.core.procplane import (
    EnvelopeUnpicklable,
    ProcessWorkerPool,
    WorkerProcessCrash,
    build_envelope,
)
from repro.core.session import EngineSession, FileBacking
from repro.core.shm import SegmentLeakError, SegmentPool
from repro.core.storage import Effect, LocalStore, Ticket
from repro.core.task import TaskSpec
from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
from repro.datacutter.errors import FilterError, StreamClosedError
from repro.datacutter.filters import Filter, FilterContext
from repro.datacutter.layout import DistributionPolicy, Layout
from repro.datacutter.runtime import ThreadedRuntime
from repro.faults import FaultInjector, FaultPlan, InjectedTaskCrash, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs import (
    Diagnosis,
    StallWatchdog,
    TraceEvent,
    Tracer,
    export_chrome_trace,
    save_events_jsonl,
)
from repro.recovery.lineage import LineageLog, plan_reconstruction
from repro.recovery.membership import (
    DEAD,
    SUSPECT,
    MembershipConfig,
    MembershipTracker,
)
from repro.util.rng import RngTree

__all__ = ["Program", "DOoCEngine", "RunReport"]


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


class _StorageFilter(Filter):
    """Per-node storage service: the event loop around LocalStore.

    Besides the fault-free protocol, this filter owns the node's peer-fault
    recovery: unanswered fetches and owner lookups are retransmitted after
    ``RETRANSMIT_S`` (a lost message must not strand a read waiter), and
    exhausted I/O retries arriving as ``io_error`` replies are turned into
    fail-fast ticket denials instead of stalls.  All of the recovery
    machinery is dormant — no clock reads, no timed waits — while the
    pending sets are empty, so fault-free runs pay nothing for it.
    """

    inputs = ("req", "io_done", "peer_in")

    #: read_any timeout while recovery work (delayed sends, unanswered
    #: fetches/lookups) is pending; the read blocks indefinitely otherwise
    RETRY_POLL_S = 0.05
    #: seconds before an unanswered fetch or lookup is retransmitted
    RETRANSMIT_S = 0.25

    def __init__(self, node: int, n_nodes: int, store: LocalStore,
                 directory: DirectoryClient, descs: dict[str, ArrayDesc],
                 tracer: Tracer | None = None,
                 injector: FaultInjector | None = None):
        self.node = node
        self.n_nodes = n_nodes
        self.store = store
        self.directory = directory
        self.descs = descs
        self.tracer = tracer or Tracer(enabled=False)
        self.injector = injector
        self.outputs = ("rep_workers", "rep_lsched", "io_cmd") + tuple(
            f"peer_out_{j}" for j in range(n_nodes) if j != node
        )
        self._outstanding_io = 0
        self._draining = False
        self._io_closed = False
        #: set by the "die" op (injected node loss): the filter keeps its
        #: threads' streams flowing but does no protocol work — a corpse
        #: must exit orderly, never crash the shared runtime
        self._dead = False
        # array -> (home, on_disk, recover) of rehomes blocked on a pin
        self._rehome_pending: dict[str, tuple[int, bool, bool]] = {}
        # array -> blocks awaiting owner resolution
        self._awaiting_owner: dict[str, list[int]] = {}
        # arrays whose GC delete raced an in-flight pin; retried on release
        self._gc_pending: set[str] = set()
        # (op, array, block) -> tracer start time of the in-flight transfer
        self._io_started: dict[tuple[str, str, int], float] = {}
        self._last_queue_depth = 0
        # arrays with a prefetch declined since the last map reply
        self._declined: set[str] = set()
        # injected-delay holding pen: (due monotonic time, peer, payload)
        self._delayed: list[tuple[float, int, dict]] = []
        # (array, block) -> (retransmit deadline, owner) of in-flight fetches
        self._fetch_pending: dict[tuple[str, int], tuple[float, int]] = {}
        # array -> (retransmit deadline, probed peer) of in-flight lookups
        self._lookup_pending: dict[str, tuple[float, int]] = {}

    # -- helpers --------------------------------------------------------------

    def _peer_send(self, ctx: FilterContext, peer: int, payload: dict) -> None:
        try:
            ctx.write(f"peer_out_{peer}", DataBuffer(payload))
        except StreamClosedError:
            if not self._draining:
                raise  # only tolerable while winding down

    def _peer_write(self, ctx: FilterContext, peer: int, payload: dict) -> None:
        if peer in self.directory.evicted:
            return  # the peer is a declared corpse; nothing to say to it
        if self.injector is not None and not self._draining:
            fate = self.injector.peer_fault(
                peer, payload["op"], payload.get("array"),
                payload.get("block", -1))
            if fate is not None:
                kind, delay_s = fate
                if kind == "drop":
                    return
                self._delayed.append(
                    (time.monotonic() + delay_s, peer, payload))
                return
        self._peer_send(ctx, peer, payload)

    def _reply(self, ctx: FilterContext, tag, payload: dict) -> None:
        kind = tag[0]
        if kind == "lsched":
            ctx.write("rep_lsched", DataBuffer(payload))
        elif kind == "peer":
            ticket: Ticket = payload["ticket"]
            iv = ticket.interval
            # Zero-copy serve: the granted view is read-only and the block
            # is sealed (write-once), so the peer may share the memory; it
            # stays alive through numpy's base reference even if this node
            # reclaims the buffer afterwards.
            self._peer_write(ctx, tag[1], {
                "op": "blockdata",
                "array": iv.array,
                "block": iv.block,
                "data": np.asarray(ticket.data),
            })
            # Served: release our local pin immediately.
            self._execute(ctx, self.store.release(ticket))
        else:  # pragma: no cover - defensive
            raise StorageError(f"unroutable grant tag {tag!r}")

    @staticmethod
    def _worker_reply(replies: dict[int, dict], instance: int) -> dict:
        """The one ``grants`` reply ``instance`` gets from this call."""
        return replies.setdefault(
            instance, {"op": "grants", "tickets": [], "errors": []})

    def _execute(self, ctx: FilterContext, effects: list[Effect],
                 replies: dict[int, dict] | None = None) -> None:
        """Carry out ``effects``.  What they grant or deny one worker
        leaves as one message (``replies``: worker instance -> message; a
        caller that already has something to tell a worker seeds it)."""
        if replies is None:
            replies = {}
        for e in effects:
            if e.kind in ("load", "spill") and self._io_closed:
                # A release that raced the drain (worker and scheduler
                # streams merge unordered on `req`) pumped out fresh I/O
                # after the I/O filters were let go.  Nobody is waiting on
                # it — the DAG is complete — so drop it instead of writing
                # on the closed command stream.
                continue
            if e.kind == "load":
                self._outstanding_io += 1
                self._io_started[("load", e.array, e.block)] = self.tracer.now()
                ctx.write("io_cmd", DataBuffer(
                    {"op": "load", "desc": self.descs[e.array],
                     "block": e.block, "segment": e.segment}))
            elif e.kind == "spill":
                self._outstanding_io += 1
                self._io_started[("spill", e.array, e.block)] = self.tracer.now()
                ctx.write("io_cmd", DataBuffer(
                    {"op": "store", "desc": self.descs[e.array], "block": e.block,
                     "data": e.data}))
            elif e.kind == "drop":
                # Memory already reclaimed by the store; tell the local
                # scheduler, which may be blocked waiting for headroom or
                # counting on this block being resident.
                self.tracer.instant(self.node, "storage", "storage", "drop",
                                    array=e.array, block=e.block)
                if not self._draining:
                    ctx.write("rep_lsched", DataBuffer(
                        {"op": "dropped", "array": e.array}))
            elif e.kind == "fetch_remote":
                self._io_started[("fetch", e.array, e.block)] = self.tracer.now()
                self._start_fetch(ctx, e.array, e.block)
            elif e.kind in ("grant_read", "grant_write"):
                assert e.ticket is not None
                tag = e.ticket.tag
                if tag[0] == "worker":
                    self._worker_reply(replies, tag[1])["tickets"].append(
                        e.ticket)
                else:
                    self._reply(ctx, tag, {"op": "grant", "ticket": e.ticket})
            elif e.kind == "deny":
                assert e.ticket is not None
                tag = e.ticket.tag
                iv = e.ticket.interval
                self.tracer.instant(self.node, "storage", "storage", "deny",
                                    array=iv.array, block=iv.block,
                                    error=e.error)
                if tag[0] == "peer":
                    self._peer_write(ctx, tag[1], {
                        "op": "fetch_failed", "array": iv.array,
                        "block": iv.block, "error": e.error})
                elif tag[0] == "worker":
                    self._worker_reply(replies, tag[1])["errors"].append(
                        {"array": iv.array, "block": iv.block,
                         "error": e.error})
                else:  # pragma: no cover - defensive
                    raise StorageError(f"unroutable deny tag {tag!r}")
            else:  # pragma: no cover - defensive
                raise StorageError(f"unknown effect {e.kind!r}")
        for instance, payload in replies.items():
            ctx.write("rep_workers", DataBuffer(payload, {"__dest__": instance}))
        depth = self.store.alloc_queue_depth
        if depth != self._last_queue_depth:
            self._last_queue_depth = depth
            self.tracer.counter(self.node, "storage", "storage",
                                "alloc_queue", depth)

    def _end_io_span(self, name: str, key: tuple[str, str, int],
                     array: str, block: int) -> None:
        start = self._io_started.pop(key, None)
        if start is not None:
            self.tracer.complete(self.node, "storage", "storage", name,
                                 start, array=array, block=block)

    def _start_fetch(self, ctx: FilterContext, array: str, block: int) -> None:
        # The global map is partitioned, not replicated: this node does not
        # know where a remote array lives and must resolve the owner through
        # the random-peer walk (cached after the first resolution).
        cached = self.directory.start_lookup(array, 0)
        if cached is not None:
            self._send_fetch(ctx, cached, array, block)
            return
        pending = self._awaiting_owner.setdefault(array, [])
        pending.append(block)
        if len(pending) == 1:  # first block starts the walk
            self._probe_next(ctx, array)

    def _send_fetch(self, ctx: FilterContext, owner: int, array: str,
                    block: int) -> None:
        self._fetch_pending[(array, block)] = (
            time.monotonic() + self.RETRANSMIT_S, owner)
        self._peer_write(ctx, owner, {
            "op": "fetch", "array": array, "block": block, "from": self.node})

    def _probe_next(self, ctx: FilterContext, array: str) -> None:
        """Advance (or restart) the owner walk for ``array``."""
        try:
            peer = self.directory.next_probe(array, 0)
        except LookupFailed:
            # Every peer answered "miss": possible transiently while a
            # reroute's rehome propagates, or after message loss confused
            # the walk.  Restart the walk instead of giving up — a genuine
            # orphan shows up as lookup_restarts climbing in the diagnosis.
            self.store.metrics.inc("lookup_restarts")
            self.tracer.instant(self.node, "storage", "storage",
                                "lookup_restart", array=array)
            self.directory.start_lookup(array, 0)
            peer = self.directory.next_probe(array, 0)
        self._lookup_pending[array] = (
            time.monotonic() + self.RETRANSMIT_S, peer)
        self._peer_write(ctx, peer, {
            "op": "lookup", "array": array, "from": self.node})

    def _tick(self, ctx: FilterContext) -> None:
        """Flush due delayed messages; retransmit overdue fetches/lookups."""
        now = time.monotonic()
        if self._delayed:
            due = [d for d in self._delayed if d[0] <= now]
            if due:
                self._delayed = [d for d in self._delayed if d[0] > now]
                for _, peer, payload in due:
                    self._peer_send(ctx, peer, payload)
        for key, (deadline, owner) in list(self._fetch_pending.items()):
            if deadline <= now:
                array, block = key
                self.store.metrics.inc("fetch_retransmits")
                self.tracer.instant(self.node, "storage", "storage",
                                    "fetch_retry", array=array, block=block,
                                    owner=owner)
                self._send_fetch(ctx, owner, array, block)
        for array, (deadline, peer) in list(self._lookup_pending.items()):
            if deadline <= now:
                self._lookup_pending[array] = (now + self.RETRANSMIT_S, peer)
                self.store.metrics.inc("lookup_retransmits")
                self.tracer.instant(self.node, "storage", "storage",
                                    "lookup_retry", array=array, peer=peer)
                self._peer_write(ctx, peer, {
                    "op": "lookup", "array": array, "from": self.node})

    def _handle_peer(self, ctx: FilterContext, msg: dict) -> None:
        op = msg["op"]
        if op == "lookup":
            hit = self.store.has_array(msg["array"]) and not self.store.is_remote(msg["array"])
            self._peer_write(ctx, msg["from"], {
                "op": "lookup_reply", "array": msg["array"], "hit": hit,
                "owner": self.node})
        elif op == "lookup_reply":
            array = msg["array"]
            self._lookup_pending.pop(array, None)
            if array not in self._awaiting_owner:
                return  # walk abandoned (drain) or duplicate reply
            if msg["hit"]:
                self.directory.probe_hit(array, 0, msg["owner"])
                for block in self._awaiting_owner.pop(array):
                    self._send_fetch(ctx, msg["owner"], array, block)
            else:
                self.directory.probe_miss(array, 0)
                self._probe_next(ctx, array)
        elif op == "fetch":
            if self._draining:
                return  # requester is winding down too; drop the request
            try:
                iv_desc = self.descs[msg["array"]]
                lo, hi = iv_desc.block_bounds(msg["block"])
                ticket, effects = self.store.request_read(
                    Interval(msg["array"], msg["block"], lo, hi))
            except StorageError as exc:
                # e.g. the array was GC'd or rehomed away after the
                # requester cached this node as the owner: tell it so its
                # read waiters fail fast instead of wedging.
                self._peer_write(ctx, msg["from"], {
                    "op": "fetch_failed", "array": msg["array"],
                    "block": msg["block"], "error": repr(exc)})
                return
            ticket.tag = ("peer", msg["from"])
            self._execute(ctx, effects)
        elif op == "blockdata":
            self._fetch_pending.pop((msg["array"], msg["block"]), None)
            self._end_io_span("fetch_remote",
                              ("fetch", msg["array"], msg["block"]),
                              msg["array"], msg["block"])
            self._execute(ctx, self.store.on_remote_data(
                msg["array"], msg["block"], msg["data"]))
            self._wake_scheduler(ctx)
        elif op == "fetch_failed":
            array, block = msg["array"], msg["block"]
            self._fetch_pending.pop((array, block), None)
            # The cached owner may be stale (reroute): next fetch re-walks.
            self.directory.invalidate(array)
            self._execute(ctx, self.store.on_fetch_failed(
                array, block, msg["error"]))
            self._wake_scheduler(ctx)
        else:  # pragma: no cover - defensive
            raise StorageError(f"unknown peer op {op!r}")

    def _handle_request(self, ctx: FilterContext, msg: dict) -> None:
        op = msg["op"]
        if op == "acquire":
            self._handle_acquire(ctx, msg)
        elif op == "release":
            # A task's tickets, all of them: released, or — a failed
            # attempt — its reads released and its granted-but-unpublished
            # writes retracted.
            effects: list[Effect] = []
            for ticket in msg["tickets"]:
                if msg["abandon"] and ticket.permission is Permission.WRITE:
                    effects.extend(self.store.abandon_write(ticket))
                else:
                    effects.extend(self.store.release(ticket))
            self._execute(ctx, effects)
            self._retry_parked(ctx)
        elif op == "rehome":
            self._handle_rehome(ctx, msg["array"], msg["home"],
                                on_disk=msg.get("on_disk", False),
                                recover=msg.get("recover", False))
        elif op == "evict":
            self._handle_evict(ctx, msg["node"])
        elif op == "ensure":
            # Reroute prep: the new execution node needs a remote handle
            # for each input array it has never seen.
            if msg["home"] != self.node:
                self.store.ensure_remote(self.descs[msg["array"]])
        elif op == "prefetch":
            desc = self.descs[msg["array"]]
            dropped_before = self.store.metrics.get("prefetch_dropped")
            for iv in whole_array(desc):
                self._execute(ctx, self.store.prefetch(iv))
            dropped = self.store.metrics.get("prefetch_dropped") - dropped_before
            if dropped:
                self._declined.add(msg["array"])
                self.tracer.instant(self.node, "storage", "sched",
                                    "prefetch_dropped",
                                    array=msg["array"], blocks=dropped)
        elif op == "map":
            # Served in order: the reply covers the prefetches sent before.
            # ``resident`` answers for the arrays asked about, no others.
            ctx.write("rep_lsched", DataBuffer(
                {"op": "map",
                 "resident": self.store.resident_among(msg["arrays"]),
                 "loading": self.store.loading_arrays(),
                 "declined": self._declined}))
            self._declined = set()
        elif op == "delete":
            self.directory.invalidate(msg["array"])
            self._try_delete(ctx, msg["array"])
        elif op in ("shutdown", "die"):
            # Stop initiating work; processing continues until every inbound
            # stream reaches end-of-stream so that late releases still seal
            # their blocks.  "die" (injected permanent node loss) also stops
            # all protocol work: a corpse only consumes its streams, so
            # survivors' writes never wedge and the runtime winds down.
            if op == "die":
                self._dead = True
                self._rehome_pending.clear()
            self._draining = True
            self._awaiting_owner.clear()
            self._delayed.clear()
            self._fetch_pending.clear()
            self._lookup_pending.clear()
            self.store.abandon_pending_allocs()
            for j in range(self.n_nodes):
                if j != self.node:
                    ctx.close(f"peer_out_{j}")
        else:  # pragma: no cover - defensive
            raise StorageError(f"unknown storage op {op!r}")

    def _handle_acquire(self, ctx: FilterContext, msg: dict) -> None:
        """Serve a task's one request: each read interval, then each write
        interval, in the order given.  What the store grants at once
        leaves as one reply; a grant that has to wait for a load or an
        allocation follows when it is made."""
        tag = msg["reply_to"]
        effects: list[Effect] = []
        replies: dict[int, dict] = {}
        for ivs, write in ((msg["reads"], False), (msg["writes"], True)):
            for iv in ivs:
                try:
                    if write:
                        ticket, granted = self.store.request_write(iv)
                    else:
                        ticket, granted = self.store.request_read(iv)
                except StorageError as exc:
                    # A rejected request (e.g. a re-dispatched task's write
                    # racing its output's rehome) is reported to the worker,
                    # whose failure path retries the attempt; it must not
                    # kill the storage filter.
                    self.tracer.instant(self.node, "storage", "storage",
                                        "request_rejected", array=iv.array,
                                        block=iv.block, error=repr(exc))
                    self._worker_reply(replies, tag[1])["errors"].append(
                        {"array": iv.array, "block": iv.block,
                         "error": repr(exc)})
                    continue
                ticket.tag = tag
                effects.extend(granted)
        self._execute(ctx, effects, replies)

    def _retry_parked(self, ctx: FilterContext) -> None:
        """Re-attempt work that raced an in-flight pin (GC, recovery)."""
        if self._gc_pending:
            for name in list(self._gc_pending):
                self._try_delete(ctx, name)
        if self._rehome_pending:
            for array in list(self._rehome_pending):
                home, on_disk, recover = self._rehome_pending.pop(array)
                self._handle_rehome(ctx, array, home,
                                    on_disk=on_disk, recover=recover)

    def _handle_rehome(self, ctx: FilterContext, array: str, home: int, *,
                       on_disk: bool = False, recover: bool = False) -> None:
        """An array's home moved (task reroute, or node-loss recovery).

        Recovery rehomes differ from reroute rehomes in two ways: blocks
        may be mid-fetch from the dead owner (those waiters are failed so
        their tasks retry against the new home), and a survivor may hold
        pinned cached copies.  Either kind parks while a block of the array
        is pinned and is retried on release — cached copies stay byte-valid
        under write-once and an unpublished output is readable by nobody, so
        waiting is safe.
        """
        self.directory.invalidate(array)
        parked = self._awaiting_owner.pop(array, None) or []
        self._lookup_pending.pop(array, None)
        inflight = [k[1] for k in self._fetch_pending if k[0] == array]
        for key in [k for k in self._fetch_pending if k[0] == array]:
            del self._fetch_pending[key]
        if recover:
            for block in sorted(set(parked) | set(inflight)):
                self._execute(ctx, self.store.on_fetch_failed(
                    array, block,
                    f"owner of {array!r} died; re-homed to node {home}"))
        try:
            if home == self.node:
                effects = self.store.rehome_local(
                    self.descs[array], on_disk=on_disk)
            elif recover:
                effects = self.store.recover_remote(self.descs[array])
            else:
                effects = self.store.rehome_remote(array)
        except StorageError:
            # A block is still pinned: a cached copy a running task reads
            # (recovery), or the output grant of the failed attempt this
            # reroute answers, whose release is still on its way (worker
            # and scheduler streams merge unordered on `req`).  Park the
            # rehome and retry when the pin is released.
            self._rehome_pending[array] = (home, on_disk, recover)
            return
        self.tracer.instant(self.node, "storage", "storage", "rehome",
                            array=array, home=home)
        if recover:
            self.tracer.instant(self.node, "storage", "recovery",
                                "reconstruct", array=array, home=home,
                                seeded=on_disk)
        self._execute(ctx, effects)
        self._wake_scheduler(ctx)

    def _handle_evict(self, ctx: FilterContext, dead: int) -> None:
        """Apply a dead-node eviction: stop probing/fetching from it.

        In-flight fetches whose owner just died are restarted through the
        owner walk (the directory now excludes the corpse); their read
        waiters stay parked, so no task attempt is burned.  If the lost
        array is being reconstructed, the follow-up recovery rehome fails
        these restarted walks over to the new home.
        """
        if dead == self.node or dead in self.directory.evicted:
            return
        self.directory.evict(dead)
        self.store.metrics.inc("peer_evictions")
        self.tracer.instant(self.node, "storage", "recovery", "node_evict",
                            dead=dead)
        for key, (_deadline, owner) in list(self._fetch_pending.items()):
            if owner == dead:
                array, block = key
                del self._fetch_pending[key]
                self._start_fetch(ctx, array, block)
        for array, (_deadline, peer) in list(self._lookup_pending.items()):
            if peer == dead:
                del self._lookup_pending[array]
                self._probe_next(ctx, array)
        self._delayed = [d for d in self._delayed if d[1] != dead]

    def process(self, ctx: FilterContext) -> None:
        ports = ["req", "io_done", "peer_in"]
        while True:
            if self._draining and self._outstanding_io == 0 \
                    and not self._io_closed:
                # Closing io_cmd lets the I/O filters exit, which EOSes
                # io_done; the loop then runs to EOS of all ports, so every
                # in-flight release/peer message is still processed.
                ctx.close("io_cmd")
                self._io_closed = True
            recovery = bool(self._delayed or self._fetch_pending
                            or self._lookup_pending)
            try:
                port, buf = ctx.read_any(
                    ports, timeout=self.RETRY_POLL_S if recovery else None)
            except TimeoutError:
                self._tick(ctx)
                continue
            if recovery:
                # Heavy traffic can starve the timeout path; check the
                # deadlines between messages too.
                self._tick(ctx)
            if buf is END_OF_STREAM:
                break
            msg = buf.payload
            if self._dead:
                # Corpse mode: keep the stream accounting honest (io_done
                # gates the io_cmd close above) but discard every message —
                # survivors observe silence, retransmit, and evict us.
                if port == "io_done":
                    self._outstanding_io -= 1
                continue
            if port == "req":
                self._handle_request(ctx, msg)
            elif port == "peer_in":
                self._handle_peer(ctx, msg)
            else:  # io_done
                self._outstanding_io -= 1
                if msg["op"] == "loaded":
                    self._end_io_span(
                        "load", ("load", msg["desc"].name, msg["block"]),
                        msg["desc"].name, msg["block"])
                    self._execute(ctx, self.store.on_loaded(
                        msg["desc"].name, msg["block"], msg["data"]))
                elif msg["op"] == "stored":
                    self._end_io_span(
                        "spill", ("spill", msg["desc"].name, msg["block"]),
                        msg["desc"].name, msg["block"])
                    self._execute(ctx, self.store.on_spilled(
                        msg["desc"].name, msg["block"]))
                elif msg["op"] == "io_error":
                    self._on_io_error(ctx, msg)
                # "unlinked": nothing to do beyond the accounting above
                if not self._draining:
                    # A finished load/spill may have unpinned a block a
                    # parked delete or recovery rehome is waiting on.
                    self._retry_parked(ctx)
                self._wake_scheduler(ctx)
        if not self._io_closed:
            ctx.close("io_cmd")
            self._io_closed = True

    def _on_io_error(self, ctx: FilterContext, msg: dict) -> None:
        """An I/O command exhausted its retries: fail the blocked tickets."""
        name = msg["desc"].name
        failed = msg["failed_op"]
        span_op = {"load": "load", "store": "spill", "unlink": "unlink"}[failed]
        self._io_started.pop((span_op, name, msg["block"]), None)
        self.tracer.instant(self.node, "storage", "storage", "io_failed",
                            op=failed, array=name, block=msg["block"],
                            error=msg["error"])
        if failed == "load":
            self._execute(ctx, self.store.on_load_failed(
                name, msg["block"], msg["error"]))
        elif failed == "store":
            self._execute(ctx, self.store.on_spill_failed(
                name, msg["block"], msg["error"]))
        # A failed unlink leaves a stale scratch file behind; harmless,
        # since rediscovery is gated on array registration.

    def _try_delete(self, ctx: FilterContext, name: str) -> None:
        """Delete an array; if a block is still pinned (a GC message can
        arrive before the consumer's final release message), park it for a
        retry on the next release."""
        if not self.store.has_array(name):
            self._gc_pending.discard(name)
            return
        was_local = not self.store.is_remote(name)
        try:
            self._execute(ctx, self.store.delete_array(name))
        except StorageError:
            self._gc_pending.add(name)
            return
        self._gc_pending.discard(name)
        if was_local and not self._io_closed:
            # Skipped during the post-close drain: a stale scratch file is
            # harmless (rediscovery is gated on array registration).
            self._outstanding_io += 1
            ctx.write("io_cmd", DataBuffer(
                {"op": "unlink", "desc": self.descs[name], "block": -1}))

    def _wake_scheduler(self, ctx: FilterContext) -> None:
        """Nudge the local scheduler: residency just changed."""
        if not self._draining:
            ctx.write("rep_lsched", DataBuffer({"op": "wake"}))


class _WorkerFilter(Filter):
    """Executes task bodies against storage-granted views.

    A task attempt that fails — an injected crash, a task-body exception,
    or a storage ``error`` reply after the I/O layer exhausted its retries —
    is *unwound* rather than allowed to kill the filter: every read grant
    is released, every write grant is abandoned (its ranges were never
    published, thanks to write-once semantics), and a ``failed`` report
    goes to the local scheduler, which re-dispatches the task.
    """

    inputs = ("in", "from_storage")
    outputs = ("to_storage", "to_lsched")

    def __init__(self, node: int, descs: dict[str, ArrayDesc],
                 tracer: Tracer | None = None,
                 injector: FaultInjector | None = None,
                 metrics: MetricsRegistry | None = None,
                 opcache: DecodedOperandCache | None = None,
                 plane: ProcessWorkerPool | None = None,
                 segment_pool: SegmentPool | None = None):
        self.node = node
        self.descs = descs
        self.tracer = tracer or Tracer(enabled=False)
        self.injector = injector
        self.metrics = metrics
        #: node-shared decoded-operand cache (None = disabled); handed to
        #: task bodies through the OperandContext in ``meta``
        self.opcache = opcache
        #: process worker plane: when set, task bodies ship to a worker
        #: process as block-handle envelopes; this thread stays the
        #: protocol endpoint (tickets, leases, failure reports)
        self.plane = plane
        self.segment_pool = segment_pool

    def _inc(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, n)

    # -- storage round-trips ----------------------------------------------------

    def _acquire(self, ctx: FilterContext, reads: list[Interval],
                 writes: list[Interval], held: list[Ticket]) -> list[Ticket]:
        """Ask the store for every interval of a task in one message;
        returns the tickets in request order, reads then writes.

        Grants are appended to ``held`` as they arrive so that a failure
        leaves no ticket untracked; every interval is answered (granted,
        or refused with an error) before this raises, so nothing remains
        outstanding.
        """
        start = self.tracer.now()
        ctx.write("to_storage", DataBuffer(
            {"op": "acquire", "reads": reads, "writes": writes,
             "reply_to": ("worker", ctx.instance)}))
        wanted = len(reads) + len(writes)
        errors: list[dict] = []
        while len(held) + len(errors) < wanted:
            buf = ctx.read("from_storage")
            if buf is END_OF_STREAM:
                raise StreamClosedError(
                    "storage replies closed while awaiting grants")
            held.extend(buf.payload["tickets"])
            errors.extend(buf.payload["errors"])
        if errors:
            # The backing I/O failed past its retry budget, or the store
            # refused the request outright.
            first = errors[0]
            raise IOFailedError(
                f"access to {first['array']}[{first['block']}] failed: "
                f"{first['error']}")
        self.tracer.complete(
            self.node, f"worker/{ctx.instance}", "task", "grant_wait", start,
            intervals=wanted)
        by_iv = {(t.permission, t.interval.array, t.interval.block,
                  t.interval.lo): t for t in held}
        return [by_iv[(perm, iv.array, iv.block, iv.lo)]
                for perm, ivs in ((Permission.READ, reads),
                                  (Permission.WRITE, writes))
                for iv in ivs]

    def _release_all(self, ctx: FilterContext, tickets: list[Ticket], *,
                     abandon: bool = False) -> None:
        """Hand a task's tickets back in one message.  ``abandon``: the
        attempt failed, so its write grants are retracted, not published."""
        ctx.write("to_storage", DataBuffer(
            {"op": "release", "tickets": tickets, "abandon": abandon}))

    def _abort(self, ctx: FilterContext, held: list[Ticket]) -> None:
        """Unwind a failed attempt so a re-execution starts clean.

        Read grants are released (unpinning inputs frees memory other
        work may be queued on); write grants are abandoned — nothing they
        covered was published, so the retry can request them again.
        """
        if not held:
            return
        try:
            self._release_all(ctx, list(held), abandon=True)
        except StreamClosedError:
            pass

    # -- data assembly -------------------------------------------------------------

    def _gather_input(self, tickets: list[Ticket]) -> np.ndarray:
        if len(tickets) == 1:
            return tickets[0].data
        # Multi-block arrays are reassembled with a copy — "trading
        # performance for semantic simplicity".  This (and the scatter
        # temp below) are the only deterministic copies left on the data
        # plane, so ``bytes_copied`` counts exactly them and CI can treat
        # any increase as a regression.
        parts = [t.data for t in tickets]
        self._inc("bytes_copied", sum(int(p.nbytes) for p in parts))
        return np.concatenate(parts, out=block_buffer(
            sum(map(len, parts)), parts[0].dtype))

    def _run_task(self, ctx: FilterContext, task: TaskSpec,
                  attempt: int) -> None:
        """One task attempt, requests through releases.

        The whole ticket lifecycle lives inside one ``try`` so that every
        grant collected into ``held`` is unwound by ``_abort`` on *any*
        failure — the structure the ``DOOC001`` lint rule checks for.
        """
        held: list[Ticket] = []
        try:
            out_ranges: dict[str, tuple[int, int]] = task.meta.get(
                "out_ranges", {})
            #: output array -> the [lo, hi) of it this task writes
            spans = {a: out_ranges.get(a, (0, self.descs[a].length))
                     for a in task.outputs}
            reads = {a: whole_array(self.descs[a]) for a in task.inputs}
            writes = {a: intervals_for_range(self.descs[a], lo, hi)
                      for a, (lo, hi) in spans.items()}
            granted = self._acquire(
                ctx, [iv for ivs in reads.values() for iv in ivs],
                [iv for ivs in writes.values() for iv in ivs], held)
            grants = iter(granted)
            read_tickets = {a: [next(grants) for _ in ivs]
                            for a, ivs in reads.items()}
            write_tickets = {a: [next(grants) for _ in ivs]
                             for a, ivs in writes.items()}
            out_buffers: dict[str, np.ndarray] = {}
            scatter: list[tuple[str, np.ndarray]] = []
            for array, tickets in write_tickets.items():
                if len(tickets) == 1:
                    out_buffers[array] = tickets[0].data
                else:
                    lo, hi = spans[array]
                    temp = block_buffer(hi - lo, self.descs[array].dtype)
                    out_buffers[array] = temp
                    scatter.append((array, temp))
            if self.injector is not None and self.injector.task_fault(
                    task.name, attempt):
                raise InjectedTaskCrash(
                    f"injected crash of task {task.name!r} attempt {attempt} "
                    f"on node {self.node}")
            ran_remote = False
            if self.plane is not None:
                ran_remote = self._run_remote(
                    ctx, task, read_tickets, write_tickets, spans)
            if not ran_remote:
                inputs = {a: self._gather_input(ts)
                          for a, ts in read_tickets.items()}
                meta = task.meta
                if self.opcache is not None:
                    # Hand the task body the node's operand cache plus the
                    # seal generations of its read grants (the freshness
                    # proof for cache keys) — without changing the fn
                    # signature.
                    meta = dict(meta)
                    meta[OPERAND_CONTEXT_KEY] = OperandContext(
                        self.opcache,
                        {a: tuple(t.generation for t in ts)
                         for a, ts in read_tickets.items()})
                task.fn(inputs, out_buffers, meta)
                for array, temp in scatter:
                    lo, _ = spans[array]
                    self._inc("bytes_copied", int(temp.nbytes))
                    for t in write_tickets[array]:
                        t.data[:] = temp[t.interval.lo - lo:
                                         t.interval.hi - lo]
            held.clear()  # from here the normal release owns every ticket
            self._release_all(ctx, granted)
        except BaseException:
            self._abort(ctx, held)
            raise

    def _run_remote(self, ctx: FilterContext, task: TaskSpec,
                    read_tickets: dict[str, list[Ticket]],
                    write_tickets: dict[str, list[Ticket]],
                    spans: dict[str, tuple[int, int]]) -> bool:
        """Ship the task to this slot's worker process.

        Returns False to fall back to inline execution (a grant without a
        segment handle, or a task that can't pickle).  Every segment a
        granted span lies in is leased, once, around the dispatch, so a concurrent
        reclaim can never unlink memory the child is computing on; leases
        drain in the ``finally`` even when the child crashes — the parent
        owns the lease lifecycle, never the (killable) child.
        """
        every = ([t for ts in read_tickets.values() for t in ts]
                 + [t for ts in write_tickets.values() for t in ts])
        if any(t.handle is None for t in every):
            self._inc("process_plane_fallbacks")
            return False
        input_handles = {a: [t.handle for t in ts]
                         for a, ts in read_tickets.items()}
        output_specs = {}
        for array, tickets in write_tickets.items():
            lo, hi = spans[array]
            output_specs[array] = {
                "dtype": self.descs[array].dtype, "lo": lo, "hi": hi,
                "parts": [(t.handle, t.interval.lo, t.interval.hi)
                          for t in tickets],
            }
        generations = {a: tuple(t.generation for t in ts)
                       for a, ts in read_tickets.items()}
        envelope = build_envelope(task.fn, task.meta, input_handles,
                                  output_specs, generations)
        leased: list[str] = []
        try:
            for name in dict.fromkeys(t.handle.segment for t in every):
                self.segment_pool.lease(name)
                leased.append(name)
            try:
                reply = self.plane.run_envelope(
                    self.node, ctx.instance, envelope)
            except EnvelopeUnpicklable:
                self._inc("process_plane_fallbacks")
                return False
            except WorkerProcessCrash:
                self._inc("worker_crashes")
                raise  # -> failure report -> re-dispatch (worker respawned)
        finally:
            for name in leased:
                self.segment_pool.release(name)
        if not reply.get("ok"):
            raise DoocError(
                f"task {task.name!r} failed in worker process: "
                f"{reply.get('error')}")
        for counter in ("bytes_copied", "opcache_hits", "opcache_misses"):
            if reply.get(counter):
                self._inc(counter, int(reply[counter]))
        return True

    def process(self, ctx: FilterContext) -> None:
        ctx.write("to_lsched", DataBuffer({"op": "idle", "inst": ctx.instance}))
        while True:
            buf = ctx.read("in")
            if buf is END_OF_STREAM:
                return
            msg = buf.payload
            if msg["op"] == "shutdown":
                return
            task: TaskSpec = msg["task"]
            attempt: int = msg.get("attempt", 1)
            started = self.tracer.now()
            try:
                self._run_task(ctx, task, attempt)
            except StreamClosedError:
                raise  # runtime failure/shutdown, not a task failure
            except Exception as exc:  # noqa: BLE001 - reported for re-execution
                self.tracer.instant(
                    self.node, f"worker/{ctx.instance}", "task",
                    "task_failed", task=task.name, attempt=attempt,
                    error=repr(exc))
                ctx.write("to_lsched", DataBuffer(
                    {"op": "failed", "task": task,
                     "parent": task.meta.get("parent"),
                     "attempt": attempt, "error": repr(exc),
                     "inst": ctx.instance}))
            else:
                self.tracer.complete(
                    self.node, f"worker/{ctx.instance}", "task", "task",
                    started, task=task.name)
                ctx.write("to_lsched", DataBuffer(
                    {"op": "done", "task": task.name,
                     "parent": task.meta.get("parent"),
                     "inst": ctx.instance}))


class _LocalSchedulerFilter(Filter):
    """Per-node scheduler: dispatch, split, prefetch.

    Faithful to Section III-C: "When a computing filter is free, a task
    which is ready and whose data input are available in memory is sent to
    the computing filter", with prefetch requests keeping a window of
    ready tasks memory-resident.  Liveness rests on events, not on the
    clock (DESIGN.md, section 6).  Prefetches only fill free memory, so out
    of core the store declines them.  When no ready task is fully resident,
    the top-ranked one is dispatched at once (its demand reads load, and
    may evict) iff nothing is in flight: no task running here, no input of
    a ready task loading, no task made ready by this node's completions
    still on its way.  Otherwise the filter blocks: each of those ends in
    a message (``done``/``failed``, ``wake``/``dropped``, ``synced``).
    """

    inputs = ("in", "from_workers", "from_storage")
    outputs = ("to_gsched", "to_workers", "to_storage")

    def __init__(self, node: int, workers: int,
                 nbytes: dict[str, int], *, prefetch_depth: int = 2,
                 reorder: bool = True, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 max_attempts: int = 3,
                 heartbeat_s: float | None = None,
                 injector: FaultInjector | None = None):
        if max_attempts < 1:
            raise SchedulingError("max_attempts must be >= 1")
        self.core = LocalSchedulerCore(node, prefetch_depth=prefetch_depth,
                                       reorder=reorder)
        self.node = node
        self.workers = workers
        self.nbytes = nbytes
        self.tracer = tracer or Tracer(enabled=False)
        self.metrics = metrics
        self.max_attempts = max_attempts
        #: liveness beacon period (None = membership tracking off)
        self.heartbeat_s = heartbeat_s
        self.injector = injector
        #: injected permanent death point: die after this many worker
        #: completions on this node (None = immortal)
        self._kill_after = injector.kill_step() if injector is not None else None
        self._next_beat = 0.0
        self._idle: list[int] = []
        self._parents: dict[str, int] = {}  # parent task -> remaining subtasks
        self._attempts: dict[str, int] = {}  # task -> attempts dispatched here
        self._inflight = 0
        self._completions = 0
        #: completions were reported since the last sync with the global
        #: scheduler / a sync request is unanswered
        self._unsynced = self._syncing = False
        self._loading: set[str] = set()  # as of the last map reply
        #: a cancel drain is underway: no dispatch, no retries, no
        #: escalation — only in-flight work finishes
        self._cancelling = False
        self._drain_acked = False

    def _on_storage_note(self, msg: dict) -> None:
        """A push note from storage: ``wake`` (residency changed; the
        caller re-dispatches anyway) or ``dropped`` (evicted: re-arm)."""
        if msg["op"] == "dropped":
            self.core.forget_prefetch(msg["array"])

    def _query_map(self, ctx: FilterContext) -> tuple[set[str], set[str]]:
        """Ask storage which inputs of the ready tasks are resident (the
        only names ranking, prefetch planning and the choice test); returns
        ``(resident, declined)``.
        Declined prefetches are re-armed (memory may be free by the next
        event); one whose load *failed* is not: the task's demand read,
        dispatched unwarmed, reports the error."""
        ctx.write("to_storage", DataBuffer(
            {"op": "map", "arrays": self.core.ready_inputs()}))
        while True:
            buf = ctx.read("from_storage")
            if buf is END_OF_STREAM:
                return set(), set()
            msg = buf.payload
            if msg["op"] == "map":
                self._loading = msg["loading"]
                for array in msg["declined"]:
                    self.core.forget_prefetch(array)
                return msg["resident"], msg["declined"]
            # "wake"/"dropped" notes racing the reply are absorbed here;
            # the dispatch about to run uses the fresher map anyway.
            self._on_storage_note(msg)

    def _choose(self, ctx: FilterContext, resident: set[str],
                declined: set[str]) -> TaskSpec | None:
        ranked = self.core.rank(resident, self.nbytes)
        if not ranked:
            return None
        if not self.core.reorder:
            # Ablation: the naive plan runs strictly in readiness order,
            # paying demand loads as they come (Fig. 5a).
            return self.core.claim(ranked[0].name)
        for t in ranked:
            if all(a in resident for a in t.inputs):
                return self.core.claim(t.name)
        # Nothing memory-resident.  What is in flight announces its own end:
        # wait for that message.  Else none is coming: demand-load the best.
        if self._inflight or self._syncing or any(
                a in self._loading for t in ranked for a in t.inputs):
            return None
        if self._unsynced:
            # Tasks our completions made ready (a resident one, perhaps) may
            # be on their way; streams are FIFO, so this is answered after.
            self._unsynced, self._syncing = False, True
            ctx.write("to_gsched", DataBuffer({"op": "sync", "node": self.node}))
            return None
        task = ranked[0]
        self._inc("forced_dispatches")
        self.tracer.instant(
            self.node, "sched", "sched", "forced_dispatch", task=task.name,
            why=("declined" if declined.intersection(task.inputs)
                 else "nothing_loading"))
        return self.core.claim(task.name)

    @property
    def _dying(self) -> bool:
        """Has the injected death point been reached?"""
        return (self._kill_after is not None
                and self._completions >= self._kill_after)

    def _maybe_beat(self, ctx: FilterContext) -> None:
        """Send the periodic liveness beacon to the global scheduler.

        The beacon comes from this scheduler loop, not from task progress,
        so a node mired in I/O retries or task re-executions still beats —
        the failure detector only fires on genuine silence.  It is not
        routed through the tracer: a beat is not runtime progress and must
        not reset the stall watchdog's quiet clock.
        """
        if self.heartbeat_s is None or self._dying:
            return
        now = time.monotonic()
        if now >= self._next_beat:
            self._next_beat = now + self.heartbeat_s
            self._inc("heartbeats_sent")
            ctx.write("to_gsched", DataBuffer(
                {"op": "heartbeat", "node": self.node}))

    def _die(self, ctx: FilterContext) -> None:
        """Permanent injected node death: fall silent, then drain.

        The node's threads cannot simply vanish (they share the runtime
        with the survivors), so death is modeled as the loudest possible
        silence: workers are shut down, storage enters corpse mode, the
        control stream to the global scheduler closes, and the filter
        discards inbound traffic until every stream reaches end-of-stream.
        """
        if self.injector is not None:
            self.injector.record_node_kill(self._completions)
        for worker in range(self.workers):
            ctx.write("to_workers", DataBuffer(
                {"op": "shutdown"}, {"__dest__": worker}))
        ctx.write("to_storage", DataBuffer({"op": "die"}))
        ctx.close("to_gsched")
        ctx.close("to_storage")
        while True:
            _port, buf = ctx.read_any(["in", "from_workers", "from_storage"])
            if buf is END_OF_STREAM:
                return

    def _dispatch(self, ctx: FilterContext) -> None:
        if self._dying or self._cancelling:
            return  # no new work on a node that is dying or draining
        while self._idle and self.core.ready_count:
            resident, declined = self._query_map(ctx)
            # Keep upcoming tasks warm regardless of whether we dispatch.
            plan = self.core.prefetch_plan(resident, self.nbytes)
            for array in plan:
                self.tracer.instant(self.node, "sched", "sched", "prefetch",
                                    array=array)
                ctx.write("to_storage", DataBuffer(
                    {"op": "prefetch", "array": array}))
            if plan:
                # Streams are FIFO: this reply tells accepted from declined.
                resident, declined = self._query_map(ctx)
            task = self._choose(ctx, resident, declined)
            if task is None:
                break
            subtasks = [task]
            spare = len(self._idle) - 1
            if task.splittable and spare > 0 and self.core.ready_count == 0:
                subtasks = LocalSchedulerCore.split(task, spare + 1)
                if len(subtasks) > 1:
                    self._parents[task.name] = len(subtasks)
            for sub in subtasks:
                if not self._idle:
                    # More subtasks than workers (split() may round up):
                    # requeue the remainder as ready work.
                    self.core.add_ready(sub)
                    continue
                worker = self._idle.pop(0)
                self._inflight += 1
                attempt = self._attempts.get(sub.name, 0) + 1
                self._attempts[sub.name] = attempt
                self.tracer.instant(self.node, "sched", "task", "dispatch",
                                    task=sub.name, worker=worker,
                                    attempt=attempt)
                ctx.write("to_workers", DataBuffer(
                    {"op": "task", "task": sub, "attempt": attempt},
                    {"__dest__": worker}))

    def debug_snapshot(self) -> dict:
        """Scheduler-side state for the stall watchdog (best effort)."""
        return {
            "ready_tasks": sorted(t.name for t in self.core.pending_tasks()),
            "inflight": self._inflight,
            "idle_workers": len(self._idle),
            "syncing": self._syncing,
            "loading": sorted(self._loading),
        }

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    def _on_done(self, ctx: FilterContext, msg: dict) -> None:
        self._inflight -= 1
        self._completions += 1
        self._attempts.pop(msg["task"], None)
        task = msg.get("parent") or msg["task"]
        if task in self._parents:
            self._parents[task] -= 1
            if self._parents[task]:
                return  # sibling subtasks still running
            del self._parents[task]
        self._unsynced = True
        ctx.write("to_gsched", DataBuffer({"op": "done", "task": task}))

    def _on_failed(self, ctx: FilterContext, msg: dict) -> None:
        """A worker reported a failed attempt: re-execute or escalate."""
        self._inflight -= 1
        task: TaskSpec = msg["task"]
        attempt: int = msg["attempt"]
        if self._cancelling:
            # The run is being torn down: a failed attempt needs neither a
            # retry nor an escalation, only its inflight slot back.
            self._attempts.pop(task.name, None)
            return
        if attempt < self.max_attempts:
            # Write-once makes re-execution safe: the failed attempt
            # published nothing, so the task simply becomes ready again.
            self._inc("task_reexecutions")
            self.tracer.instant(self.node, "sched", "task", "task_retry",
                                task=task.name, attempt=attempt,
                                error=msg["error"])
            self.core.add_ready(task)
            return
        self._attempts.pop(task.name, None)
        if msg.get("parent") is not None:
            # A subtask of a split: sibling subtasks may already have
            # published ranges of the shared outputs, so rerouting the
            # parent would collide with write-once.  Local retries are the
            # only recourse (documented limitation, see docs/FAULTS.md).
            raise SchedulingError(
                f"subtask {task.name!r} failed {attempt} times on node "
                f"{self.node}: {msg['error']}")
        self.tracer.instant(self.node, "sched", "task", "task_escalate",
                            task=task.name, error=msg["error"])
        ctx.write("to_gsched", DataBuffer(
            {"op": "failed", "task": task.name, "node": self.node,
             "error": msg["error"]}))

    def _begin_cancel_drain(self, ctx: FilterContext) -> None:
        """Global scheduler asked for a cancel drain: discard queued
        ready work (no worker ever saw it, so dropping it is safe) and
        let only in-flight tasks run to completion."""
        self._cancelling = True
        for t in list(self.core.pending_tasks()):
            self.core.claim(t.name)
        self._maybe_ack_drain(ctx)

    def _maybe_ack_drain(self, ctx: FilterContext) -> None:
        """Tell the global scheduler this node is quiescent (once)."""
        if (self._cancelling and not self._drain_acked
                and self._inflight == 0):
            self._drain_acked = True
            self.tracer.instant(self.node, "sched", "run", "cancel_drain")
            ctx.write("to_gsched", DataBuffer(
                {"op": "cancel_drained", "node": self.node}))

    def process(self, ctx: FilterContext) -> None:
        self._maybe_beat(ctx)
        while True:
            if self._dying and self._inflight == 0:
                self._die(ctx)
                return
            try:
                port, buf = ctx.read_any(
                    ["in", "from_workers", "from_storage"],
                    timeout=None if self._dying else self.heartbeat_s)
            except TimeoutError:
                self._maybe_beat(ctx)
                continue
            self._maybe_beat(ctx)
            if buf is END_OF_STREAM:
                break
            msg = buf.payload
            if port == "in":
                if msg["op"] == "shutdown":
                    break
                if msg["op"] == "cancel":
                    self._begin_cancel_drain(ctx)
                    continue
                if msg["op"] == "gc":
                    ctx.write("to_storage", DataBuffer(
                        {"op": "delete", "array": msg["array"]}))
                    continue
                if msg["op"] in ("rehome", "ensure", "evict"):
                    # Reroute/recovery bookkeeping from the global
                    # scheduler, relayed to storage ahead of any
                    # re-dispatched task.
                    ctx.write("to_storage", DataBuffer(msg))
                    continue
                if msg["op"] == "synced":
                    self._syncing = False
                elif not self._cancelling:  # else: sent before the cancel
                    for task in msg["tasks"]:
                        self.core.add_ready(task)
            elif port == "from_storage":
                self._on_storage_note(msg)  # wake/dropped; then re-dispatch
            else:
                # "idle" (a worker's first word), "done" or "failed": each
                # also says the worker instance that sent it is free.
                if msg["op"] == "failed":
                    self._on_failed(ctx, msg)
                elif msg["op"] == "done":
                    self._on_done(ctx, msg)
                self._idle.append(msg["inst"])
                self._maybe_ack_drain(ctx)
            self._dispatch(ctx)
        # Wind down: workers are idle by construction (the global scheduler
        # only announces shutdown once the DAG is complete).
        for worker in range(self.workers):
            ctx.write("to_workers", DataBuffer(
                {"op": "shutdown"}, {"__dest__": worker}))
        ctx.write("to_storage", DataBuffer({"op": "shutdown"}))


@dataclass
class _RecoveryContext:
    """Everything the global scheduler needs to survive a node loss."""

    descs: dict[str, ArrayDesc]
    nbytes: dict[str, int]
    #: (array, dead_node, new_home) -> copy the backing file to the new
    #: home's scratch (models a re-read from the shared filesystem)
    reseed: Any
    metrics: MetricsRegistry
    lineage: LineageLog | None = None
    #: False turns detection into a named failure instead of recovery
    node_recovery: bool = True


class _GlobalSchedulerFilter(Filter):
    """Walks the DAG, dispatching ready tasks to their assigned nodes.

    With ``gc_arrays`` enabled, the scheduler also exercises the storage
    layer's delete interface: once every consumer of an intermediate array
    has completed, a garbage-collection message goes to every node (the
    home drops memory + scratch file, consumers drop cached copies).
    Initial arrays and terminal outputs are always kept.

    A task that exhausts its local re-execution budget is **rerouted**: the
    assignment moves to a node that has not tried it, the task's output
    arrays are rehomed there (broadcast to every node so directories and
    remote registrations follow), and the task is re-sent.  Once every
    node has tried and failed, the run dies with :class:`TaskFailedError`.
    """

    inputs = ("in",)

    #: how often the scheduler re-checks an armed cancel token while
    #: blocked on its control stream (only paid when a token is passed)
    CANCEL_POLL_S = 0.05

    def __init__(self, dag: TaskDAG, assignment: dict[str, int], n_nodes: int,
                 *, gc_arrays: bool = False,
                 homes: dict[str, int] | None = None,
                 max_reroutes: int | None = None,
                 tracer: Tracer | None = None,
                 membership: MembershipTracker | None = None,
                 recovery: "_RecoveryContext | None" = None,
                 cancel: "CancelToken | None" = None):
        self.dag = dag
        self.assignment = assignment
        self.n_nodes = n_nodes
        self.gc_arrays = gc_arrays
        #: array -> home node; shared with the engine so reroutes are
        #: visible to post-run ``fetch()``
        self.homes = homes if homes is not None else {}
        self.max_reroutes = max_reroutes
        self.tracer = tracer or Tracer(enabled=False)
        #: heartbeat-driven failure detector (None = node loss not tracked)
        self.membership = membership
        self.recovery = recovery
        #: cooperative cancellation token (None = run to completion)
        self.cancel = cancel
        #: did this scheduler actually drain the run for a cancel?  The
        #: engine keys RunCancelled off this, not off the raw token, so a
        #: token set after the DAG completed does not fail a finished run.
        self.cancelled = False
        #: nodes whose drain acknowledgement is still outstanding
        self._cancel_pending: set[int] = set()
        self.outputs = tuple(f"out_{i}" for i in range(n_nodes))
        self._consumers_left: dict[str, int] = {}
        self._tried: dict[str, set[int]] = {}  # task -> nodes that failed it
        self._reroutes: dict[str, int] = {}
        #: arrays GC'd cluster-wide (their producers may need replaying)
        self._collected: set[str] = set()
        #: completed tasks re-executing for block reconstruction; their
        #: "done" reports bypass DAG bookkeeping (already marked complete)
        self._replaying: set[str] = set()
        #: reassigned tasks the corpse may have finished with the report
        #: still in flight: a second "done" for these is expected, not a bug
        self._dup_ok: set[str] = set()
        self._last_check = 0.0
        #: deterministic round-robin cursor for homeless recovery placement
        self._failover_rr = 0
        if gc_arrays:
            for t in dag.tasks.values():
                for array in t.outputs:
                    self._consumers_left[array] = len(dag.consumers_of(array))

    def _live_nodes(self) -> list[int]:
        if self.membership is None:
            return list(range(self.n_nodes))
        dead = set(self.membership.dead_nodes())
        return [n for n in range(self.n_nodes) if n not in dead]

    def _broadcast(self, ctx: FilterContext, payload: dict) -> None:
        for i in self._live_nodes():
            ctx.write(f"out_{i}", DataBuffer(dict(payload)))

    def _send(self, ctx: FilterContext, names: list[str]) -> None:
        """Deliver ready tasks, one message per node: a local scheduler
        with nothing resident dispatches at once, and handed siblings one
        by one it would force the first and evict the sub-matrix the next
        reuses (Fig. 5b)."""
        by_node: dict[int, list[TaskSpec]] = {}
        for name in names:
            by_node.setdefault(self.assignment[name], []).append(
                self.dag.tasks[name])
        for node, tasks in by_node.items():
            ctx.write(f"out_{node}", DataBuffer({"op": "tasks", "tasks": tasks}))

    def _collect(self, ctx: FilterContext, completed: str) -> None:
        for array in self.dag.tasks[completed].inputs:
            left = self._consumers_left.get(array)
            if left is None:
                continue  # initial array: never collected
            left -= 1
            self._consumers_left[array] = left
            if left == 0:
                self._collected.add(array)
                self._broadcast(ctx, {"op": "gc", "array": array})

    def _reroute(self, ctx: FilterContext, msg: dict) -> None:
        """Move a repeatedly-failing task to a node that has not tried it."""
        name, failed_node = msg["task"], msg["node"]
        tried = self._tried.setdefault(name, {self.assignment[name]})
        tried.add(failed_node)
        reroutes = self._reroutes.get(name, 0)
        live = self._live_nodes()
        candidates = [n for n in live if n not in tried]
        if not candidates or (self.max_reroutes is not None
                              and reroutes >= self.max_reroutes):
            raise TaskFailedError(
                f"task {name!r} failed on node(s) {sorted(tried)} "
                f"(last error: {msg['error']})")
        new_node = candidates[0]
        self._reroutes[name] = reroutes + 1
        self.tracer.instant(new_node, "gsched", "task", "task_reroute",
                            task=name, from_node=failed_node,
                            error=msg["error"])
        self._move_task(ctx, name, new_node)
        self._send(ctx, [name])

    def _move_task(self, ctx: FilterContext, name: str, new_node: int,
                   *, recover: bool = False) -> None:
        """Re-home a task's outputs to ``new_node`` and prep its inputs.

        Outputs follow the task: every live node updates its registration
        (local on the new home, remote handles elsewhere) and forgets
        cached owner entries and block state; inputs are at least remotely
        registered on the new node.  ``recover``: the old home is dead.
        """
        self.assignment[name] = new_node
        spec = self.dag.tasks[name]
        for array in spec.outputs:
            self.homes[array] = new_node
            self._broadcast(ctx, {"op": "rehome", "array": array,
                                  "home": new_node, "recover": recover})
        for array in spec.inputs:
            ctx.write(f"out_{new_node}", DataBuffer(
                {"op": "ensure", "array": array,
                 "home": self.homes.get(array, -1)}))

    # -- node-loss recovery ---------------------------------------------------

    def _check_membership(self, ctx: FilterContext) -> None:
        """Escalate silent nodes.  A completion the corpse managed to
        report may still be queued when death fires; the plan then counts
        that task as incomplete and reassigns it, and the late duplicate
        "done" is absorbed via ``_dup_ok``."""
        if self.membership is None:
            return
        now = time.monotonic()
        for node, state in self.membership.check(now):
            silent = self.membership.snapshot(now)[node]["silent_s"]
            if state == SUSPECT:
                if self.recovery is not None:
                    self.recovery.metrics.inc("nodes_suspected")
                self.tracer.instant(node, "gsched", "recovery",
                                    "node_suspect", silent_s=silent)
            else:
                self.tracer.instant(node, "gsched", "recovery", "node_dead",
                                    silent_s=silent)
                self._on_node_dead(ctx, node)

    def _heartbeat(self, ctx: FilterContext, node: int) -> None:
        if self.membership is None:
            return
        if self.membership.beat(node, time.monotonic()) is not None:
            # A quarantined suspect came back before the dead threshold.
            if self.recovery is not None:
                self.recovery.metrics.inc("nodes_recovered")
            self.tracer.instant(node, "gsched", "recovery", "node_alive")

    def _next_survivor(self, survivors: list[int]) -> int:
        node = survivors[self._failover_rr % len(survivors)]
        self._failover_rr += 1
        return node

    def _on_node_dead(self, ctx: FilterContext, dead: int) -> None:
        """Recover from one node's permanent loss (the tentpole sequence).

        Eviction first (survivors stop probing the corpse), then lost
        initial arrays re-seed from the filesystem onto survivors, lost
        derived blocks are reconstructed by re-executing their (completed)
        producers from lineage, and the corpse's unfinished tasks move to
        survivors.  Write-once makes all of it safe: replays produce the
        same bytes, and no survivor cache needs invalidation.
        """
        if self.cancelled:
            # The run is being torn down anyway: no reconstruction, just
            # stop survivors probing the corpse and stop waiting for its
            # drain ack (its in-flight work died with it).
            self._broadcast(ctx, {"op": "evict", "node": dead})
            self._cancel_pending.discard(dead)
            return
        rc = self.recovery
        plan = plan_reconstruction(
            self.dag, self.homes, self.assignment, dead,
            descs=rc.descs if rc is not None else None,
            collected=self._collected)
        survivors = self._live_nodes()
        if rc is not None:
            rc.metrics.inc("nodes_lost")
            rc.metrics.inc("blocks_lost", plan.lost_blocks)
            if rc.lineage is not None:
                rc.lineage.record(
                    "node_dead", node=dead, lost_arrays=plan.lost_arrays,
                    lost_blocks=plan.lost_blocks, reseed=plan.reseed,
                    replay=plan.replay, reassign=plan.reassign)
                rc.lineage.sync()
        if not survivors or rc is None or not rc.node_recovery:
            raise NodeLostError(
                f"node {dead} declared dead with {len(plan.lost_arrays)} "
                f"arrays ({plan.lost_blocks} blocks) homed on it"
                + ("" if survivors else "; no survivors left to recover on")
                + ("" if rc is not None and rc.node_recovery
                   else "; node recovery is disabled"),
                node=dead, lost_blocks=plan.lost_blocks)
        self._broadcast(ctx, {"op": "evict", "node": dead})
        for array in plan.reseed:
            new_home = self._next_survivor(survivors)
            rc.reseed(array, dead, new_home)
            self.homes[array] = new_home
            self._broadcast(ctx, {"op": "rehome", "array": array,
                                  "home": new_home, "on_disk": True,
                                  "recover": True})
            rc.metrics.inc("arrays_reseeded")
            if rc.lineage is not None:
                rc.lineage.record("reseed", array=array, node=new_home)
        ready_now = set(self.dag.ready_tasks())
        for name in plan.replay:
            spec = self.dag.tasks[name]
            new_node = failover_node(spec.inputs, self.homes, survivors,
                                     rc.nbytes)
            self._move_task(ctx, name, new_node, recover=True)
            self._replaying.add(name)
            self.tracer.instant(new_node, "gsched", "recovery",
                                "lineage_replay", task=name, from_node=dead)
            rc.metrics.inc("tasks_replayed")
            if rc.lineage is not None:
                rc.lineage.record("replay", task=name, node=new_node)
            self._send(ctx, [name])
        for name in plan.reassign:
            spec = self.dag.tasks[name]
            new_node = failover_node(spec.inputs, self.homes, survivors,
                                     rc.nbytes)
            self._move_task(ctx, name, new_node, recover=True)
            self.tracer.instant(new_node, "gsched", "recovery",
                                "task_reassign", task=name, from_node=dead)
            rc.metrics.inc("tasks_reassigned")
            if rc.lineage is not None:
                rc.lineage.record("reassign", task=name, node=new_node)
            if name in ready_now and name not in self._replaying:
                # It had been dispatched to the corpse; send it again.  The
                # corpse may even have finished it with the report still in
                # flight, so tolerate one duplicate completion.
                self._dup_ok.add(name)
                self._send(ctx, [name])
        if rc.lineage is not None:
            rc.lineage.sync()

    def _all_vanished(self, ctx: FilterContext) -> NoReturn:
        """Every lsched control stream closed before the DAG completed.

        The senders are gone, not slow.  With a failure detector armed,
        give it its declaration window so the error names the dead node
        (``NodeLostError`` out of ``_on_node_dead``) instead of a generic
        protocol failure — this is how a single-node kill, where no
        survivor is left to heartbeat, still fails loudly by name.
        """
        if self.membership is not None:
            cfg = self.membership.config
            deadline = (time.monotonic() + cfg.dead_after_s
                        + 4 * cfg.heartbeat_s)
            while time.monotonic() < deadline:
                self._check_membership(ctx)  # may raise NodeLostError
                time.sleep(cfg.poll_s)
        raise SchedulingError(
            "local schedulers vanished before the DAG completed"
        )

    def _begin_cancel(self, ctx: FilterContext) -> None:
        """The token fired: stop dispatching and ask every node to drain.

        The drain request goes to local schedulers, never to storage:
        each node finishes (only) its in-flight tasks, acks, and the
        normal shutdown broadcast below runs once every ack is in — so
        storage still drains strictly after all workers everywhere are
        idle, same as a completed run.
        """
        self.cancelled = True
        self._cancel_pending = set(self._live_nodes())
        reason = self.cancel.reason if self.cancel is not None else "cancelled"
        self.tracer.instant(-1, "gsched", "run", "run_cancel", reason=reason)
        self._broadcast(ctx, {"op": "cancel"})

    def process(self, ctx: FilterContext) -> None:
        if self.cancel is not None and self.cancel.is_set():
            # Cancelled before dispatch: nothing runs, but the drain
            # handshake still happens so the exit path is the same.
            self._begin_cancel(ctx)
        else:
            self._send(ctx, sorted(self.dag.ready_tasks()))
        poll_s = (self.membership.config.poll_s
                  if self.membership is not None else None)
        wait_s = poll_s
        if self.cancel is not None:
            wait_s = (self.CANCEL_POLL_S if poll_s is None
                      else min(poll_s, self.CANCEL_POLL_S))
        while True:
            if self.cancelled:
                if not self._cancel_pending:
                    break  # every node drained: run the normal wind-down
            elif self.dag.done and not self._replaying:
                break
            if self.membership is not None:
                now = time.monotonic()
                if now - self._last_check >= poll_s:
                    self._last_check = now
                    self._check_membership(ctx)
            if (self.cancel is not None and not self.cancelled
                    and self.cancel.is_set()):
                self._begin_cancel(ctx)
                continue
            try:
                _port, buf = ctx.read_any(["in"], timeout=wait_s)
            except TimeoutError:
                continue  # loop back through the membership/cancel checks
            if buf is END_OF_STREAM:
                self._all_vanished(ctx)
            msg = buf.payload
            if msg["op"] == "heartbeat":
                self._heartbeat(ctx, msg["node"])
                continue
            if msg["op"] == "sync":
                # FIFO: what this node's completions made ready went first.
                ctx.write(f"out_{msg['node']}", DataBuffer({"op": "synced"}))
                continue
            if msg["op"] == "cancel_drained":
                self._cancel_pending.discard(msg["node"])
                continue
            if msg["op"] == "failed":
                if self.cancelled:
                    continue  # no reroutes for a run being torn down
                self._reroute(ctx, msg)
                continue
            if msg["task"] in self._replaying:
                # A reconstruction replay finished: the DAG already counts
                # this task as complete, so only clear the replay flag.
                self._replaying.discard(msg["task"])
                if (self.recovery is not None
                        and self.recovery.lineage is not None):
                    self.recovery.lineage.record(
                        "replay_done", task=msg["task"])
                continue
            if msg["task"] in self._dup_ok and msg["task"] in self.dag.completed:
                # The corpse finished this task before dying; the survivor's
                # re-execution already marked it complete (or vice versa).
                self._dup_ok.discard(msg["task"])
                continue
            newly = self.dag.mark_complete(msg["task"])
            if not self.cancelled:
                self._send(ctx, newly)
            if (self.recovery is not None
                    and self.recovery.lineage is not None):
                self.recovery.lineage.record(
                    "complete", task=msg["task"],
                    node=self.assignment.get(msg["task"], -1))
            if self.gc_arrays and not self.cancelled:
                self._collect(ctx, msg["task"])
        for i in range(self.n_nodes):
            ctx.write(f"out_{i}", DataBuffer({"op": "shutdown"}))


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """What a run produced, beyond the output arrays themselves."""

    wall_seconds: float
    assignment: dict[str, int]
    stream_stats: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: per-node metrics registry snapshots
    metrics: dict[int, dict] = field(default_factory=dict)
    #: structured runtime events (empty unless tracing was enabled)
    trace_events: list[TraceEvent] = field(default_factory=list)
    #: last watchdog diagnosis, when a mid-run stall was observed
    diagnosis: Diagnosis | None = None

    @property
    def total_loads(self) -> int:
        return sum(m.get("loads", 0) for m in self.metrics.values())

    @property
    def total_spills(self) -> int:
        return sum(m.get("spills", 0) for m in self.metrics.values())

    @property
    def total_remote_fetches(self) -> int:
        return sum(m.get("remote_fetches", 0) for m in self.metrics.values())

    # -- trace persistence ---------------------------------------------------

    def save_trace(self, path: str | Path) -> Path:
        """Write raw trace events as JSONL (``python -m repro trace <file>``)."""
        return save_events_jsonl(self.trace_events, path)

    def save_chrome_trace(self, path: str | Path) -> Path:
        """Write a ``chrome://tracing`` / Perfetto JSON file."""
        return export_chrome_trace(self.trace_events, path)


def _available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the allowance — inside a
    cgroup-limited container or under ``taskset`` it oversizes the pool
    and the extra workers just contend.  The scheduler affinity mask is
    the real budget; fall back to ``cpu_count`` where the platform has no
    ``sched_getaffinity`` (macOS, Windows).
    """
    try:
        return len(os.sched_getaffinity(0)) or (os.cpu_count() or 2)
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 2


def default_worker_count() -> int:
    """Worker filters per node when the caller doesn't say: cpu-aware,
    but never fewer than 2 (compute/copy overlap needs at least two) and
    never more than 8 (beyond that, GIL'd glue code dominates)."""
    return max(2, min(8, _available_cpus()))


#: process-wide engine instance counter.  Stamped into every segment-pool
#: tag so two engines running concurrently in one process (the job-server
#: pool) can never mint the same /dev/shm name: pool names are
#: ``dooc-seg-<pid>-e<engine>r<run>-<seq>`` — unique per (process,
#: engine, run, allocation).  ``itertools.count`` is atomic under the GIL.
_ENGINE_IDS = itertools.count(1)


class DOoCEngine:
    """Out-of-core, multi-node (threaded) execution of DOoC programs."""

    def __init__(
        self,
        *,
        n_nodes: int = 1,
        workers: int | None = None,
        io_filters_per_node: int = 1,
        memory_budget_per_node: int = 256 * 2**20,
        opcache_bytes: int | None = None,
        scratch_dir: str | Path | None = None,
        prefetch_depth: int = 2,
        rng_seed: int = 0,
        gc_arrays: bool = False,
        scheduler_reorder: bool = True,
        trace: bool | Tracer = False,
        watchdog_quiet_s: float | None = 10.0,
        faults: FaultPlan | None = None,
        io_retry: RetryPolicy | None = None,
        task_max_attempts: int = 3,
        task_max_reroutes: int | None = None,
        protocol_checkers: bool | None = None,
        membership: MembershipConfig | bool | None = None,
        node_recovery: bool = True,
        worker_plane: str = "thread",
        codec: str | None = None,
    ):
        if workers is None:
            # cpu_count-aware default: SpMV kernels release the GIL inside
            # scipy, so distinct ready tasks genuinely overlap; capped so a
            # many-core box doesn't drown a small run in idle threads.
            workers = default_worker_count()
        if n_nodes < 1 or workers < 1 or io_filters_per_node < 1:
            raise DoocError("n_nodes, workers and I/O filters must be >= 1")
        if task_max_attempts < 1:
            raise DoocError("task_max_attempts must be >= 1")
        self.n_nodes = n_nodes
        self.workers_per_node = workers
        self.io_filters_per_node = io_filters_per_node
        self.memory_budget_per_node = memory_budget_per_node
        #: on-disk block codec, snapshotted ONCE here: ``None`` samples
        #: DOOC_CODEC, and every descriptor the run spills is stamped with
        #: this snapshot — a mid-run flip of the environment variable
        #: cannot split readers from writers.
        self.codec = resolve_codec(codec)
        if worker_plane not in ("thread", "process"):
            raise DoocError(
                f"unknown worker_plane {worker_plane!r}: "
                "expected 'thread' or 'process'")
        self.worker_plane = worker_plane
        #: decoded-operand cache budget per node (0 disables; None = a
        #: quarter of the memory budget)
        if opcache_bytes is None:
            opcache_bytes = memory_budget_per_node // 4
        if opcache_bytes < 0:
            raise DoocError("opcache_bytes must be >= 0")
        self.opcache_bytes = int(opcache_bytes)
        self.prefetch_depth = prefetch_depth
        self.gc_arrays = gc_arrays
        self.scheduler_reorder = scheduler_reorder
        #: deterministic fault plan (None or all-zero probabilities = off)
        self.faults = faults
        #: I/O retry/backoff policy; None uses the IOFilter default
        self.io_retry = io_retry
        #: per-node execution attempts before a task escalates to a reroute
        self.task_max_attempts = task_max_attempts
        #: cross-node reroutes before giving up (None = every other node)
        self.task_max_reroutes = task_max_reroutes
        #: failure detection: a MembershipConfig (or True for defaults)
        #: turns on heartbeats + the alive/suspect/dead tracker; None
        #: auto-enables it exactly when the fault plan injects node kills
        self.membership = membership
        #: on a declared death, reconstruct (True) or fail with a named
        #: NodeLostError (False)
        self.node_recovery = node_recovery
        #: run the protocol checkers (lock-order recorder, ticket-lifecycle
        #: auditor, pre-execution DAG validation)?  None defers to the
        #: ``DOOC_CHECKERS`` environment flag; production runs pay nothing.
        if protocol_checkers is None:
            from repro.analysis import checkers_enabled
            protocol_checkers = checkers_enabled()
        self.protocol_checkers = bool(protocol_checkers)
        #: ``trace=True`` records the run timeline (see repro.obs); a
        #: caller-provided Tracer is used as-is (e.g. a sim-clocked one).
        self.tracer = trace if isinstance(trace, Tracer) else Tracer(enabled=bool(trace))
        #: quiet seconds before the stall watchdog dumps a diagnosis;
        #: None disables the watchdog entirely.
        self.watchdog_quiet_s = watchdog_quiet_s
        self.rng = RngTree(rng_seed)
        self._engine_id = next(_ENGINE_IDS)
        self._scratch_finalizer = None
        if scratch_dir is None:
            # mkdtemp + a silent finalizer rather than TemporaryDirectory:
            # engines routinely live until garbage collection (fetch() reads
            # the scratch files after run()), and TemporaryDirectory's
            # implicit-cleanup ResourceWarning turns every such engine into
            # noise under ``-W error::ResourceWarning``.  The owning pid is
            # stamped into the name so the stale-resource sweeper
            # (repro.server.sweep) can tell an orphan from a live run's dir.
            scratch_dir = tempfile.mkdtemp(prefix=f"dooc-{os.getpid()}-")
            self._scratch_finalizer = weakref.finalize(
                self, shutil.rmtree, scratch_dir, True)
        self.scratch_root = Path(scratch_dir)
        #: what run N+1 may reuse of run N (see repro.core.session)
        self._session = EngineSession()
        self.stores: dict[int, LocalStore] = {}
        self._descs: dict[str, ArrayDesc] = {}
        self._homes: dict[str, int] = {}
        #: the last run's failure detector (None until a membership run)
        self._tracker: MembershipTracker | None = None
        #: process-plane state (None on the thread plane): the shared
        #: memory segment pool backing the last run's sealed blocks, and
        #: the worker-process fleet.  Both are per-run; the pool of run N
        #: is closed once run N+1 has rebuilt the stores (fetch() between
        #: runs reads store views, which survive the segment unlink).
        self._segment_pool: SegmentPool | None = None
        self._proc_pool: ProcessWorkerPool | None = None
        self._run_seq = 0  # disambiguates segment names across runs

    def cleanup(self) -> None:
        """End the session and delete an engine-owned scratch directory
        now; the engine stays usable, its next run starting cold."""
        self._session.close()
        if self._proc_pool is not None:
            self._proc_pool.shutdown()
            self._proc_pool = None
        if self._segment_pool is not None:
            self._segment_pool.close()
            self._segment_pool = None
        if self._scratch_finalizer is not None:
            self._scratch_finalizer()

    def node_scratch(self, node: int) -> Path:
        path = self.scratch_root / f"node{node}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _membership_config(self) -> MembershipConfig | None:
        m = self.membership
        if isinstance(m, MembershipConfig):
            return m
        if m is True:
            return MembershipConfig()
        if m is None and self.faults is not None and self.faults.node_kill:
            # Injecting node deaths without a failure detector would just
            # produce unexplained stalls; arm the default detector.
            return MembershipConfig()
        return None

    def _reseed_array(self, array: str, dead: int, new_home: int) -> None:
        """Recover a lost *initial* array by re-reading its backing file.

        In the paper's deployment input files live on a shared parallel
        filesystem that outlives any compute node; here the corpse's
        scratch directory plays that role (threads don't take disks with
        them), so re-seeding is a byte copy into the new home's scratch.
        """
        from repro.core.iofilter import copy_array_files
        copy_array_files(self.node_scratch(dead), self.node_scratch(new_home),
                         array)

    # -- run ---------------------------------------------------------------------

    def run(self, program: Program, *, timeout: float = 300.0,
            cancel: CancelToken | None = None) -> RunReport:
        """Submit ``program`` to this engine's stores and run it.

        The stores outlive the run (DESIGN.md, "Session lifetime"): the
        next run finds the arrays it declares again from unchanged
        scratch files still resident.  Leaving by any exception closes
        the session, so the run after a failure starts cold.
        """
        carried = self._session.take()
        auditor = self._validate(program)
        dag = program.build_dag()
        assignment, nbytes = self._place(program, dag)
        backing = self._seed(program)
        old_pool = self._segment_pool
        proc_pool = self._open_worker_plane()
        directories, injectors = self._open_stores(
            program, assignment, carried, backing, auditor)
        if old_pool is not None:
            # Run N-1's segments: already unlinked in that run's finally;
            # re-close to sweep mappings whose views died with the old
            # stores just replaced above.
            old_pool.close()
        membership_cfg, tracker, recovery = self._open_membership(
            program, assignment, nbytes)
        layout = self._build_layout(program, dag, assignment, directories,
                                    nbytes, injectors,
                                    membership_cfg=membership_cfg,
                                    tracker=tracker, recovery=recovery,
                                    cancel=cancel)
        recorder = None
        if self.protocol_checkers:
            from repro.analysis.lockorder import LockOrderRecorder
            recorder = LockOrderRecorder()
        runtime = ThreadedRuntime(layout, lock_recorder=recorder)
        watchdog = self._build_watchdog(runtime, tracker)
        self.tracer.instant(-1, "engine", "run", "phase",
                            phase="start", program=program.name)
        started = time.monotonic()
        leaked_leases = self._execute(runtime, watchdog, tracker, recovery,
                                      proc_pool, timeout)
        self.tracer.instant(-1, "engine", "run", "phase", phase="end")
        if auditor is not None:
            # Every grant on every node must have been unwound by a release
            # or an abandonment; leaks are named ticket-by-ticket.
            auditor.assert_clean()
            if leaked_leases:
                detail = ", ".join(
                    f"{n} x{c}" for n, c in sorted(leaked_leases.items()))
                raise SegmentLeakError(
                    f"segment leases leaked past the run: {detail}")
        gsched_filter = runtime.instances["gsched"][0].filter
        if getattr(gsched_filter, "cancelled", False):
            # The scheduler drained the run for the token (the flag, not
            # the raw token, is authoritative: a token set after the DAG
            # completed must not fail a finished run).  Raised after the
            # audits above, so a cancelled run is certified exactly as
            # clean as a completed one.
            reason = cancel.reason if cancel is not None else "cancelled"
            raise RunCancelled(f"run cancelled: {reason}", reason=reason)
        report = self._report(time.monotonic() - started, assignment, runtime,
                              recovery, watchdog)
        if self.worker_plane == "thread" and not (
                tracker is not None and tracker.dead_nodes()):
            # Reusable as they stand.  Not on the process plane, whose
            # blocks lived in the segments this run just unlinked; not
            # after a death, which left a corpse's store and moved homes.
            self._session.commit(backing)
        return report

    def _validate(self, program: Program):
        """Under the protocol checkers, reject a malformed program by name
        before any thread starts; returns the run's ticket auditor."""
        if not self.protocol_checkers:
            return None
        from repro.analysis.dagcheck import validate_tasks
        from repro.analysis.tickets import TicketAuditor
        # TaskDAG would reject the same programs, but mid-construction and
        # with less precise messages (e.g. a cycle candidate set, not a path).
        validate_tasks(program.tasks, set(program.initial_data))
        return TicketAuditor()

    def _place(self, program: Program,
               dag: TaskDAG) -> tuple[dict[str, int], dict[str, int]]:
        """Fix the run's descriptors, array homes and task assignment."""
        # Stamp the engine's codec snapshot onto every descriptor that
        # doesn't pin one of its own: spills, loads, and checkpoints all
        # see the same codec for the whole run.  (Pre-seeded files keep
        # working regardless — readers probe the on-disk layout.)
        self._descs = {
            name: d if d.codec is not None else replace(d, codec=self.codec)
            for name, d in program.arrays.items()
        }
        nbytes = {name: d.nbytes for name, d in self._descs.items()}
        for name, home in program.initial_home.items():
            if not 0 <= home < self.n_nodes:
                raise DoocError(
                    f"initial array {name!r} homed on node {home}, but the "
                    f"engine has {self.n_nodes} nodes"
                )
        gsched = GlobalScheduler(dag, self.n_nodes,
                                 array_homes=program.initial_home,
                                 array_nbytes=nbytes)
        assignment = gsched.assign_all()
        self._homes = dict(gsched.array_homes)
        return assignment, nbytes

    def _seed(self, program: Program) -> dict[str, FileBacking]:
        """Write the seeded initial arrays to their homes' scratch, and
        identify the files behind the ones declared from scratch."""
        backing: dict[str, FileBacking] = {}
        for name, data in program.initial_data.items():
            home = program.initial_home[name]
            scratch = self.node_scratch(home)
            if data is not None:
                write_array(scratch, self._descs[name], data)
                continue
            identity = backing_identity(scratch, name)
            if identity is None:
                raise DoocError(
                    f"initial array {name!r} declared from scratch but "
                    f"no backing file exists on node {home}"
                )
            backing[name] = FileBacking(self._descs[name], home, identity)
        return backing

    def _open_worker_plane(self) -> ProcessWorkerPool | None:
        """Process plane: per-run segment pool + worker-process fleet.

        Children are forked NOW, while this process is still
        single-threaded (the runtime's threads have not started).
        """
        proc_pool: ProcessWorkerPool | None = None
        if self.worker_plane == "process":
            self._run_seq += 1
            # e<engine>r<run>: two concurrent engines in one process get
            # disjoint /dev/shm namespaces (a bare r<run> tag used to
            # collide — both engines' first run minted dooc-seg-<pid>-r1-0).
            self._segment_pool = SegmentPool(
                tag=f"e{self._engine_id}r{self._run_seq}")
            proc_pool = ProcessWorkerPool(
                self.n_nodes, self.workers_per_node, self.opcache_bytes)
            proc_pool.start()
        else:
            self._segment_pool = None
        self._proc_pool = proc_pool
        return proc_pool

    def _open_stores(self, program: Program, assignment: dict[str, int],
                     carried: dict[str, FileBacking] | None,
                     backing: dict[str, FileBacking], auditor,
                     ) -> tuple[dict[int, DirectoryClient],
                                dict[int, FaultInjector | None]]:
        """Per-node stores — the session's, or fresh ones — with every
        array of the program that is not already there registered."""
        self.stores = self._session.open_stores(
            carried, backing, n_nodes=self.n_nodes,
            memory_budget=self.memory_budget_per_node,
            opcache_bytes=self.opcache_bytes,
            segment_pool=self._segment_pool, tracer=self.tracer)
        directories = {}
        injectors: dict[int, FaultInjector | None] = {}
        inject = self.faults is not None and self.faults.enabled
        for node, store in self.stores.items():
            consumed_here = {
                a
                for t in program.tasks
                if assignment[t.name] == node
                for a in t.inputs
            }
            for name, desc in self._descs.items():
                if store.has_array(name):
                    continue  # carried over from the last run
                home = self._homes[name]
                if home == node:
                    if name in program.initial_data:
                        store.register_on_disk(desc)
                    else:
                        store.create_array(desc)
                elif name in consumed_here:
                    store.register_remote(desc)
            store.auditor = auditor
            directories[node] = DirectoryClient(
                node, self.n_nodes, self.rng.child("directory", node))
            injectors[node] = FaultInjector(
                self.faults, node, metrics=store.metrics,
                tracer=self.tracer) if inject else None
        return directories, injectors

    def _open_membership(self, program: Program, assignment: dict[str, int],
                         nbytes: dict[str, int],
                         ) -> tuple[MembershipConfig | None,
                                    MembershipTracker | None,
                                    _RecoveryContext | None]:
        """The run's failure detector and what recovery needs (all None
        when node loss is not tracked)."""
        membership_cfg = self._membership_config()
        self._tracker = None
        if membership_cfg is None:
            return None, None, None
        self._tracker = MembershipTracker(self.n_nodes, membership_cfg)
        # Durable lineage: every (task, node, inputs, outputs) fact the
        # reconstruction planner relies on, journaled before the run.
        lineage = LineageLog(self.scratch_root / "lineage.jsonl")
        for t in program.tasks:
            lineage.record("task", task=t.name, node=assignment[t.name],
                           inputs=list(t.inputs), outputs=list(t.outputs))
        lineage.sync()
        return membership_cfg, self._tracker, _RecoveryContext(
            descs=self._descs, nbytes=nbytes, reseed=self._reseed_array,
            metrics=MetricsRegistry(), lineage=lineage,
            node_recovery=self.node_recovery)

    def _report(self, wall: float, assignment: dict[str, int],
                runtime: ThreadedRuntime, recovery: _RecoveryContext | None,
                watchdog: StallWatchdog | None) -> RunReport:
        metrics = {n: s.metrics.as_dict() for n, s in self.stores.items()}
        engine = recovery.metrics.as_dict() if recovery is not None else {}
        pool = self._segment_pool
        if pool is not None:
            # One pool serves every node's store, so what it cost is the
            # engine's to report: segments created, and the most shared
            # memory it ever held mapped beyond the blocks alive in it.
            engine["shm_segments_created"] = pool.created
            engine["shm_slack_peak_bytes"] = pool.slack_peak_bytes
        if engine:
            # Engine-level counters ride under the pseudo-node -1 (the
            # same convention the tracer uses for engine events).
            metrics[-1] = engine
        return RunReport(
            wall_seconds=wall,
            assignment=assignment,
            stream_stats=runtime.stream_stats(),
            metrics=metrics,
            trace_events=self.tracer.drain(),
            diagnosis=watchdog.last_diagnosis if watchdog is not None else None,
        )

    def _execute(self, runtime: ThreadedRuntime,
                 watchdog: StallWatchdog | None,
                 tracker: MembershipTracker | None,
                 recovery: _RecoveryContext | None,
                 proc_pool: ProcessWorkerPool | None,
                 timeout: float) -> dict[str, int]:
        """Run the filter graph to completion, turning its failures into
        named errors; returns the segment leases the run leaked."""
        try:
            if watchdog is not None:
                watchdog.start()
            runtime.run(timeout=timeout)
        except FilterError as exc:
            # A declared node loss that could not be recovered (no
            # survivors, or node_recovery=False) surfaces by name rather
            # than as an opaque filter crash.
            cause = self._node_loss_cause(runtime, exc)
            if cause is not None:
                raise cause from exc
            raise
        except TimeoutError as exc:
            # Replace the runtime's opaque timeout with the watchdog's view
            # of who is stuck (blocked tickets, queued allocations, ready
            # pools); StallError still `is a` TimeoutError for old callers.
            diagnosis = watchdog.diagnose() if watchdog is not None else None
            message = str(exc)
            if diagnosis is not None:
                message = f"{message}\n{diagnosis.render()}"
            if tracker is not None and tracker.dead_nodes():
                # Not a generic stall: a node is dead and the run wedged
                # anyway.  Name the corpse and what it took with it.
                dead = tracker.dead_nodes()[0]
                lost = sum(
                    len(list(d.blocks()))
                    for a, d in self._descs.items()
                    if self._homes.get(a) == dead)
                raise NodeLostError(
                    f"node {dead} was declared dead and the run did not "
                    f"recover in time: {message}", diagnosis,
                    node=dead, lost_blocks=lost) from exc
            raise StallError(message, diagnosis) from exc
        finally:
            if watchdog is not None:
                watchdog.stop()
            if recovery is not None:
                recovery.lineage.close()
            if proc_pool is not None:
                proc_pool.shutdown()
            if self._segment_pool is not None:
                # Record any leaked leases for the audit, then unlink
                # everything: /dev/shm is clean after *every* run, success
                # or not.  fetch() keeps working — the stores' sealed
                # views outlive the unlink.
                leaked_leases = self._segment_pool.lease_counts()
                self._segment_pool.close()
            else:
                leaked_leases = {}
        return leaked_leases

    @staticmethod
    def _node_loss_cause(runtime: ThreadedRuntime,
                         exc: FilterError) -> NodeLostError | None:
        """Find a NodeLostError among the runtime's filter failures."""
        errors = list(getattr(runtime, "_errors", None) or [])
        for err in [exc, *errors]:
            cause = getattr(err, "cause", None)
            if isinstance(cause, NodeLostError):
                return cause
        return None

    def _build_watchdog(self, runtime: ThreadedRuntime,
                        tracker: MembershipTracker | None = None,
                        ) -> StallWatchdog | None:
        if not self.watchdog_quiet_s:
            return None
        watchdog = StallWatchdog(self.tracer, quiet_s=self.watchdog_quiet_s)
        for node, store in self.stores.items():
            watchdog.watch_store(node, store)
        for node in range(self.n_nodes):
            lsched = runtime.instances[f"lsched@{node}"][0].filter
            watchdog.watch_scheduler(node, lsched.debug_snapshot)
        if tracker is not None:
            watchdog.watch_membership(
                lambda: tracker.snapshot(time.monotonic()))
        return watchdog

    def _build_layout(self, program: Program, dag: TaskDAG,
                      assignment: dict[str, int],
                      directories: dict[int, DirectoryClient],
                      nbytes: dict[str, int],
                      injectors: dict[int, FaultInjector | None],
                      *,
                      membership_cfg: MembershipConfig | None = None,
                      tracker: MembershipTracker | None = None,
                      recovery: _RecoveryContext | None = None,
                      cancel: CancelToken | None = None,
                      ) -> Layout:
        n = self.n_nodes
        heartbeat_s = (membership_cfg.heartbeat_s
                       if membership_cfg is not None else None)
        layout = Layout(program.name)
        layout.add_filter(
            "gsched", lambda: _GlobalSchedulerFilter(
                dag, assignment, n, gc_arrays=self.gc_arrays,
                homes=self._homes, max_reroutes=self.task_max_reroutes,
                tracer=self.tracer, membership=tracker, recovery=recovery,
                cancel=cancel))
        for node in range(n):
            store = self.stores[node]
            directory = directories[node]
            scratch = self.node_scratch(node)
            injector = injectors[node]
            layout.add_filter(
                f"storage@{node}",
                lambda node=node, store=store, directory=directory,
                injector=injector: _StorageFilter(
                    node, n, store, directory, self._descs, self.tracer,
                    injector=injector),
            )
            layout.add_filter(
                f"io@{node}",
                lambda node=node, scratch=scratch, store=store,
                injector=injector: IOFilter(
                    scratch, node=node, tracer=self.tracer,
                    retry=self.io_retry, injector=injector,
                    metrics=store.metrics,
                    segment_pool=self._segment_pool),
                instances=self.io_filters_per_node,
                replicable=True,
            )
            layout.add_filter(
                f"lsched@{node}",
                lambda node=node, store=store,
                injector=injector: _LocalSchedulerFilter(
                    node, self.workers_per_node, nbytes,
                    prefetch_depth=self.prefetch_depth,
                    reorder=self.scheduler_reorder,
                    tracer=self.tracer,
                    metrics=store.metrics,
                    max_attempts=self.task_max_attempts,
                    heartbeat_s=heartbeat_s,
                    injector=injector),
            )
            layout.add_filter(
                f"worker@{node}",
                lambda node=node, store=store,
                injector=injector: _WorkerFilter(
                    node, self._descs, self.tracer, injector=injector,
                    metrics=store.metrics, opcache=store.opcache,
                    plane=self._proc_pool,
                    segment_pool=self._segment_pool),
                instances=self.workers_per_node,
                replicable=True,
            )
            # Control plane
            layout.connect("gsched", f"out_{node}", f"lsched@{node}", "in",
                           capacity=1024)
            layout.connect(f"lsched@{node}", "to_gsched", "gsched", "in",
                           capacity=1024)
            layout.connect(f"lsched@{node}", "to_workers", f"worker@{node}", "in",
                           policy=DistributionPolicy.DIRECTED, capacity=64)
            layout.connect(f"worker@{node}", "to_lsched", f"lsched@{node}",
                           "from_workers", capacity=64)
            # Storage plane
            layout.connect(f"worker@{node}", "to_storage", f"storage@{node}",
                           "req", capacity=256)
            layout.connect(f"lsched@{node}", "to_storage", f"storage@{node}",
                           "req", capacity=256)
            layout.connect(f"storage@{node}", "rep_workers", f"worker@{node}",
                           "from_storage", policy=DistributionPolicy.DIRECTED,
                           capacity=256)
            layout.connect(f"storage@{node}", "rep_lsched", f"lsched@{node}",
                           "from_storage", capacity=256)
            layout.connect(f"storage@{node}", "io_cmd", f"io@{node}", "in",
                           capacity=256)
            layout.connect(f"io@{node}", "out", f"storage@{node}", "io_done",
                           capacity=256)
        # Peer-to-peer storage links ("complete peer-to-peer connections").
        for i in range(n):
            for j in range(n):
                if i != j:
                    layout.connect(f"storage@{i}", f"peer_out_{j}",
                                   f"storage@{j}", "peer_in", capacity=256)
        return layout

    # -- result access ----------------------------------------------------------------

    def persist(self, name: str) -> int:
        """Write a completed array to its home node's scratch; returns
        that node.  Later programs may then declare the array
        ``initial_from_scratch`` there, and while the session lasts they
        find it still resident instead of reading the file back."""
        data = self.fetch(name)
        desc, home = self._descs[name], self._homes[name]
        scratch = self.node_scratch(home)
        write_array(scratch, desc, data)
        self.stores[home].mark_on_disk(name)
        self._session.adopt(
            name, FileBacking(desc, home, backing_identity(scratch, name)))
        return home

    def fetch(self, name: str) -> np.ndarray:
        """Gather a (completed) array after a run."""
        desc = self._descs.get(name)
        if desc is None:
            raise DoocError(f"unknown array {name!r}")
        home = self._homes[name]
        store = self.stores[home]
        scratch = self.node_scratch(home)
        parts = []
        for b in desc.blocks():
            data = store.peek_block(name, b)
            if data is None:
                if not store.block_on_disk(name, b):
                    raise DoocError(
                        f"block {b} of {name!r} was never produced"
                    )
                data = read_block(scratch, desc, b)
            parts.append(np.asarray(data))
        return np.concatenate(parts)

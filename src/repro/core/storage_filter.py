"""The storage filter: the event loop around one node's ``LocalStore``.

:mod:`repro.core.storage` decides (a pure state machine returning
effects); this filter carries them out as messages — loads and spills to
the I/O filters, grants to workers, residency notes to the local
scheduler, the fetches and owner lookups the node's ``DirectoryClient``
asks of its peers — and feeds back the answers.
The notes, on the one FIFO stream ``rep_lsched``, are all the scheduler
knows of the store (it never asks); each names one array: ``resident``,
``dropped``, ``declined`` (a prefetch found no headroom) or ``failed``.
Every prefetch gets exactly one of ``resident``, ``declined``, ``failed``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.array import ArrayDesc
from repro.core.directory import DirectoryClient, Send
from repro.core.errors import StorageError
from repro.core.interval import Interval, Permission, whole_array
from repro.core.storage import Effect, LocalStore, Ticket
from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
from repro.datacutter.errors import StreamClosedError
from repro.datacutter.filters import Filter, FilterContext
from repro.faults import FaultInjector
from repro.obs import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import RunState


class _StorageFilter(Filter):
    """Per-node storage service: the event loop around LocalStore.

    Besides the fault-free protocol, this filter sends the node's
    peer-fault recovery: the directory keeps the fetches and owner lookups
    in flight and hands back their retransmits when due (a lost message
    must not strand a read waiter), and exhausted I/O retries arriving as
    ``io_error`` replies are turned into fail-fast ticket denials instead
    of stalls.  Pending recovery work carries its own deadlines (a delayed
    send's, a retransmit's); the loop reads until the earliest one, and
    untimed while there is none, so fault-free runs pay nothing for it.
    """

    inputs = ("req", "io_done", "peer_in")

    def __init__(self, node: int, n_nodes: int, run: RunState,
                 tracer: Tracer | None = None):
        self.node = node
        self.n_nodes = n_nodes
        self.tracer = tracer or Tracer(enabled=False)
        self.outputs = ("rep_workers", "rep_lsched", "io_cmd") + tuple(
            f"peer_out_{j}" for j in range(n_nodes) if j != node
        )
        self._outstanding_io = 0
        self._io_closed = False
        #: a "shutdown" or "die" arrived: the graph is winding down
        self._closing = False
        self.begin(run)

    def begin(self, run: RunState) -> None:
        """Bind the next run: the node's store, directory and faults, the
        run's descriptors; no protocol state of the run before."""
        self.store: LocalStore = run.stores[self.node]
        self.store.plan_uses(_uses_here(run, self.node))
        self.directory: DirectoryClient = run.directories.get(self.node)
        self.descs: dict[str, ArrayDesc] = run.descs
        self.injector: FaultInjector | None = run.injectors.get(self.node)
        #: stamped on every peer message; one from another run is dropped
        self._seq = run.seq
        #: no new work is started: the run is ending, or the graph
        self._draining = False
        #: the run's "end" arrived: answered once no grant is out and no
        #: I/O in flight (``_maybe_end``)
        self._ending = False
        #: answered: the engine may use the store until the next run
        self._ended = False
        #: grants handed to workers and not yet handed back
        self._lent = 0
        #: set by the "die" op (injected node loss): the filter keeps its
        #: threads' streams flowing but does no protocol work — a corpse
        #: must exit orderly, never crash the shared runtime
        self._dead = False
        # array -> (home, on_disk, recover) of rehomes blocked on a pin
        self._rehome_pending: dict[str, tuple[int, bool, bool]] = {}
        # arrays whose GC delete raced an in-flight pin; retried on release
        self._gc_pending: set[str] = set()
        # (span name, array, block) -> tracer start time of the transfer
        self._io_started: dict[tuple[str, str, int], float] = {}
        self._last_queue_depth = 0
        # injected-delay holding pen: (due monotonic time, peer, payload)
        self._delayed: list[tuple[float, int, dict]] = []

    # -- helpers --------------------------------------------------------------

    def _peer_send(self, ctx: FilterContext, peer: int, payload: dict) -> None:
        payload["run"] = self._seq
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

    def _serve_peer(self, ctx: FilterContext, peer: int, ticket: Ticket) -> None:
        """Answer ``peer``'s fetch with the block its read grant covers."""
        iv = ticket.interval
        # Zero-copy serve: the granted view is read-only and the block
        # is sealed (write-once), so the peer may share the memory; it
        # stays alive through numpy's base reference even if this node
        # reclaims the buffer afterwards.
        self._peer_write(ctx, peer, {
            "op": "blockdata",
            "array": iv.array,
            "block": iv.block,
            "data": np.asarray(ticket.data),
        })
        # Served: release our local pin immediately.
        self._execute(ctx, self.store.release(ticket))

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
            if e.kind in ("load", "spill"):
                self._outstanding_io += 1
                self._io_started[(e.kind, e.array, e.block)] = self.tracer.now()
                cmd = {"desc": self.descs[e.array], "block": e.block}
                ctx.write("io_cmd", DataBuffer(
                    {"op": "load", "out": e.data, **cmd}
                    if e.kind == "load" else
                    {"op": "store", "data": e.data, **cmd}))
            elif e.kind == "drop":
                # Memory already reclaimed by the store; tell the local
                # scheduler, which may be blocked waiting for headroom or
                # counting on this block being resident.
                self.tracer.instant(self.node, "storage", "storage", "drop",
                                    array=e.array, block=e.block)
                self._note(ctx, "dropped", e.array)
            elif e.kind == "fetch_remote":
                self._io_started[
                    ("fetch_remote", e.array, e.block)] = self.tracer.now()
                self._ask(ctx, self.directory.fetch(
                    e.array, e.block, time.monotonic()))
            elif e.kind in ("grant_read", "grant_write"):
                assert e.ticket is not None
                tag = e.ticket.tag
                if tag[0] == "worker":
                    self._lent += 1
                    self._worker_reply(replies, tag[1])["tickets"].append(
                        e.ticket)
                elif tag[0] == "peer":
                    self._serve_peer(ctx, tag[1], e.ticket)
                else:  # pragma: no cover - defensive
                    raise StorageError(f"unroutable grant tag {tag!r}")
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

    def _end_io_span(self, name: str, array: str, block: int) -> None:
        start = self._io_started.pop((name, array, block), None)
        if start is not None:
            self.tracer.complete(self.node, "storage", "storage", name,
                                 start, array=array, block=block)

    def _ask(self, ctx: FilterContext, sends: list[Send]) -> None:
        """Write the directory's requests; count and trace its retries."""
        for req in sends:
            if req.why == "retry":
                self.store.metrics.inc(f"{req.op}_retransmits")
                args = ({"block": req.block, "owner": req.peer}
                        if req.op == "fetch" else {"peer": req.peer})
                self.tracer.instant(self.node, "storage", "storage",
                                    f"{req.op}_retry", array=req.array, **args)
            elif req.why == "restart":
                # Every live peer answered "miss": possible transiently
                # while a reroute's rehome propagates, or after message
                # loss confused the walk.  A genuine orphan shows up as
                # lookup_restarts climbing in the diagnosis.
                self.store.metrics.inc("lookup_restarts")
                self.tracer.instant(self.node, "storage", "storage",
                                    "lookup_restart", array=req.array)
            payload = {"op": req.op, "array": req.array, "from": self.node}
            if req.op == "fetch":
                payload["block"] = req.block
            self._peer_write(ctx, req.peer, payload)

    def _tick(self, ctx: FilterContext) -> None:
        """Flush due delayed messages; send the retransmits now due."""
        now = time.monotonic()
        if self._delayed:
            due = [d for d in self._delayed if d[0] <= now]
            if due:
                self._delayed = [d for d in self._delayed if d[0] > now]
                for _, peer, payload in due:
                    self._peer_send(ctx, peer, payload)
        self._ask(ctx, self.directory.due(now))

    def _handle_peer(self, ctx: FilterContext, msg: dict) -> None:
        if self._ended or msg["run"] != self._seq:
            # A peer still ending the run, or left over from the run
            # before: nobody waits for it, and the store is not ours now.
            return
        op = msg["op"]
        if op == "lookup":
            hit = self.store.has_array(msg["array"]) and not self.store.is_remote(msg["array"])
            self._peer_write(ctx, msg["from"], {
                "op": "lookup_reply", "array": msg["array"], "hit": hit,
                "owner": self.node})
        elif op == "lookup_reply":
            self._ask(ctx, self.directory.lookup_reply(
                msg["array"], msg["owner"], msg["hit"], time.monotonic()))
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
            self.directory.fetched(msg["array"], msg["block"])
            self._end_io_span("fetch_remote", msg["array"], msg["block"])
            self._execute(ctx, self.store.on_remote_data(
                msg["array"], msg["block"], msg["data"]))
            self._note_transfer(ctx, msg["array"])
        elif op == "fetch_failed":
            array, block = msg["array"], msg["block"]
            self.directory.fetched(array, block)
            # The cached owner may be stale (reroute): next fetch re-walks.
            self.directory.invalidate(array)
            self._execute(ctx, self.store.on_fetch_failed(
                array, block, msg["error"]))
            self._note(ctx, "failed", array)
        else:  # pragma: no cover - defensive
            raise StorageError(f"unknown peer op {op!r}")

    def _handle_request(self, ctx: FilterContext, msg: dict) -> None:
        op = msg["op"]
        if op == "acquire":
            self._handle_acquire(ctx, msg)
        elif op == "release":
            # A batch's tickets, all of them: ``tickets`` handed back —
            # reads released, writes published — and ``abandon``, the
            # granted-but-unpublished writes of the tasks that did not
            # finish, retracted.
            effects: list[Effect] = []
            self._lent -= len(msg["tickets"]) + len(msg["abandon"])
            for ticket in msg["tickets"]:
                effects.extend(self.store.release(ticket))
            for ticket in msg["abandon"]:
                effects.extend(self.store.abandon_write(ticket))
            self._execute(ctx, effects)
            for array in sorted(self.store.resident_among({  # published
                    t.interval.array for t in msg["tickets"]
                    if t.permission is Permission.WRITE})):
                self._note(ctx, "resident", array)
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
            array = msg["array"]
            dropped_before = self.store.metrics.get("prefetch_dropped")
            for iv in whole_array(self.descs[array]):
                self._execute(ctx, self.store.prefetch(iv))
            dropped = self.store.metrics.get("prefetch_dropped") - dropped_before
            if dropped:
                self.tracer.instant(self.node, "storage", "sched",
                                    "prefetch_dropped",
                                    array=array, blocks=dropped)
                self._note(ctx, "declined", array)
            else:
                self._note_transfer(ctx, array)
        elif op == "delete":
            self.directory.invalidate(msg["array"])
            self._try_delete(ctx, msg["array"])
        elif op == "end":
            # The DAG is done and every worker idle, but releases may still
            # be queued behind this on `req` (the worker and scheduler
            # streams merge unordered there), and I/O may be in flight:
            # ``_maybe_end`` answers once neither is.
            self._drain()
            self._ending = True
        elif op in ("shutdown", "die"):
            # Stop initiating work; processing continues until every inbound
            # stream reaches end-of-stream so that late releases still seal
            # their blocks.  "die" (injected permanent node loss) also stops
            # all protocol work: a corpse only consumes its streams, so
            # survivors' writes never wedge and the runtime winds down.
            if op == "die":
                self._dead = True
                self._rehome_pending.clear()
                if self.store.auditor is not None:
                    # A release still queued behind "die" is discarded
                    # with everything else; the corpse's tickets died
                    # with it.
                    self.store.auditor.forget_node(self.node)
            self._drain()
            self._closing = True
            for j in range(self.n_nodes):
                if j != self.node:
                    ctx.close(f"peer_out_{j}")
        else:  # pragma: no cover - defensive
            raise StorageError(f"unknown storage op {op!r}")

    def _drain(self) -> None:
        """Start no more work: abandon owner walks, retransmits, delayed
        sends and queued allocations (nothing waits for them any more)."""
        self._draining = True
        self.directory.clear()
        self._delayed.clear()
        self.store.abandon_pending_allocs()

    def _maybe_end(self, ctx: FilterContext) -> None:
        """Storage's half of the run's barrier: with every grant handed
        back and no I/O in flight, nothing of the run is left here."""
        if self._ending and self._lent == 0 and self._outstanding_io == 0:
            self._ending, self._ended = False, True
            ctx.write("rep_lsched", DataBuffer({"op": "ended",
                                                "node": self.node}))

    def _handle_acquire(self, ctx: FilterContext, msg: dict) -> None:
        """Serve a batch's one request: retire the uses of the ``tasks``
        it names from the store's plan, then ask for each read interval,
        then each write interval, in the order given.  What the store
        grants at once leaves as one reply; a grant that has to wait for a
        load or an allocation follows when it is made."""
        tag = msg["reply_to"]
        effects: list[Effect] = []
        replies: dict[int, dict] = {}
        self.store.retire_uses(msg["tasks"])
        for ivs, write in ((msg["reads"], False), (msg["writes"], True)):
            for iv in ivs:
                try:
                    if write:
                        ticket, granted = self.store.request_write(iv)
                    elif self.store.unproduced(iv):
                        # Recovery re-produces a dispatched task's input:
                        # waiting would hold a worker the replay may need.
                        raise StorageError(
                            f"{iv.array}[{iv.block}] is being reconstructed")
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
        may be mid-fetch from the dead owner, or waiting on an owner walk
        that had no live peer left to ask (those waiters are failed so
        their tasks retry against the new home), and a survivor may hold
        pinned cached copies.  Either kind parks while a block of the array
        is pinned and is retried on release — cached copies stay byte-valid
        under write-once and an unpublished output is readable by nobody, so
        waiting is safe.
        """
        waiting = self.directory.rehome(array)
        if recover and waiting:
            for block in waiting:
                self._execute(ctx, self.store.on_fetch_failed(
                    array, block,
                    f"owner of {array!r} died; re-homed to node {home}"))
            self._note(ctx, "failed", array)
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
        self._note(ctx, "resident" if self.store.resident_among({array})
                   else "dropped", array)

    def _handle_evict(self, ctx: FilterContext, dead: int) -> None:
        """Apply a dead-node eviction: ask the corpse nothing more.  What
        was asked of it goes to the survivors (``DirectoryClient.evict``);
        if the lost array is being reconstructed, the follow-up recovery
        rehome fails those blocks over to the new home."""
        if dead == self.node or dead in self.directory.evicted:
            return
        self.store.metrics.inc("peer_evictions")
        self.tracer.instant(self.node, "storage", "recovery", "node_evict",
                            dead=dead)
        self._ask(ctx, self.directory.evict(dead, time.monotonic()))
        self._delayed = [d for d in self._delayed if d[1] != dead]

    def deadline(self) -> float | None:
        """The earliest deadline of pending recovery work, if any."""
        dues = [d[0] for d in self._delayed]
        if (retransmit := self.directory.deadline()) is not None:
            dues.append(retransmit)
        return min(dues, default=None)

    on_deadline = _tick

    def on(self, ctx: FilterContext, port: str | None, buf) -> bool:
        if buf is END_OF_STREAM:
            return True  # the runtime closes io_cmd, if still open
        msg = buf.payload
        if port == "io_done":
            self._outstanding_io -= 1
        if self._dead:
            pass  # a corpse counts io_done (it gates the io_cmd close) only
        elif port == "req":
            self._handle_request(ctx, msg)
        elif port == "peer_in":
            self._handle_peer(ctx, msg)
        else:  # io_done
            if msg["op"] == "loaded":
                self._end_io_span("load", msg["desc"].name, msg["block"])
                self._execute(ctx, self.store.on_loaded(
                    msg["desc"].name, msg["block"], msg["data"]))
                self._note_transfer(ctx, msg["desc"].name)
            elif msg["op"] == "stored":
                self._end_io_span("spill", msg["desc"].name, msg["block"])
                self._execute(ctx, self.store.on_spilled(
                    msg["desc"].name, msg["block"]))
            elif msg["op"] == "io_error":
                self._on_io_error(ctx, msg)
            # "unlinked": nothing to do beyond the accounting above
            if not self._draining:
                # A finished load/spill may have unpinned a block a parked
                # delete or recovery rehome is waiting on.
                self._retry_parked(ctx)
        self._maybe_end(ctx)
        if self._closing and self._outstanding_io == 0 and not self._io_closed:
            # Closing io_cmd lets the I/O filters exit, which EOSes io_done;
            # the loop then runs to EOS of all ports, so every in-flight
            # release/peer message is still processed.
            ctx.close("io_cmd")
            self._io_closed = True
        return False

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
            self._note(ctx, "failed", name)
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
        # Only a block that reached disk left a file: an array that lived
        # and died in memory costs no I/O command (asked before
        # delete_array forgets the blocks).
        on_disk = not self.store.is_remote(name) and any(
            self.store.block_on_disk(name, b)
            for b in self.store.arrays[name].blocks())
        try:
            self._execute(ctx, self.store.delete_array(name))
        except StorageError:
            self._gc_pending.add(name)
            return
        self._gc_pending.discard(name)
        if on_disk and not self._io_closed:
            # Skipped during the post-close drain: a stale scratch file is
            # harmless (rediscovery is gated on array registration).
            self._outstanding_io += 1
            ctx.write("io_cmd", DataBuffer(
                {"op": "unlink", "desc": self.descs[name], "block": -1}))

    def _note(self, ctx: FilterContext, op: str, array: str) -> None:
        """Tell the local scheduler what just changed for ``array``."""
        if not self._draining:
            ctx.write("rep_lsched", DataBuffer({"op": op, "array": array}))

    def _note_transfer(self, ctx: FilterContext, array: str) -> None:
        """A prefetch of ``array`` was served, or a transfer of it landed:
        ``resident`` once all of it is; while a block is in transit its
        landing answers; else a block is absent (a reclaim took it back,
        or nothing was there to warm) and a prefetch is ``declined``."""
        if self.store.resident_among({array}):
            self._note(ctx, "resident", array)
        elif array not in self.store.loading_arrays():
            self._note(ctx, "declined", array)


def _uses_here(run: RunState, node: int) -> dict[str, dict[str, int]]:
    """The store's plan for a run: each array read on ``node``, mapped to
    the tasks placed there that read it, each with its depth in the DAG."""
    uses: dict[str, dict[str, int]] = {}
    if run.dag is None:
        return uses
    depth = run.dag.depth
    for name, where in run.assignment.items():
        if where == node:
            for a in run.dag.tasks[name].inputs:
                uses.setdefault(a, {})[name] = depth[name]
    return uses

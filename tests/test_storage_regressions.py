"""Regression tests for the storage/scheduler state-leak and liveness
bugs fixed alongside the observability layer:

* ``LocalStore.release`` used to leave emptied ``_write_tickets`` entries
  behind forever (one dead dict key per written block);
* ``LocalStore.delete_array`` mutated block state *before* validating,
  so a failed delete corrupted residency accounting;
* ``LocalSchedulerCore.forget_prefetch`` existed but was never called —
  an evicted prefetched block stayed in the scheduler's ``_prefetched``
  set and was never re-warmed;
* prefetches the store declines are now counted (``prefetch_dropped``).

The scheduler's side of the store is the notes it is sent
(``resident``, ``dropped``, ``declined``, ``failed``); the tests below
deliver them through ``filt.on(ctx, port, buf)``.
"""

import numpy as np
import pytest

from repro.core import DOoCEngine, Program
from repro.core.directory import DirectoryClient
from repro.core.errors import StorageError
from repro.core.interval import Interval, whole_block
from repro.core.local_scheduler import _LocalSchedulerFilter
from repro.core.session import RunState
from repro.core.storage import LocalStore
from repro.core.storage_filter import _StorageFilter
from repro.datacutter.buffers import DataBuffer
from repro.util.rng import RngTree
from tests.test_delivery_orders import RecordingContext


def desc(name="a", length=100, block=50, dtype="float64"):
    from repro.core.array import ArrayDesc
    return ArrayDesc(name, length=length, block_elems=block, dtype=dtype)


def grant_of(effects, kind="grant_write"):
    (e,) = [e for e in effects if e.kind == kind]
    return e.ticket


class TestWriteTicketLeak:
    def test_release_drops_emptied_entry(self):
        store = LocalStore(0, memory_budget=1 << 20)
        d = desc()
        store.create_array(d)
        t, eff = store.request_write(whole_block(d, 0))
        grant_of(eff).data[:] = 1.0
        store.release(t)
        assert store._write_tickets == {}

    def test_partial_release_keeps_live_entry(self):
        store = LocalStore(0, memory_budget=1 << 20)
        d = desc()
        store.create_array(d)
        t1, e1 = store.request_write(Interval("a", 0, 0, 20))
        t2, e2 = store.request_write(Interval("a", 0, 20, 50))
        grant_of(e1).data[:] = 1.0
        grant_of(e2).data[:] = 2.0
        store.release(t1)
        assert list(store._write_tickets[("a", 0)]) == [t2]
        store.release(t2)
        assert store._write_tickets == {}

    def test_engine_run_leaves_no_ticket_entries(self, tmp_path):
        prog = Program("leak", default_block_elems=32)
        x = np.arange(96, dtype=float)
        prog.initial_array("x", x)
        for i in range(3):
            prog.array(f"y{i}", 96)

            def fn(ins, outs, meta, i=i):
                (out,) = list(outs)
                outs[out][:] = ins["x"] * (i + 1)

            prog.add_task(f"t{i}", fn, ["x"], [f"y{i}"])
        eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path)
        eng.run(prog, timeout=60)
        for node, store in eng.stores.items():
            assert store._write_tickets == {}, f"leak on node {node}"


class TestDeleteArrayAtomicity:
    def _store_with_pinned_tail(self):
        """Array 'a' with block 0 resident+sealed and block 1 pinned."""
        store = LocalStore(0, memory_budget=1 << 20)
        d = desc()
        store.create_array(d)
        for b in (0, 1):
            t, eff = store.request_write(whole_block(d, b))
            grant_of(eff).data[:] = float(b)
            store.release(t)
        t_pin, eff = store.request_read(whole_block(d, 1))
        assert grant_of(eff, "grant_read") is t_pin
        return store, t_pin

    def test_failed_delete_leaves_state_untouched(self):
        store, t_pin = self._store_with_pinned_tail()
        in_use = store.in_use
        assert store.resident_among(["a"]) == {"a"}
        with pytest.raises(StorageError, match="in use"):
            store.delete_array("a")
        # The failing validation hit block 1; block 0 must be intact.
        assert store.has_array("a")
        assert store.in_use == in_use
        assert store.resident_among(["a"]) == {"a"}
        assert store.peek_block("a", 1) is not None
        assert store.peek_block("a", 0) is not None
        np.testing.assert_allclose(store.peek_block("a", 0), 0.0)

    def test_delete_succeeds_after_release(self):
        store, t_pin = self._store_with_pinned_tail()
        store.release(t_pin)
        effects = store.delete_array("a")
        assert {e.kind for e in effects} <= {"drop"}
        assert not store.has_array("a")
        assert store.in_use == 0

    def test_refused_rehome_changes_nothing(self):
        """A recovery rehome refused by a pin is parked and retried on
        release.  The refused attempt used to mark the array remote and
        free its unpinned blocks first; the retry then found it "already
        remote" and never purged the local state."""
        store, t_pin = self._store_with_pinned_tail()
        in_use = store.in_use
        with pytest.raises(StorageError, match="in use"):
            store.recover_remote(desc())
        assert not store.is_remote("a") and store.in_use == in_use
        assert store.peek_block("a", 0) is not None
        store.release(t_pin)
        effects = store.recover_remote(desc())
        assert [(e.kind, e.block) for e in effects] == [("drop", 0), ("drop", 1)]
        assert store.is_remote("a") and store.in_use == 0

    def test_retried_delete_is_not_poisoned(self):
        # Pre-fix, the failed attempt deleted block 0's state, so the
        # retry (after unpinning) underflowed in_use / raised KeyError.
        store, t_pin = self._store_with_pinned_tail()
        with pytest.raises(StorageError):
            store.delete_array("a")
        store.release(t_pin)
        store.delete_array("a")
        assert store.in_use == 0
        assert store._blocks == {}


class TestPrefetchDroppedMetric:
    def test_prefetch_without_headroom_is_counted(self):
        d = desc(length=100, block=50)  # two 400-byte blocks, budget for one
        store = LocalStore(0, memory_budget=500)
        store.create_array(d)

        def absorb(effects):
            for e in effects:
                if e.kind == "spill":
                    absorb(store.on_spilled(e.array, e.block))
                elif e.kind == "load":
                    absorb(store.on_loaded(e.array, e.block, np.zeros(50)))

        for b in (0, 1):
            t, eff = store.request_write(whole_block(d, b))
            absorb(eff)
            assert t.granted
            t.data[:] = float(b)
            absorb(store.release(t))
        # Pin block 0 (re-loaded from its spilled copy); block 1 goes to disk.
        t_pin, eff = store.request_read(whole_block(d, 0))
        absorb(eff)
        assert t_pin.granted
        assert store.block_on_disk("a", 1)
        assert store.peek_block("a", 1) is None  # on disk, not resident
        before = store.metrics.get("prefetch_dropped")
        assert store.prefetch(whole_block(d, 1)) == []  # no headroom: dropped
        assert store.metrics.get("prefetch_dropped") == before + 1


def storage_filter(store, descs):
    """Node 0's storage filter, bound to a one-node run over ``store``."""
    return _StorageFilter(0, 1, RunState(
        stores={0: store}, descs=descs,
        directories={0: DirectoryClient(0, 1, RngTree(0).child("directory", 0))}))


def notes(ctx):
    """What a storage filter told its local scheduler so far."""
    return [p for port, p in ctx.writes if port == "rep_lsched"]


def lsched_filter(nbytes, store=None, **kwargs):
    """Node 0's one-worker scheduler filter, bound to a one-node run."""
    stores = {} if store is None else {0: store}
    return _LocalSchedulerFilter(
        0, 1, RunState(nbytes=nbytes, stores=stores), **kwargs)


class TestForgetPrefetchWiring:
    def test_scheduler_core_forgets(self):
        from repro.core.local_scheduler import LocalSchedulerCore
        from repro.core.task import TaskSpec

        core = LocalSchedulerCore(0, prefetch_depth=2)
        core.add_ready(TaskSpec("t", lambda *a: None, ("a",), ("y",)))
        plan = core.prefetch_plan(frozenset(), {"a": 8, "y": 8})
        assert plan == ["a"]
        # Still marked: would not be planned again...
        assert core.prefetch_plan(frozenset(), {"a": 8, "y": 8}) == []
        # ...until the storage reports the block was dropped.
        core.forget_prefetch("a")
        assert core.prefetch_plan(frozenset(), {"a": 8, "y": 8}) == ["a"]

    def test_storage_filter_forwards_drop(self):
        from repro.core.storage import Effect

        store = LocalStore(0, memory_budget=1 << 20)
        filt = storage_filter(store, {})
        ctx = RecordingContext()
        filt._execute(ctx, [Effect("drop", "a", 0)])
        assert ("rep_lsched", {"op": "dropped", "array": "a"}) in ctx.writes

    def test_lsched_filter_rearms_on_dropped_note(self):
        from repro.core.task import TaskSpec

        filt = lsched_filter({"a": 8, "y": 8})
        filt.core.add_ready(TaskSpec("t", lambda *a: None, ("a",), ("y",)))
        assert filt.core.prefetch_plan(frozenset(), filt.nbytes) == ["a"]
        filt.on(RecordingContext(), "from_storage",
                DataBuffer({"op": "dropped", "array": "a"}))
        assert filt.core.prefetch_plan(frozenset(), filt.nbytes) == ["a"]

    def test_each_prefetch_is_answered_once(self):
        """The scheduler's event-driven wait-or-force rule reads what it
        may wait for off the notes: a prefetch that found headroom is
        answered ``resident`` when its load lands, one that did not
        ``declined`` at once, one whose load failed ``failed``; none of
        them twice."""
        d_fit, d_bad, d_big = (desc("fit", 8, 8), desc("bad", 8, 8),
                               desc("big", 64, 64))
        store = LocalStore(0, memory_budget=128)
        for d in (d_fit, d_bad, d_big):
            store.register_on_disk(d)
        filt = storage_filter(store, {d.name: d for d in (d_fit, d_bad, d_big)})
        ctx = RecordingContext()

        # 64 B loads reserved twice, then 512 B asked
        for array in ("fit", "bad", "big"):
            filt.on(ctx, "req", DataBuffer({"op": "prefetch", "array": array}))
        assert notes(ctx) == [{"op": "declined", "array": "big"}]
        assert [p["desc"].name for port, p in ctx.writes
                if port == "io_cmd"] == ["fit", "bad"]
        filt.on(ctx, "io_done", DataBuffer(
            {"op": "loaded", "desc": d_fit, "block": 0, "data": np.zeros(8)}))
        filt.on(ctx, "io_done", DataBuffer(
            {"op": "io_error", "failed_op": "load", "desc": d_bad,
             "block": 0, "error": "OSError()"}))
        assert notes(ctx)[1:] == [{"op": "resident", "array": "fit"},
                                  {"op": "failed", "array": "bad"}]

    def test_resident_is_said_of_whole_sealed_arrays(self):
        """``resident`` is said of an array once every block of it is
        resident and sealed — by the load of its last block, or by the
        release that publishes its last range — and not before: not while
        a block is still loading, not after a partial write.  A prefetch
        that meets a block being spilled is declined."""
        descs = {n: desc(n, 16, 8) for n in ("loading", "spilling", "unsealed")}
        store = LocalStore(0, memory_budget=1 << 20)
        filt = storage_filter(store, descs)
        ctx = RecordingContext()

        def loaded(block):
            filt.on(ctx, "io_done", DataBuffer(
                {"op": "loaded", "desc": descs["loading"], "block": block,
                 "data": np.zeros(8)}))

        def release(*tickets):
            filt.on(ctx, "req", DataBuffer(
                {"op": "release", "tickets": list(tickets), "abandon": []}))

        store.register_on_disk(descs["loading"])
        filt.on(ctx, "req", DataBuffer({"op": "prefetch", "array": "loading"}))
        loaded(1)  # block 0 still in flight
        assert notes(ctx) == []
        loaded(0)
        assert notes(ctx) == [{"op": "resident", "array": "loading"}]

        store.create_array(descs["unsealed"])
        tickets = []
        for block, lo, hi in ((0, 0, 8), (1, 8, 12), (1, 12, 16)):
            t, eff = store.request_write(Interval("unsealed", block, lo, hi))
            grant_of(eff).data[:] = 1.0
            tickets.append(t)
        release(*tickets[:2])
        assert len(notes(ctx)) == 1  # block 1 is half written
        release(tickets[2])
        assert notes(ctx)[1:] == [{"op": "resident", "array": "unsealed"}]

        store.create_array(descs["spilling"])
        for b in (0, 1):
            t, eff = store.request_write(whole_block(descs["spilling"], b))
            grant_of(eff).data[:] = 1.0
            store.release(t)
        store._blocks[("spilling", 1)].status = "spilling"
        filt.on(ctx, "req", DataBuffer({"op": "prefetch", "array": "spilling"}))
        assert notes(ctx)[2:] == [{"op": "declined", "array": "spilling"}]

    def test_lsched_filter_rearms_declined_once_drops_free_its_size(self):
        """A prefetch never evicts and never queues, so only freed memory
        can let a declined one succeed: ``dropped`` notes re-arm it once
        the arrays they name add up to its size; no other note does."""
        from repro.core.task import TaskSpec

        nbytes = {"a": 16, "b": 8, "c": 8, "d": 8, "y": 8, "z": 8}
        filt = _LocalSchedulerFilter(0, 2, RunState(nbytes=nbytes))
        filt.core.add_ready(TaskSpec("t", lambda *a: None, ("a",), ("y",)))
        filt.core.add_ready(TaskSpec("u", lambda *a: None, ("b",), ("z",)))
        ctx = RecordingContext()

        def note(op, array):
            filt.on(ctx, "from_storage", DataBuffer({"op": op, "array": array}))

        filt.on(ctx, "from_workers", DataBuffer({"op": "idle", "inst": 0}))
        # A worker is free: the window asks for the ready tasks' inputs,
        # outputs excluded, and waits for the answers.
        assert ctx.writes == [("to_storage", {"op": "prefetch", "array": "b"}),
                              ("to_storage", {"op": "prefetch", "array": "a"})]
        assert filt.debug_snapshot()["loading"] == ["a", "b"]
        note("resident", "b")  # "u" runs; "t" still waits for its answer
        assert [t.name for port, p in ctx.writes[2:] for t in p["batch"]] == [
            "u"]
        filt.on(ctx, "from_workers", DataBuffer({"op": "idle", "inst": 1}))
        note("declined", "a")
        note("resident", "c")
        note("dropped", "c")  # 8 of the 16 bytes "a" needs
        # "u" is in flight, so "t" waits; nothing re-armed "a".
        assert len(ctx.writes) == 3 and filt.debug_snapshot()["loading"] == []
        note("dropped", "d")
        assert ctx.writes[3:] == [("to_storage", {"op": "prefetch", "array": "a"})]

    def test_a_completion_makes_its_outputs_resident(self):
        """A worker releases before it says ``done``, so the next choice
        takes the finished task's outputs as resident without waiting for
        storage's note; not when a note about them came first."""
        from repro.core.task import TaskSpec

        filt = lsched_filter(dict.fromkeys(("a", "y", "w", "z"), 8))
        ctx = RecordingContext()

        def task(name, reads, writes):
            return TaskSpec(name, lambda *a: None, (reads,), (writes,))

        def deliver(port, **msg):
            filt.on(ctx, port, DataBuffer(msg))

        def done(name):  # a worker's report on a batch of one
            deliver("from_workers", op="done", done=[name], failed=[],
                    returned=[], inst=0)

        deliver("from_storage", op="resident", array="a")
        deliver("in", op="tasks", tasks=[task("t", "a", "y")])
        deliver("from_workers", op="idle", inst=0)
        deliver("in", op="tasks", tasks=[task("u", "y", "z")])
        done("t")
        # "u" runs at once: no prefetch of "y", no sync first.
        port, last = ctx.writes[-1]
        assert port == "to_workers" and [t.name for t in last["batch"]] == [
            "u"]
        deliver("in", op="tasks", tasks=[task("v", "a", "w")])
        done("u")
        deliver("from_storage", op="resident", array="w")
        deliver("from_storage", op="dropped", array="w")
        deliver("in", op="tasks", tasks=[task("x", "w", "z")])
        done("v")
        assert ctx.writes[-1] == ("to_storage",
                                  {"op": "prefetch", "array": "w"})

    def test_lsched_filter_carries_out_what_the_core_decides(self):
        """The rule is ``LocalSchedulerCore.choose``; what is left to the
        filter is the ``sync`` message — one per batch of completions —
        and the account of a forced dispatch."""
        from repro.core.task import TaskSpec
        from repro.obs import Tracer

        tracer, store = Tracer(enabled=True), LocalStore(0, 1 << 20)
        metrics = store.metrics
        filt = lsched_filter({"a": 8, "y": 8}, store, tracer=tracer)
        filt.core.add_ready(TaskSpec("t", lambda *a: None, ("a",), ("y",)))
        filt._unsynced = True  # a completion went to the global scheduler
        filt._declined = {"a": 0}  # the store's note
        ctx = RecordingContext()
        assert filt._choose(ctx) is None
        assert filt._choose(ctx) is None  # asked; now waits
        assert ctx.writes == [("to_gsched", {"op": "sync", "node": 0})]
        assert "forced_dispatches" not in metrics.as_dict()
        filt._syncing = False  # the ``synced`` reply
        assert [t.name for t in filt._choose(ctx)] == ["t"]
        assert len(ctx.writes) == 1 and filt.core.ready_count == 0
        assert metrics.as_dict()["forced_dispatches"] == 1
        (event,) = [e for e in tracer.events() if e.name == "forced_dispatch"]
        assert event.args == {"task": "t", "why": "declined"}


class TestRunBarrier:
    """Storage's half of the barrier that ends a run of a kept graph."""

    ENDED = ("rep_lsched", {"op": "ended", "node": 0})

    def test_the_end_is_answered_once_every_grant_is_back(self):
        # The worker's release may be queued behind the scheduler's "end":
        # the two streams merge unordered on `req`.
        d = desc("a", 8, 8)
        store = LocalStore(0, memory_budget=1 << 20)
        store.create_array(d)
        filt = storage_filter(store, {"a": d})
        ctx = RecordingContext()
        filt.on(ctx, "req", DataBuffer({
            "op": "acquire", "reads": [], "writes": [whole_block(d, 0)],
            "tasks": [], "reply_to": ("worker", 0)}))
        (grants,) = [p for port, p in ctx.writes if port == "rep_workers"]
        filt.on(ctx, "req", DataBuffer({"op": "end"}))
        assert self.ENDED not in ctx.writes
        filt.on(ctx, "req", DataBuffer({"op": "release", "abandon": [],
                                        "tickets": grants["tickets"]}))
        assert ctx.writes[-1] == self.ENDED

    def test_a_peer_message_of_another_run_is_dropped(self):
        d = desc("a", 8, 8)
        store = LocalStore(0, memory_budget=1 << 20)
        store.create_array(d)
        directory = DirectoryClient(0, 2, RngTree(0).child("directory", 0))
        filt = _StorageFilter(0, 2, RunState(
            seq=7, stores={0: store}, descs={"a": d},
            directories={0: directory}))
        ctx = RecordingContext()
        lookup = {"op": "lookup", "array": "a", "from": 1}
        filt.on(ctx, "peer_in", DataBuffer({**lookup, "run": 6}))
        assert ctx.writes == []
        filt.on(ctx, "peer_in", DataBuffer({**lookup, "run": 7}))
        assert ctx.writes == [("peer_out_1", {
            "op": "lookup_reply", "array": "a", "hit": True, "owner": 0,
            "run": 7})]


class TestPumpAllocsBehaviour:
    def _queue_writes(self, store, descs):
        tickets = {}

        def absorb(effects):
            for e in effects:
                if e.kind in ("grant_read", "grant_write"):
                    tickets[e.ticket.interval.array] = e.ticket
                elif e.kind == "spill":
                    absorb(store.on_spilled(e.array, e.block))

        for d in descs:
            t, eff = store.request_write(whole_block(d, 0))
            absorb(eff)
        return tickets, absorb

    def test_small_alloc_overtakes_blocked_large(self):
        # budget 1000 B; p1 (500) and p2 (300) stay pinned by writers.
        # 'blocker' (200) tops the store up, then 'large' (400) and
        # 'small' (150) queue.  Releasing blocker leaves 800 B pinned:
        # large can never fit, small can — it must overtake.
        sizes = {"p1": 500, "p2": 300, "blocker": 200,
                 "large": 400, "small": 150}
        descs = {name: desc(name, length=nb, block=nb, dtype="uint8")
                 for name, nb in sizes.items()}
        store = LocalStore(0, memory_budget=1000)
        for d in descs.values():
            store.create_array(d)
        tickets, absorb = self._queue_writes(store, list(descs.values()))
        assert set(tickets) == {"p1", "p2", "blocker"}
        assert store.alloc_queue_depth == 2
        tickets["blocker"].data[:] = 1
        absorb(store.release(tickets["blocker"]))
        # FIFO would stall small behind the forever-blocked large.
        assert "small" in tickets
        assert "large" not in tickets
        assert store.alloc_queue_depth == 1
        # large is admitted once a pin actually frees.
        tickets["p1"].data[:] = 1
        absorb(store.release(tickets["p1"]))
        assert "large" in tickets
        assert store.alloc_queue_depth == 0

    def test_fifo_preserved_between_equals(self):
        store = LocalStore(0, memory_budget=800)
        blocker = desc("blocker", length=100, block=100)
        q1 = desc("q1", length=50, block=50)
        q2 = desc("q2", length=50, block=50)
        store.create_array(blocker)
        store.create_array(q1)
        store.create_array(q2)
        tickets, absorb = self._queue_writes(store, [blocker, q1, q2])
        assert set(tickets) == {"blocker"}
        tickets["blocker"].data[:] = 1.0
        absorb(store.release(tickets["blocker"]))
        # Both were granted, in FIFO order of their ticket ids.
        assert tickets["q1"].tid < tickets["q2"].tid
        assert store.alloc_queue_depth == 0

    def test_deep_queue_drains_completely(self):
        depth = 64
        descs = [desc(f"q{i}", length=16, block=16) for i in range(depth)]
        store = LocalStore(0, memory_budget=16 * 8)
        for d in descs:
            store.create_array(d)
        granted = []

        def absorb(effects):
            for e in effects:
                if e.kind == "grant_write":
                    granted.append(e.ticket)
                elif e.kind == "spill":
                    absorb(store.on_spilled(e.array, e.block))

        for d in descs:
            t, eff = store.request_write(whole_block(d, 0))
            absorb(eff)
        assert store.metrics.maximum("alloc_queue_depth") >= depth - 1
        done = 0
        while granted:
            t = granted.pop(0)
            t.data[:] = float(done)
            absorb(store.release(t))
            done += 1
        assert done == depth
        assert store.alloc_queue_depth == 0
        assert store._write_tickets == {}

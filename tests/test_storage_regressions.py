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
"""

import numpy as np
import pytest

from repro.core import DOoCEngine, Program
from repro.core.errors import StorageError
from repro.core.interval import Interval, whole_block
from repro.core.local_scheduler import _LocalSchedulerFilter
from repro.core.storage import LocalStore
from repro.core.storage_filter import _StorageFilter


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
        avail = store.availability_map()
        with pytest.raises(StorageError, match="in use"):
            store.delete_array("a")
        # The failing validation hit block 1; block 0 must be intact.
        assert store.has_array("a")
        assert store.in_use == in_use
        assert store.availability_map() == avail
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


class _RecordingCtx:
    """Just enough FilterContext to capture ``_execute`` writes."""

    instance = 0

    def __init__(self):
        self.writes = []

    def write(self, port, buf):
        self.writes.append((port, buf.payload))


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
        filt = _StorageFilter(0, 1, store, directory=None, descs={})
        ctx = _RecordingCtx()
        filt._execute(ctx, [Effect("drop", "a", 0)])
        assert ("rep_lsched", {"op": "dropped", "array": "a"}) in ctx.writes

    def test_lsched_filter_rearms_on_dropped_note(self):
        from repro.core.task import TaskSpec

        filt = _LocalSchedulerFilter(0, workers=1, nbytes={"a": 8, "y": 8})
        filt.core.add_ready(TaskSpec("t", lambda *a: None, ("a",), ("y",)))
        assert filt.core.prefetch_plan(frozenset(), filt.nbytes) == ["a"]
        filt._on_storage_note({"op": "dropped", "array": "a"})
        assert filt.core.prefetch_plan(frozenset(), filt.nbytes) == ["a"]


    def test_map_reply_names_loading_and_declined_once(self):
        """The scheduler's event-driven wait-or-force rule reads both off
        the reply that follows its prefetches: what it may wait for, and
        what the store refused (to be asked for again)."""
        d_fit, d_big = desc("fit", 8, 8), desc("big", 64, 64)
        store = LocalStore(0, memory_budget=128)
        store.register_on_disk(d_fit)
        store.register_on_disk(d_big)
        filt = _StorageFilter(0, 1, store, directory=None,
                              descs={"fit": d_fit, "big": d_big})
        ctx = _RecordingCtx()
        for array in ("fit", "big"):  # 64 B load reserved, then 512 B asked
            filt._handle_request(ctx, {"op": "prefetch", "array": array})
        ask = {"op": "map", "arrays": {"fit", "big"}}
        filt._handle_request(ctx, ask)
        assert ctx.writes[-1] == ("rep_lsched", {
            "op": "map", "resident": set(), "loading": {"fit"},
            "declined": {"big"}})
        filt._handle_request(ctx, ask)
        assert ctx.writes[-1][1]["declined"] == set()  # reported once

    def test_map_reply_is_the_resident_subset_of_the_names_asked(self):
        """``resident`` answers for the request's ``arrays`` and nothing
        else: not for other resident arrays, not for a name the store does
        not know, not for an array with a block loading, spilling or not
        yet sealed.  The field is required."""
        descs = {n: desc(n, 16, 8) for n in
                 ("whole", "idle", "loading", "spilling", "unsealed")}
        store = LocalStore(0, memory_budget=1 << 20)
        filt = _StorageFilter(0, 1, store, directory=None, descs=descs)
        ctx = _RecordingCtx()

        def write(name, blocks):
            for b in blocks:
                t, eff = store.request_write(whole_block(descs[name], b))
                grant_of(eff).data[:] = 1.0
                store.release(t)

        for name in ("whole", "idle", "spilling", "unsealed"):
            store.create_array(descs[name])
        store.register_on_disk(descs["loading"])
        write("whole", (0, 1))
        write("idle", (0, 1))
        write("spilling", (0, 1))
        write("unsealed", (0,))
        held, _ = store.request_write(Interval("unsealed", 1, 8, 12))
        for b in (0, 1):
            store.prefetch(whole_block(descs["loading"], b))
        store.on_loaded("loading", 1, np.zeros(8))  # block 0 still in flight
        store._blocks[("spilling", 1)].status = "spilling"

        def resident(names):
            filt._handle_request(ctx, {"op": "map", "arrays": names})
            return ctx.writes[-1][1]["resident"]

        assert resident({"whole", "loading", "spilling", "unsealed",
                         "unknown"}) == {"whole"}
        assert resident({"idle"}) == {"idle"}
        assert resident(set()) == set()
        store.on_loaded("loading", 0, np.zeros(8))
        store.release(held)
        assert resident({"loading", "unsealed"}) == {"loading"}
        with pytest.raises(KeyError):
            filt._handle_request(ctx, {"op": "map"})

    def test_lsched_filter_rearms_declined_from_map_reply(self):
        from repro.core.task import TaskSpec
        from repro.datacutter.buffers import DataBuffer

        class Ctx(_RecordingCtx):
            def read(self, port):
                return DataBuffer({"op": "map", "resident": set(),
                                   "loading": set(), "declined": {"a"}})

        filt = _LocalSchedulerFilter(0, workers=1, nbytes={"a": 8, "y": 8})
        filt.core.add_ready(TaskSpec("t", lambda *a: None, ("a",), ("y",)))
        assert filt.core.prefetch_plan(frozenset(), filt.nbytes) == ["a"]
        ctx = Ctx()
        assert filt._query_map(ctx) == (set(), {"a"})
        # the request names the ready tasks' inputs, outputs excluded
        assert ctx.writes == [("to_storage", {"op": "map", "arrays": {"a"}})]
        assert filt.core.prefetch_plan(frozenset(), filt.nbytes) == ["a"]

    def test_lsched_filter_carries_out_what_the_core_decides(self):
        """The rule is ``LocalSchedulerCore.choose``; what is left to the
        filter is the ``sync`` message — one per batch of completions —
        and the account of a forced dispatch."""
        from repro.core.task import TaskSpec
        from repro.obs import Tracer
        from repro.obs.metrics import MetricsRegistry

        tracer, metrics = Tracer(enabled=True), MetricsRegistry()
        filt = _LocalSchedulerFilter(0, workers=1, nbytes={"a": 8, "y": 8},
                                     tracer=tracer, metrics=metrics)
        filt.core.add_ready(TaskSpec("t", lambda *a: None, ("a",), ("y",)))
        filt._unsynced = True  # a completion went to the global scheduler
        ctx = _RecordingCtx()
        assert filt._choose(ctx, set(), {"a"}) is None
        assert filt._choose(ctx, set(), {"a"}) is None  # asked; now waits
        assert ctx.writes == [("to_gsched", {"op": "sync", "node": 0})]
        assert "forced_dispatches" not in metrics.as_dict()
        filt._syncing = False  # the ``synced`` reply
        assert filt._choose(ctx, set(), {"a"}).name == "t"
        assert len(ctx.writes) == 1 and filt.core.ready_count == 0
        assert metrics.as_dict()["forced_dispatches"] == 1
        (event,) = [e for e in tracer.events() if e.name == "forced_dispatch"]
        assert event.args == {"task": "t", "why": "declined"}


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

"""Unit tests for the DOoC storage layer state machine."""

import numpy as np
import pytest

from repro.core.array import ArrayDesc
from repro.core.errors import ImmutabilityError, StorageError, UnknownArrayError
from repro.core.interval import Interval, intervals_for_range, whole_array, whole_block
from repro.core.storage import LocalStore


def desc(name="a", length=100, block=50, dtype="float64"):
    return ArrayDesc(name, length=length, block_elems=block, dtype=dtype)


class TestArrayDesc:
    def test_block_geometry(self):
        d = desc(length=100, block=30)
        assert d.n_blocks == 4
        assert d.block_bounds(0) == (0, 30)
        assert d.block_bounds(3) == (90, 100)  # short tail block
        assert d.block_length(3) == 10
        assert d.block_nbytes(3) == 80
        assert d.block_of(89) == 2
        assert d.block_of(90) == 3

    def test_validation(self):
        with pytest.raises(StorageError):
            ArrayDesc("", length=1)
        with pytest.raises(StorageError):
            ArrayDesc("x", length=0)
        with pytest.raises(StorageError):
            ArrayDesc("x", length=1, block_elems=0)
        with pytest.raises(TypeError):
            ArrayDesc("x", length=1, dtype="not-a-dtype")
        d = desc()
        with pytest.raises(StorageError):
            d.block_bounds(2)
        with pytest.raises(StorageError):
            d.block_of(100)


class TestIntervals:
    def test_whole_block_and_array(self):
        d = desc(length=100, block=30)
        iv = whole_block(d, 3)
        assert (iv.lo, iv.hi) == (90, 100)
        assert len(whole_array(d)) == 4

    def test_interval_cannot_span_blocks(self):
        d = desc(length=100, block=30)
        bad = Interval("a", 0, 10, 40)
        with pytest.raises(StorageError, match="escapes block"):
            bad.validate_against(d)

    def test_intervals_for_range_splits_on_blocks(self):
        d = desc(length=100, block=30)
        ivs = intervals_for_range(d, 25, 95)
        assert [(iv.block, iv.lo, iv.hi) for iv in ivs] == [
            (0, 25, 30),
            (1, 30, 60),
            (2, 60, 90),
            (3, 90, 95),
        ]

    def test_intervals_for_range_validation(self):
        d = desc()
        with pytest.raises(StorageError):
            intervals_for_range(d, 10, 10)
        with pytest.raises(StorageError):
            intervals_for_range(d, 0, 101)

    def test_empty_interval_rejected(self):
        with pytest.raises(StorageError):
            Interval("a", 0, 5, 5)

    def test_local_slice(self):
        d = desc(length=100, block=30)
        iv = Interval("a", 1, 35, 50)
        assert iv.local_slice(d) == slice(5, 20)


def effects_of_kind(effects, kind):
    return [e for e in effects if e.kind == kind]


def write_whole_array(store, d, value_fn=lambda i: float(i)):
    """Helper: write and release every block of d through the store.

    Serves any spill effects synchronously so grants queued behind memory
    reclamation are delivered.
    """
    for iv in whole_array(d):
        ticket, effects = store.request_write(iv)
        while not ticket.granted:
            spills = effects_of_kind(effects, "spill")
            assert spills, "write grant is stuck without a pending spill"
            effects = [
                e
                for s in spills
                for e in store.on_spilled(s.array, s.block)
            ]
        ticket.data[:] = [value_fn(i) for i in range(iv.lo, iv.hi)]
        store.release(ticket)


class TestWriteOnceSemantics:
    def test_write_then_read_round_trip(self):
        d = desc()
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        write_whole_array(store, d)
        iv = whole_block(d, 1)
        ticket, effects = store.request_read(iv)
        [grant] = effects_of_kind(effects, "grant_read")
        assert grant.ticket is ticket
        np.testing.assert_allclose(ticket.data, np.arange(50, 100, dtype=float))
        store.release(ticket)

    def test_read_view_is_read_only(self):
        d = desc()
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        write_whole_array(store, d)
        ticket, _ = store.request_read(whole_block(d, 0))
        with pytest.raises(ValueError):
            ticket.data[0] = 99.0

    def test_double_write_same_range_rejected(self):
        d = desc()
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        iv = Interval("a", 0, 0, 10)
        t, _ = store.request_write(iv)
        t.data[:] = 1.0
        store.release(t)
        with pytest.raises(ImmutabilityError):
            store.request_write(Interval("a", 0, 5, 15))

    def test_concurrent_overlapping_write_tickets_rejected(self):
        d = desc()
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        store.request_write(Interval("a", 0, 0, 10))
        with pytest.raises(ImmutabilityError):
            store.request_write(Interval("a", 0, 9, 20))

    def test_disjoint_writes_to_same_block_allowed(self):
        d = desc()
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        t1, _ = store.request_write(Interval("a", 0, 0, 25))
        t2, _ = store.request_write(Interval("a", 0, 25, 50))
        t1.data[:] = 1.0
        t2.data[:] = 2.0
        store.release(t1)
        store.release(t2)
        ticket, effects = store.request_read(whole_block(d, 0))
        assert effects_of_kind(effects, "grant_read")
        assert float(ticket.data[0]) == 1.0 and float(ticket.data[49]) == 2.0

    def test_write_to_sealed_block_rejected(self):
        d = desc(length=10, block=10)
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        write_whole_array(store, d)
        with pytest.raises(ImmutabilityError):
            store.request_write(Interval("a", 0, 0, 1))

    def test_read_before_write_blocks_until_release(self):
        d = desc(length=10, block=10)
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        iv = whole_block(d, 0)
        rt, effects = store.request_read(iv)
        assert effects == []  # not granted yet
        wt, _ = store.request_write(iv)
        wt.data[:] = 7.0
        effects = store.release(wt)
        [grant] = effects_of_kind(effects, "grant_read")
        assert grant.ticket is rt
        assert float(rt.data[3]) == 7.0

    def test_partial_write_release_grants_covered_reads_only(self):
        d = desc(length=10, block=10)
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        r_lo, e = store.request_read(Interval("a", 0, 0, 5))
        assert e == []
        r_hi, e = store.request_read(Interval("a", 0, 5, 10))
        assert e == []
        w, _ = store.request_write(Interval("a", 0, 0, 5))
        w.data[:] = 1.0
        effects = store.release(w)
        grants = effects_of_kind(effects, "grant_read")
        assert [g.ticket for g in grants] == [r_lo]  # r_hi still waiting

    def test_release_twice_rejected(self):
        d = desc()
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        t, _ = store.request_write(Interval("a", 0, 0, 10))
        store.release(t)
        with pytest.raises(StorageError, match="twice"):
            store.release(t)

    def test_release_before_grant_rejected(self):
        d = desc(length=10, block=10)
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        rt, _ = store.request_read(whole_block(d, 0))  # blocked on write
        with pytest.raises(StorageError, match="before being granted"):
            store.release(rt)

    def test_unknown_array_rejected(self):
        store = LocalStore(0, memory_budget=10**6)
        with pytest.raises(UnknownArrayError):
            store.request_read(Interval("ghost", 0, 0, 1))

    def test_duplicate_create_rejected(self):
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(desc())
        with pytest.raises(StorageError, match="already exists"):
            store.create_array(desc())


class TestWriteBuffersComeFromTheAllocator:
    """A write grant's block is ``block_buffer`` memory: a mapping of its
    own from glibc's default mmap threshold up, heap below it, and zeroed,
    writable and typed the same on both sides of the line."""

    THRESHOLD = 128 * 1024

    @staticmethod
    def backing(arr):
        """The object that owns an array's memory."""
        while isinstance(arr, np.ndarray) and arr.base is not None:
            arr = arr.base
        return arr.obj if isinstance(arr, memoryview) else arr

    @pytest.mark.parametrize("dtype", ["float64", "int32", "uint8"])
    @pytest.mark.parametrize("nbytes", [THRESHOLD - 8, THRESHOLD,
                                        THRESHOLD + 8])
    def test_zeroed_writable_typed_and_accounted(self, nbytes, dtype):
        import mmap

        length = nbytes // np.dtype(dtype).itemsize
        d = desc(name="w", length=length, block=length, dtype=dtype)
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        ticket, effects = store.request_write(whole_block(d, 0))
        assert effects_of_kind(effects, "grant_write")
        data = ticket.data
        assert (data.dtype, data.shape) == (np.dtype(dtype), (length,))
        assert data.flags.writeable and data.flags.c_contiguous
        assert not data.any()
        assert isinstance(self.backing(data), mmap.mmap if
                          nbytes >= self.THRESHOLD else bytearray)
        assert store.in_use == nbytes
        data[:] = 1
        store.release(ticket)
        assert store.in_use == nbytes  # resident, sealed, still charged
        reader, _ = store.request_read(whole_block(d, 0))
        assert not reader.data.flags.writeable and reader.data.all()
        store.release(reader)
        store.delete_array("w")
        assert store.in_use == 0


class TestOutOfCore:
    """Loads, spills, eviction, prefetch."""

    def make(self, budget_blocks=2, n_blocks=4):
        # Each block: 50 float64 = 400 bytes.
        d = desc(length=50 * n_blocks, block=50)
        store = LocalStore(0, memory_budget=400 * budget_blocks)
        store.register_on_disk(d)
        return d, store

    def load_reply(self, store, effects, d):
        """Serve every 'load' effect with synthetic data; returns new effects."""
        out = []
        for e in effects_of_kind(effects, "load"):
            lo, hi = d.block_bounds(e.block)
            out += store.on_loaded(e.array, e.block, np.arange(lo, hi, dtype=float))
        return out

    def test_read_triggers_load(self):
        d, store = self.make()
        ticket, effects = store.request_read(whole_block(d, 2))
        [load] = effects_of_kind(effects, "load")
        assert (load.array, load.block) == ("a", 2)
        effects = self.load_reply(store, effects, d)
        [grant] = effects_of_kind(effects, "grant_read")
        assert grant.ticket is ticket
        np.testing.assert_allclose(ticket.data, np.arange(100, 150, dtype=float))
        assert store.metrics.get("loads") == 1

    def test_second_read_is_a_hit(self):
        d, store = self.make()
        t1, effects = store.request_read(whole_block(d, 0))
        self.load_reply(store, effects, d)
        store.release(t1)
        t2, effects = store.request_read(whole_block(d, 0))
        assert effects_of_kind(effects, "grant_read")
        assert store.metrics.get("read_hits") == 1
        assert store.metrics.get("loads") == 1

    def test_lru_eviction_of_clean_blocks(self):
        d, store = self.make(budget_blocks=2)
        # Touch blocks 0, 1 (fills budget), then 2 -> evicts 0 (LRU).
        for b in [0, 1]:
            t, effects = store.request_read(whole_block(d, b))
            self.load_reply(store, effects, d)
            store.release(t)
        t, effects = store.request_read(whole_block(d, 2))
        drops = effects_of_kind(effects, "drop")
        assert [(e.array, e.block) for e in drops] == [("a", 0)]
        assert store.metrics.get("drops") == 1
        assert store.in_use <= store.budget

    def test_lru_order_respects_recency(self):
        d, store = self.make(budget_blocks=2)
        for b in [0, 1]:
            t, effects = store.request_read(whole_block(d, b))
            self.load_reply(store, effects, d)
            store.release(t)
        # Touch 0 again so 1 becomes LRU.
        t, effects = store.request_read(whole_block(d, 0))
        assert effects_of_kind(effects, "grant_read")
        store.release(t)
        _, effects = store.request_read(whole_block(d, 2))
        [drop] = effects_of_kind(effects, "drop")
        assert drop.block == 1

    def test_pinned_blocks_never_evicted(self):
        d, store = self.make(budget_blocks=2)
        t0, effects = store.request_read(whole_block(d, 0))
        self.load_reply(store, effects, d)  # keep t0 granted, not released
        t1, effects = store.request_read(whole_block(d, 1))
        self.load_reply(store, effects, d)
        # Budget full, both pinned: next read must queue, no drops.
        t2, effects = store.request_read(whole_block(d, 2))
        assert effects_of_kind(effects, "drop") == []
        assert effects_of_kind(effects, "load") == []
        # Releasing one lets the queued load proceed.
        effects = store.release(t0)
        [load] = effects_of_kind(effects, "load")
        assert load.block == 2

    def test_dirty_block_spilled_before_drop(self):
        # Array created locally (not on disk): eviction must spill first.
        n_blocks = 3
        d = desc(length=50 * n_blocks, block=50)
        store = LocalStore(0, memory_budget=400 * 2)
        store.create_array(d)
        write_whole_array(store, d)  # 3rd write triggers reclaim of block 0
        assert store.metrics.get("spills") >= 1
        assert store.metrics.get("bytes_spilled") >= 400

    def test_spilled_block_reloadable(self):
        n_blocks = 3
        d = desc(length=150, block=50)
        store = LocalStore(0, memory_budget=800)
        store.create_array(d)
        # Manually drive: write blocks 0 and 1 (fills budget).
        for b in [0, 1]:
            t, _ = store.request_write(whole_block(d, b))
            t.data[:] = float(b)
            store.release(t)
        # Write block 2: must spill block 0 first.
        t2, effects = store.request_write(whole_block(d, 2))
        [spill] = effects_of_kind(effects, "spill")
        assert spill.block == 0
        assert effects_of_kind(effects, "grant_write") == []  # queued
        effects = store.on_spilled("a", 0)
        [grant] = effects_of_kind(effects, "grant_write")
        assert grant.ticket is t2
        t2.data[:] = 2.0
        store.release(t2)
        # Read block 0 back: memory is full, so an LRU spill (block 1)
        # precedes the load.
        rt, effects = store.request_read(whole_block(d, 0))
        [spill] = effects_of_kind(effects, "spill")
        assert spill.block == 1
        effects = store.on_spilled("a", 1)
        [load] = effects_of_kind(effects, "load")
        assert load.block == 0
        effects = store.on_loaded("a", 0, np.full(50, 0.0))
        [grant] = effects_of_kind(effects, "grant_read")
        assert grant.ticket is rt

    def test_prefetch_loads_without_pinning(self):
        d, store = self.make()
        effects = store.prefetch(whole_block(d, 1))
        [load] = effects_of_kind(effects, "load")
        effects = self.load_reply(store, effects, d)
        assert effects_of_kind(effects, "grant_read") == []
        # Now a read is a hit.
        _, effects = store.request_read(whole_block(d, 1))
        assert effects_of_kind(effects, "grant_read")
        assert store.metrics.get("read_hits") == 1

    def test_prefetch_idempotent_while_loading(self):
        d, store = self.make()
        e1 = store.prefetch(whole_block(d, 1))
        assert effects_of_kind(e1, "load")
        assert store.prefetch(whole_block(d, 1)) == []

    def test_prefetch_of_unwritten_local_array_is_noop(self):
        d = desc()
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        assert store.prefetch(whole_block(d, 0)) == []

    def test_read_during_spill_keeps_block(self):
        d = desc(length=150, block=50)
        store = LocalStore(0, memory_budget=800)
        store.create_array(d)
        for b in [0, 1]:
            t, _ = store.request_write(whole_block(d, b))
            t.data[:] = float(b)
            store.release(t)
        t2, effects = store.request_write(whole_block(d, 2))
        [spill] = effects_of_kind(effects, "spill")
        # While block 0 is spilling, a reader shows up.
        rt, e = store.request_read(whole_block(d, 0))
        assert e == []
        effects = store.on_spilled("a", 0)
        kinds = {e.kind for e in effects}
        # Block stays resident for the reader; the queued write allocation
        # stays queued (budget still full).
        assert "grant_read" in kinds
        assert "drop" not in kinds

    def test_availability_map(self):
        d, store = self.make()
        t, effects = store.request_read(whole_block(d, 0))
        self.load_reply(store, effects, d)
        amap = store.availability_map()
        assert amap[("a", 0)] is True
        assert amap.get(("a", 1), False) is False

    def test_resident_arrays(self):
        d = desc(length=50, block=50, name="v")
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        assert store.resident_arrays() == set()
        write_whole_array(store, d)
        assert store.resident_arrays() == {"v"}

    def test_resident_among_reads_only_the_arrays_asked_about(self):
        """The ``map`` reply's cost follows the question: beside 1,000
        resident arrays nobody asks about, a query for two names reads
        those two arrays' blocks and no other."""
        store = LocalStore(0, memory_budget=10**7)
        descs = [desc(length=20, block=10, name=f"idle{i}")
                 for i in range(1000)]
        asked = [desc(length=30, block=10, name="x"),
                 desc(length=20, block=10, name="y")]
        for d in descs + asked:
            store.create_array(d)
            write_whole_array(store, d)
        before = store.metrics.get("map_blocks_examined")
        assert store.resident_among(["x", "y"]) == {"x", "y"}
        assert store.metrics.get("map_blocks_examined") - before == 3 + 2
        before = store.metrics.get("map_blocks_examined")
        assert len(store.resident_arrays()) == 1002  # the same walk, all names
        assert store.metrics.get("map_blocks_examined") - before == 2000 + 5

    def test_delete_array_frees_memory(self):
        d, store = self.make()
        t, effects = store.request_read(whole_block(d, 0))
        self.load_reply(store, effects, d)
        store.release(t)
        used = store.in_use
        assert used > 0
        store.delete_array("a")
        assert store.in_use == 0
        assert not store.has_array("a")

    def test_delete_pinned_array_rejected(self):
        d, store = self.make()
        t, effects = store.request_read(whole_block(d, 0))
        self.load_reply(store, effects, d)
        with pytest.raises(StorageError, match="in use"):
            store.delete_array("a")


class TestRetain:
    """The between-runs purge: keep the named arrays, forget the rest."""

    def loaded(self, store, d, block):
        t, effects = store.request_read(whole_block(d, block))
        for e in effects_of_kind(effects, "load"):
            lo, hi = d.block_bounds(e.block)
            store.on_loaded(e.array, e.block, np.arange(lo, hi, dtype=float))
        return t

    def make(self):
        store = LocalStore(0, memory_budget=10**6)
        kept, gone = desc("kept", 100, 50), desc("gone", 100, 50)
        store.register_on_disk(kept)
        store.register_on_disk(gone)
        for d in (kept, gone):
            store.release(self.loaded(store, d, 0))
        return store, kept, gone

    def test_kept_array_keeps_blocks_and_generations(self):
        store, kept, gone = self.make()
        effects = store.retain({"kept", "never-registered"})
        assert [(e.kind, e.array, e.block) for e in effects] == [
            ("drop", "gone", 0)]
        assert store.has_array("kept") and not store.has_array("gone")
        assert store.in_use == 400
        t, effects = store.request_read(whole_block(kept, 0))
        assert effects_of_kind(effects, "grant_read")  # still resident
        assert t.generation == 0
        with pytest.raises(UnknownArrayError):
            store.request_read(whole_block(gone, 0))

    def test_purged_array_invalidates_its_decoded_operands(self):
        from repro.core.opcache import DecodedOperandCache

        store, kept, gone = self.make()
        store.opcache = DecodedOperandCache(10**6)
        store.opcache.put("kept", (0,), "K", 10)
        store.opcache.put("gone", (0,), "G", 10)
        store.retain({"kept"})
        assert store.opcache.get("kept", (0,)) == "K"
        assert store.opcache.get("gone", (0,)) is None

    def test_half_done_state_is_unwound_not_refused(self):
        """A block still pinned and an allocation still queued behind it
        (what a run that stopped half-way leaves): the array goes whole,
        with its memory, and the caller registers it again."""
        store, kept, gone = self.make()
        store.budget = 800                   # full: kept[0] and gone[0]
        self.loaded(store, gone, 0)          # granted, never released
        self.loaded(store, kept, 0)          # likewise
        _, effects = store.request_read(whole_block(kept, 1))
        assert effects == [] and store.alloc_queue_depth == 1
        store.retain({"kept"})
        assert store.alloc_queue_depth == 0
        assert not store.has_array("kept") and not store.has_array("gone")
        assert store.in_use == 0
        store.register_on_disk(kept)
        _, effects = store.request_read(whole_block(kept, 1))
        assert effects_of_kind(effects, "load")

    def test_in_flight_load_returns_its_reservation(self):
        store, kept, _ = self.make()
        _, effects = store.request_read(whole_block(kept, 1))
        assert effects_of_kind(effects, "load") and store.in_use == 1200
        store.retain(set())
        assert store.in_use == 0 and store.loading_arrays() == set()

    def test_mark_on_disk_makes_a_written_array_droppable(self):
        d = desc("v", 50, 50)
        store = LocalStore(0, memory_budget=400)
        store.create_array(d)
        with pytest.raises(StorageError, match="not completely written"):
            store.mark_on_disk("v")
        write_whole_array(store, d)
        store.mark_on_disk("v")
        other = desc("w", 50, 50)
        store.create_array(other)
        _, effects = store.request_write(whole_block(other, 0))
        assert [e.kind for e in effects] == ["drop", "grant_write"]  # no spill


class TestOneTransferPerBlock:
    """However many requests want an absent block, and whichever of them
    finds room first, it is loaded (or fetched) once: a second transfer
    reserved its bytes twice, and its completion was either an 'unexpected
    load completion' or, for a fetch, dropped as stale with the
    reservation never returned."""

    loaded = TestRetain.loaded
    make = TestRetain.make

    def test_two_readers_queued_for_one_block_start_one_load(self):
        """Two tasks ask for the same absent block while memory is full:
        one allocation is queued for both."""
        store, kept, gone = self.make()
        store.budget = 800                   # full: kept[0] and gone[0]
        pin = self.loaded(store, gone, 0)    # granted, not yet released
        other = self.loaded(store, kept, 0)  # likewise
        first, effects = store.request_read(whole_block(kept, 1))
        second, more = store.request_read(whole_block(kept, 1))
        assert effects == more == [] and store.alloc_queue_depth == 1
        effects = store.release(pin)         # gone[0] can be dropped now
        assert [e.kind for e in effects].count("load") == 1
        assert store.alloc_queue_depth == 0 and store.in_use == 800
        effects = store.on_loaded("kept", 1, np.ones(50))
        assert {e.ticket.tid for e in effects_of_kind(effects, "grant_read")
                } == {first.tid, second.tid}
        later = (store.release(first) + store.release(second)
                 + store.release(other))
        assert later == [] and store.in_use == 800

    def test_prefetch_that_overtakes_a_queued_demand_is_the_only_load(self):
        """A demand waits in the queue for a spill; another request's
        reclaim meanwhile drops a clean block, nobody pumps the queue for
        the room it leaves, and a prefetch of the demanded block fits into
        it.  When the spill lands, the demand's turn must not load again."""
        store = LocalStore(0, memory_budget=1000)
        dirty, clean, pinned, want, big = (
            desc("dirty", 50, 50), desc("clean", 50, 50),
            desc("pinned", 25, 25), desc("want", 50, 50),
            desc("big", 125, 125))
        store.create_array(dirty)
        for d in (clean, pinned, want, big):
            store.register_on_disk(d)
        t, _ = store.request_write(whole_block(dirty, 0))
        t.data[:] = 1.0
        store.release(t)                          # resident, never persisted
        store.release(self.loaded(store, clean, 0))
        self.loaded(store, pinned, 0)             # stays pinned
        assert store.in_use == 1000
        reader, effects = store.request_read(whole_block(want, 0))
        assert [e.kind for e in effects] == ["spill"]   # LRU: the dirty one
        assert store.alloc_queue_depth == 1
        _, effects = store.request_read(whole_block(big, 0))
        assert [e.kind for e in effects] == ["drop"]    # room, and no pump
        assert store.in_use == 600
        effects = store.prefetch(whole_block(want, 0))
        assert [e.kind for e in effects] == ["load"] and store.in_use == 1000
        effects = store.on_spilled("dirty", 0)
        assert not effects_of_kind(effects, "load")
        assert store.in_use == 600
        effects = store.on_loaded("want", 0, np.ones(50))
        assert [e.ticket.tid for e in effects_of_kind(effects, "grant_read")
                ] == [reader.tid]


class TestFailedSpill:
    """A spill that failed for good (the I/O filter already retried it):
    the block stays resident and is not evicted again, and what waited for
    its bytes is admitted by another reclaim or, when nothing left can make
    room, denied with the spill's error — never left queued with nothing
    to wake it."""

    a, b, c, d = (desc(name, 50, 50) for name in "abcd")  # 400 B blocks

    def make(self, budget_blocks=1):
        store = LocalStore(0, memory_budget=400 * budget_blocks)
        store.create_array(self.a)
        for d in (self.b, self.c, self.d):
            store.register_on_disk(d)
        write_whole_array(store, self.a)          # dirty, sealed, resident
        return store

    def queue_behind_the_spill(self, store):
        reader, effects = store.request_read(whole_block(self.b, 0))
        assert [(e.kind, e.array) for e in effects] == [("spill", "a")]
        assert store.alloc_queue_depth == 1
        return reader

    def test_what_waited_on_it_is_denied_with_its_error(self):
        store = self.make()
        reader = self.queue_behind_the_spill(store)
        effects = store.on_spill_failed("a", 0, "scratch disk gone")
        assert [(e.kind, e.ticket.tid) for e in effects] == [("deny", reader.tid)]
        assert "scratch disk gone" in effects[0].error
        assert store.alloc_queue_depth == 0 and store.in_use == 400
        assert store.peek_block("a", 0) is not None   # nothing was lost
        assert store.metrics.get("spill_failures") == 1

    def test_it_is_not_evicted_again(self):
        store = self.make()
        self.queue_behind_the_spill(store)
        store.on_spill_failed("a", 0, "scratch disk gone")
        _, effects = store.request_read(whole_block(self.c, 0))
        assert [e.kind for e in effects] == ["deny"]   # no second spill
        _, effects = store.request_read(whole_block(self.a, 0))
        assert [e.kind for e in effects] == ["grant_read"]  # still readable

    def test_a_write_that_can_never_fit_is_denied_and_unlisted(self):
        """The denied write holds no pin, so its task's retry may ask for
        the same range again (and is denied again, not refused)."""
        store = self.make()
        self.queue_behind_the_spill(store)
        store.on_spill_failed("a", 0, "scratch disk gone")
        out = desc("out", 50, 50)
        store.create_array(out)
        for _ in range(2):
            ticket, effects = store.request_write(whole_block(out, 0))
            assert [(e.kind, e.ticket) for e in effects] == [("deny", ticket)]
            assert store._write_tickets == {} and not ticket.granted

    def test_another_reclaim_admits_what_waited(self):
        store = self.make(budget_blocks=2)
        t, effects = store.request_read(whole_block(self.d, 0))
        store.on_loaded("d", 0, np.zeros(50))
        store.release(t)                          # clean, and newer than a
        reader = self.queue_behind_the_spill(store)
        effects = store.on_spill_failed("a", 0, "scratch disk gone")
        assert [(e.kind, e.array) for e in effects] == [("drop", "d"), ("load", "b")]
        effects = store.on_loaded("b", 0, np.ones(50))
        assert [e.ticket.tid for e in effects] == [reader.tid]

    def test_a_copy_on_disk_makes_it_droppable_again(self):
        store = self.make()
        self.queue_behind_the_spill(store)
        store.on_spill_failed("a", 0, "scratch disk gone")
        store.mark_on_disk("a")
        _, effects = store.request_read(whole_block(self.c, 0))
        assert [(e.kind, e.array) for e in effects] == [("drop", "a"), ("load", "c")]


class TestRemoteArrays:
    def test_read_remote_triggers_fetch(self):
        d = desc(name="r", length=50, block=50)
        store = LocalStore(1, memory_budget=10**6)
        store.register_remote(d)
        ticket, effects = store.request_read(whole_block(d, 0))
        [fetch] = effects_of_kind(effects, "fetch_remote")
        assert (fetch.array, fetch.block) == ("r", 0)
        effects = store.on_remote_data("r", 0, np.full(50, 3.0))
        [grant] = effects_of_kind(effects, "grant_read")
        assert grant.ticket is ticket
        assert store.metrics.get("remote_fetches") == 1

    def test_cached_remote_block_dropped_not_spilled(self):
        d = desc(name="r", length=100, block=50)
        local = desc(name="l", length=100, block=50)
        store = LocalStore(1, memory_budget=800)
        store.register_remote(d)
        store.register_on_disk(local)
        t, effects = store.request_read(whole_block(d, 0))
        store.on_remote_data("r", 0, np.zeros(50))
        store.release(t)
        t, effects = store.request_read(whole_block(d, 1))
        store.on_remote_data("r", 1, np.zeros(50))
        store.release(t)
        # Budget full of remote blocks; a local load must DROP (not spill) one.
        _, effects = store.request_read(whole_block(local, 0))
        assert effects_of_kind(effects, "spill") == []
        assert [e.array for e in effects_of_kind(effects, "drop")] == ["r"]

    def test_write_to_remote_array_rejected(self):
        d = desc(name="r")
        store = LocalStore(1, memory_budget=10**6)
        store.register_remote(d)
        with pytest.raises(StorageError, match="remote-homed"):
            store.request_write(whole_block(d, 0))


class TestBudgetInvariants:
    def test_in_use_never_negative_and_bounded_by_budget_when_unpinned(self):
        d = desc(length=500, block=50)
        store = LocalStore(0, memory_budget=400 * 3)
        store.register_on_disk(d)
        rng = np.random.default_rng(0)
        for _ in range(100):
            b = int(rng.integers(0, d.n_blocks))
            t, effects = store.request_read(whole_block(d, b))
            for e in effects:
                if e.kind == "load":
                    lo, hi = d.block_bounds(e.block)
                    store.on_loaded(e.array, e.block, np.arange(lo, hi, dtype=float))
            assert store.in_use >= 0
            store.release(t)
            assert store.in_use <= store.budget

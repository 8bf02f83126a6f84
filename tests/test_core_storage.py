"""Unit tests for the DOoC storage layer state machine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """A write grant's block is the store's allocator's memory: a mapping
    of its own from glibc's default mmap threshold up, which the store's
    free list keeps once the block is dropped, heap below it, and zeroed,
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
        mapped = nbytes >= self.THRESHOLD
        assert isinstance(self.backing(data), bytearray) != mapped
        if mapped:  # a mapping of its own: page-aligned
            assert data.__array_interface__["data"][0] % mmap.PAGESIZE == 0
        assert store.in_use == nbytes
        data[:] = 1
        store.release(ticket)
        assert store.in_use == nbytes  # resident, sealed, still charged
        reader, granted = store.request_read(whole_block(d, 0))
        assert not reader.data.flags.writeable and reader.data.all()
        store.release(reader)
        store.delete_array("w")
        assert store.in_use == 0
        del data, ticket, effects, reader, granted
        # the last view died: a mapping goes to the store's free list
        pages = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        assert store.spare.nbytes == (pages if mapped else 0)


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

    def test_a_spill_kept_for_a_reader_reclaims_again(self):
        """The allocation whose reclaim spilled block 0 still needs room
        when a reader keeps block 0 resident: the store reclaims again
        (spills block 1) instead of leaving the allocation queued with
        nothing left to wake it.  Without this an SpMV run on a budget of
        one sub-matrix stalled: the write held its grant, the sub-matrix
        load waited for room, and the vector whose spill was to make
        that room had been asked for again."""
        d = desc(length=150, block=50)
        store = LocalStore(0, memory_budget=800)
        store.create_array(d)
        for b in [0, 1]:
            t, _ = store.request_write(whole_block(d, b))
            t.data[:] = float(b)
            store.release(t)
        writer, effects = store.request_write(whole_block(d, 2))
        assert [(e.kind, e.block) for e in effects] == [("spill", 0)]
        reader, _ = store.request_read(whole_block(d, 0))
        effects = store.on_spilled("a", 0)
        assert [(e.kind, e.block) for e in effects] == [
            ("grant_read", 0), ("spill", 1)]
        effects = store.on_spilled("a", 1)
        assert [(e.kind, e.block) for e in effects] == [
            ("drop", 1), ("grant_write", 2)]

    def test_availability_map(self):
        """What is available is asked of ``resident_among``: an array is
        resident only once every block of it is."""
        d, store = self.make()
        t, effects = store.request_read(whole_block(d, 0))
        self.load_reply(store, effects, d)
        assert store.peek_block("a", 0) is not None
        assert store.peek_block("a", 1) is None
        assert store.resident_among(["a"]) == set()

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
        it.  When the spill lands, the demand's turn must not load again.
        (Reclaim drops a clean block before it spills a dirty one, so the
        block the second request drops is written out, and becomes clean,
        only after the demand chose its spill.)"""
        store = LocalStore(0, memory_budget=1000)
        dirty, clean, pinned, want, big = (
            desc("dirty", 50, 50), desc("clean", 50, 50),
            desc("pinned", 25, 25), desc("want", 50, 50),
            desc("big", 125, 125))
        for d in (dirty, clean):
            store.create_array(d)
        for d in (pinned, want, big):
            store.register_on_disk(d)
        for d in (dirty, clean):                  # resident, never persisted
            t, _ = store.request_write(whole_block(d, 0))
            t.data[:] = 1.0
            store.release(t)
        self.loaded(store, pinned, 0)             # stays pinned
        assert store.in_use == 1000
        reader, effects = store.request_read(whole_block(want, 0))
        assert [e.kind for e in effects] == ["spill"]   # both dirty: LRU's
        assert store.alloc_queue_depth == 1
        store.mark_on_disk("clean")               # written out: droppable
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
        """``d`` becomes clean (written out) only after ``b`` queued behind
        the spill: a clean block is dropped before a dirty one is spilled."""
        store = LocalStore(0, memory_budget=800)
        for d in (self.a, self.d):
            store.create_array(d)
        for d in (self.b, self.c):
            store.register_on_disk(d)
        write_whole_array(store, self.a)          # dirty, sealed, resident
        write_whole_array(store, self.d)          # likewise, newer than a
        reader = self.queue_behind_the_spill(store)
        store.mark_on_disk("d")                   # clean, and newer than a
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


def victim_order(blocks, uses=None, retired=()):
    """The order a reclaim evicts ``blocks`` in: one resident, unpinned
    400 B block per ``(name, dirty)``, touched in the order given (oldest
    first), under the plan ``uses`` less the ``retired`` tasks; then a
    read of a block as large as the whole budget."""
    store = LocalStore(0, memory_budget=400 * len(blocks))
    if uses is not None:
        store.plan_uses(uses)
    store.retire_uses(retired)
    for name, dirty in blocks:
        d = desc(name, 50, 50)
        if dirty:
            store.create_array(d)
            write_whole_array(store, d)
        else:
            store.register_on_disk(d)
            ticket, _ = store.request_read(whole_block(d, 0))
            store.on_loaded(name, 0, np.zeros(50))
            store.release(ticket)
    big = desc("big", 50 * len(blocks), 50 * len(blocks))
    store.register_on_disk(big)
    _, effects = store.request_read(whole_block(big, 0))
    return [(e.kind, e.array) for e in effects if e.kind in ("drop", "spill")]


class TestEvictionOrder:
    """Reclaim evicts clean blocks before dirty ones, and among each the
    block whose next use on this node is furthest away first (no use
    left: first of all), the least recently used breaking ties."""

    #: (blocks oldest first, plan: array -> {task: depth}, tasks retired,
    #: the victims in order)
    CASES = {
        "dead clean < far clean < near clean < dirty far < dirty near": (
            [("dnear", True), ("dfar", True), ("near", False),
             ("far", False), ("dead", False)],
            {"dnear": {"t2": 2}, "dfar": {"t5": 5}, "near": {"t2": 2},
             "far": {"t5": 5}},
            (),
            [("drop", "dead"), ("drop", "far"), ("drop", "near"),
             ("spill", "dfar"), ("spill", "dnear")]),
        "LRU breaks a tie of next use": (
            [("b", False), ("a", False), ("c", True), ("d", True)],
            {"a": {"t": 3}, "b": {"t": 3}, "c": {"t": 3}, "d": {"t": 3}},
            (),
            [("drop", "b"), ("drop", "a"), ("spill", "c"), ("spill", "d")]),
        "no use left: LRU breaks the tie as well": (
            [("b", False), ("a", False), ("c", True), ("d", True)],
            {"a": {"t": 3}, "b": {"t": 3}, "c": {"t": 3}, "d": {"t": 3}},
            ("t",),
            [("drop", "b"), ("drop", "a"), ("spill", "c"), ("spill", "d")]),
        "no plan: clean before dirty, then LRU": (
            [("d1", True), ("c1", False), ("d2", True), ("c2", False)],
            None,
            (),
            [("drop", "c1"), ("drop", "c2"), ("spill", "d1"),
             ("spill", "d2")]),
        "a retired use moves next use to the other depth": (
            [("x", False), ("y", False)],
            {"x": {"t2": 2, "t6": 6}, "y": {"t4": 4}},
            ("t2",),
            [("drop", "x"), ("drop", "y")]),
        "retiring the later use leaves the earlier one": (
            [("y", False), ("x", False)],
            {"x": {"t2": 2, "t6": 6}, "y": {"t4": 4}},
            ("t6",),
            [("drop", "y"), ("drop", "x")]),
        "before either retires, the nearer use keeps x": (
            [("x", False), ("y", False)],
            {"x": {"t2": 2, "t6": 6}, "y": {"t4": 4}},
            (),
            [("drop", "y"), ("drop", "x")]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_victim_order(self, case):
        blocks, uses, retired, want = self.CASES[case]
        assert victim_order(blocks, uses, retired) == want

    def test_a_dirty_block_is_spilled_only_when_clean_ones_cannot_free_the_need(self):
        """Room for one more block: the oldest clean block goes, not the
        older dirty one; room for three: every clean block goes first,
        and one dirty block is spilled for the rest."""
        a, b, c, d = (desc(n, 50, 50) for n in "abcd")
        store = LocalStore(0, memory_budget=1200)
        store.create_array(a)
        write_whole_array(store, a)                # dirty, oldest
        for x in (b, c):
            store.register_on_disk(x)
            ticket, _ = store.request_read(whole_block(x, 0))
            store.on_loaded(x.name, 0, np.zeros(50))
            store.release(ticket)
        store.register_on_disk(d)
        _, effects = store.request_read(whole_block(d, 0))
        assert [(e.kind, e.array) for e in effects] == [("drop", "b"), ("load", "d")]
        big = desc("big", 150, 150)
        store.register_on_disk(big)
        store.on_loaded("d", 0, np.zeros(50))      # d's reader still pins it
        _, effects = store.request_read(whole_block(big, 0))
        assert [(e.kind, e.array) for e in effects] == [("drop", "c"), ("spill", "a")]

    def test_a_block_just_loaded_is_not_the_next_victim(self):
        """A prefetch brings back a block last released long ago: the
        next reclaim must take the other block, not the one just loaded
        for a reader that has not arrived yet."""
        old, mid, other = (desc(n, 50, 50) for n in ("old", "mid", "other"))
        tmp = desc("tmp", 50, 50)
        store = LocalStore(0, memory_budget=800)
        for d in (old, mid, other):
            store.register_on_disk(d)
        store.create_array(tmp)
        ticket, _ = store.request_read(whole_block(old, 0))
        store.on_loaded("old", 0, np.zeros(50))
        store.release(ticket)                      # old's last use: long ago
        writer, _ = store.request_write(whole_block(tmp, 0))
        ticket, effects = store.request_read(whole_block(mid, 0))
        assert [(e.kind, e.array) for e in effects] == [("drop", "old"), ("load", "mid")]
        store.on_loaded("mid", 0, np.zeros(50))
        store.release(ticket)
        store.abandon_write(writer)                # room for one block
        assert [e.kind for e in store.prefetch(whole_block(old, 0))] == ["load"]
        store.on_loaded("old", 0, np.ones(50))     # warm, not yet read
        _, effects = store.request_read(whole_block(other, 0))
        assert [(e.kind, e.array) for e in effects] == [("drop", "mid"), ("load", "other")]
        assert store.peek_block("old", 0) is not None

    def test_a_task_with_no_use_left_here_retires_nothing(self):
        """A retried task, a split's second subtask, a task placed on
        another node: their acquire finds no use to retire."""
        assert victim_order([("x", False), ("y", False)],
                            {"x": {"t1": 1}, "y": {"t2": 2}},
                            ("elsewhere", "t2", "t2")) == [("drop", "y"), ("drop", "x")]


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


class TestTheFreeList:
    """A thread-plane store recycles the mappings of the blocks it drops:
    the next write grant or load destination of the same length reuses
    one, never while a view of it lives, and the free list stays inside
    what the budget leaves beside ``in_use``."""

    N = 32768  # 256 KiB of float64: a mapping of its own

    @staticmethod
    def addr(arr):
        return arr.__array_interface__["data"][0]

    @staticmethod
    def drive(store, effects):
        """Play the I/O filter: fill each load's destination with the
        block number + 1, land each spill; what they return is played
        too.  Returns the grants."""
        grants, todo = [], list(effects)
        while todo:
            e = todo.pop(0)
            if e.kind == "load":
                data = e.data
                if data is None:  # a raw block, mapped from its file
                    data = np.full(store.arrays[e.array].block_length(e.block),
                                   e.block + 1.0)
                assert data.flags.writeable
                data[:] = e.block + 1
                data.flags.writeable = False
                todo += store.on_loaded(e.array, e.block, data)
            elif e.kind == "spill":
                todo += store.on_spilled(e.array, e.block)
            elif e.kind in ("grant_read", "grant_write"):
                grants.append(e.ticket)
        return grants

    def write(self, store, name, value, n=None):
        d = desc(name=name, length=n or self.N, block=n or self.N)
        store.create_array(d)
        ticket, effects = store.request_write(whole_block(d, 0))
        (granted,) = self.drive(store, effects)
        assert not granted.data.any()  # zeroed, reused or fresh
        granted.data[:] = value
        address = self.addr(granted.data)
        store.release(granted)
        return address

    def load(self, store, name, n=None):
        """A read of an on-disk block, returned with its ticket held."""
        d = ArrayDesc(name, length=n or self.N, block_elems=n or self.N,
                      codec="zlib")  # decoded into a destination, not mapped
        store.register_on_disk(d)
        ticket, effects = store.request_read(whole_block(d, 0))
        (granted,) = self.drive(store, effects)
        return granted

    def test_a_held_view_keeps_its_bytes_past_the_drop(self):
        store = LocalStore(0, memory_budget=10 * self.N * 8)
        self.write(store, "a", 7.0)
        reader, _ = store.request_read(whole_block(store.arrays["a"], 0))
        view = reader.data
        store.release(reader)
        store.delete_array("a")
        del reader, _
        assert store.spare.nbytes == 0  # its view still lives
        assert self.write(store, "b", 9.0) != self.addr(view)
        loaded = self.load(store, "c")
        assert self.addr(loaded.data) != self.addr(view)
        assert (view == 7.0).all() and (loaded.data == 1.0).all()
        assert store.metrics.get("buffers_recycled") == 0

    @pytest.mark.parametrize("then", ["write", "load"])
    def test_a_clean_drop_backs_the_next_block_of_its_length(self, then):
        store = LocalStore(0, memory_budget=10 * self.N * 8)
        first = self.write(store, "a", 7.0)
        store.delete_array("a")
        assert store.spare.nbytes == self.N * 8
        if then == "write":  # self.write asserts the grant reads zeros
            again = self.write(store, "b", 3.0)
        else:
            loaded = self.load(store, "b")
            again = self.addr(loaded.data)
            assert (loaded.data == 1.0).all()
            store.release(loaded)
        assert again == first
        assert store.metrics.get("buffers_recycled") == 1
        assert store.spare.nbytes == 0
        # another length does not take it
        store.delete_array("b")
        self.write(store, "c", 1.0, n=self.N + 1024)
        assert store.metrics.get("buffers_recycled") == 1

    def test_close_leaves_no_free_mapping(self):
        store = LocalStore(0, memory_budget=10 * self.N * 8)
        for name in "abc":
            self.write(store, name, 1.0)
        for name in "ab":
            store.delete_array(name)
        assert store.spare.nbytes == 2 * self.N * 8
        store.close()
        assert store.spare.nbytes == 0
        store.delete_array("c")  # dropped after close: unmapped
        assert store.spare.nbytes == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["write", "load", "drop",
                                               "hold", "let_go"]),
                              st.integers(0, 4), st.booleans()),
                    max_size=30))
    def test_free_list_and_in_use_stay_within_the_budget(self, ops):
        store = LocalStore(0, memory_budget=3 * self.N * 8 + 4096)
        held = []
        for op, i, longer in ops:
            name, n = f"x{i}", self.N + (2048 if longer else 0)
            known = store.has_array(name)
            if op == "write" and not known:
                self.write(store, name, float(i), n=n)
            elif op == "load" and not known:
                ticket = self.load(store, name, n=n)
                store.release(ticket)
            elif op == "drop" and known:
                store.delete_array(name)
            elif op == "hold" and known:
                d = store.arrays[name]
                ticket, effects = store.request_read(whole_block(d, 0))
                for granted in self.drive(store, effects):
                    held.append((granted.data, granted.data.copy()))
                    store.release(granted)
            elif op == "let_go" and held:
                held.pop(0)
            assert store.spare.nbytes + store.in_use <= store.budget
            for view, want in held:
                assert (view == want).all()
        store.close()
        assert store.spare.nbytes == 0

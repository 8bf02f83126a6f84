"""Stateful property-based testing of the DOoC storage layer.

A hypothesis rule machine drives a LocalStore through random interleavings
of writes, reads, releases, prefetches, I/O completions, and checks the
core invariants the paper's design rests on:

* memory accounting never goes negative nor above the budget;
* write-once semantics hold under any interleaving;
* every read that is eventually granted observes exactly the bytes that
  were written (immutability = no torn reads);
* the store never issues a load for a block that has no persistent copy;
* all effects reference tickets it created;
* the scoped residency query (the ``map`` reply) says, for any set of
  names, what the block table says about those names.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.array import ArrayDesc
from repro.core.errors import ImmutabilityError, StorageError
from repro.core.interval import Interval
from repro.core.storage import LocalStore, Ticket

N_ARRAYS = 3
LENGTH = 40
BLOCK = 10
BUDGET_BLOCKS = 3  # tight: forces spills and evictions
REMOTE, IDLE, UNKNOWN = "r0", "idle", "nope"
REMOTE_BLOCKS = 2
REMOTE_FILL = -1.0
#: what a residency query may be asked about: written arrays, a remote
#: array, a known array no block of which was ever touched, an unknown name
QUERY_NAMES = [f"a{i}" for i in range(N_ARRAYS)] + [REMOTE, IDLE, UNKNOWN]


class StorageMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = LocalStore(0, memory_budget=BUDGET_BLOCKS * BLOCK * 8)
        self.descs = {}
        for i in range(N_ARRAYS):
            desc = ArrayDesc(f"a{i}", length=LENGTH, block_elems=BLOCK)
            self.descs[desc.name] = desc
            self.store.create_array(desc)
        remote = ArrayDesc(REMOTE, length=REMOTE_BLOCKS * BLOCK,
                           block_elems=BLOCK)
        self.descs[REMOTE] = remote
        self.store.register_remote(remote)
        self.store.create_array(
            ArrayDesc(IDLE, length=LENGTH, block_elems=BLOCK))
        # model state
        self.written: dict[tuple[str, int, int], float] = {  # (arr, lo, hi)->fill
            (REMOTE, *remote.block_bounds(b)): REMOTE_FILL
            for b in remote.blocks()}
        self.covered: dict[str, set[int]] = {f"a{i}": set() for i in range(N_ARRAYS)}
        self.write_tickets: list[Ticket] = []
        self.read_tickets: list[Ticket] = []
        self.pending_loads: list[tuple[str, int]] = []
        self.pending_spills: list[tuple[str, int, np.ndarray]] = []
        self.pending_fetches: list[int] = []
        self.spilled_data: dict[tuple[str, int], np.ndarray] = {}
        self.fill_counter = 0.0

    # -- helpers ----------------------------------------------------------------

    def _absorb(self, effects):
        for e in effects:
            if e.kind == "load":
                assert (e.array, e.block) in self.spilled_data, (
                    "load issued for a block never spilled/persisted"
                )
                self.pending_loads.append((e.array, e.block))
            elif e.kind == "spill":
                assert e.data is not None
                self.pending_spills.append((e.array, e.block, e.data.copy()))
            elif e.kind == "grant_read":
                t = e.ticket
                assert t is not None and t.granted
                self.read_tickets.append(t)
                self._check_read(t)
            elif e.kind == "grant_write":
                t = e.ticket
                assert t is not None and t.granted
                # fill with a unique value and record the model
                self.fill_counter += 1.0
                t.data[:] = self.fill_counter
                self.written[(t.interval.array, t.interval.lo, t.interval.hi)] = \
                    self.fill_counter
                self.write_tickets.append(t)
            elif e.kind == "fetch_remote":
                assert e.array == REMOTE
                self.pending_fetches.append(e.block)

    def _check_read(self, t: Ticket):
        """A granted read must see exactly the written values."""
        iv = t.interval
        for pos in range(iv.lo, iv.hi):
            expected = None
            for (arr, lo, hi), fill in self.written.items():
                if arr == iv.array and lo <= pos < hi:
                    expected = fill
                    break
            assert expected is not None, "read granted over unwritten range"
            assert float(t.data[pos - iv.lo]) == expected

    # -- rules -------------------------------------------------------------------

    intervals = st.tuples(
        st.integers(0, N_ARRAYS - 1),
        st.integers(0, LENGTH // BLOCK - 1),
        st.integers(0, BLOCK - 2),
        st.integers(1, BLOCK),
    )

    @rule(spec=intervals)
    def request_write(self, spec):
        ai, block, off, size = spec
        name = f"a{ai}"
        lo = block * BLOCK + off
        hi = min(lo + size, (block + 1) * BLOCK)
        try:
            ticket, effects = self.store.request_write(Interval(name, block, lo, hi))
        except ImmutabilityError:
            return  # overlap with previous writes: correctly refused
        self._absorb(effects)
        if not ticket.granted:
            self.write_tickets.append(ticket)  # queued; will fill at grant

    @rule(ai=st.integers(0, N_ARRAYS - 1),
          block=st.integers(0, LENGTH // BLOCK - 1))
    def request_whole_block_write(self, ai, block):
        """Pieces rarely add up to a sealed block; whole blocks do.  (A
        written array is 4 blocks against a budget of 3, so it is never
        resident whole: the remote array is the one that can be.)"""
        self.request_write((ai, block, 0, BLOCK))

    @rule(spec=intervals)
    def request_read(self, spec):
        ai, block, off, size = spec
        name = f"a{ai}"
        lo = block * BLOCK + off
        hi = min(lo + size, (block + 1) * BLOCK)
        ticket, effects = self.store.request_read(Interval(name, block, lo, hi))
        self._absorb(effects)

    @rule(data=st.data())
    def release_a_write(self, data):
        ready = [t for t in self.write_tickets if t.granted and not t.released]
        if not ready:
            return
        t = data.draw(st.sampled_from(ready))
        iv = t.interval
        key = (iv.array, iv.lo, iv.hi)
        if key not in self.written:
            # Grant effect not yet absorbed is impossible (absorb is sync);
            # but a queued ticket granted inside absorb is filled there.
            self.fill_counter += 1.0
            t.data[:] = self.fill_counter
            self.written[key] = self.fill_counter
        self._absorb(self.store.release(t))
        self.write_tickets.remove(t)
        for pos in range(iv.lo, iv.hi):
            self.covered[iv.array].add(pos)

    @rule(data=st.data())
    def release_a_read(self, data):
        ready = [t for t in self.read_tickets if not t.released]
        if not ready:
            return
        t = data.draw(st.sampled_from(ready))
        self._absorb(self.store.release(t))
        self.read_tickets.remove(t)

    @rule(data=st.data())
    def serve_load(self, data):
        if not self.pending_loads:
            return
        idx = data.draw(st.integers(0, len(self.pending_loads) - 1))
        array, block = self.pending_loads.pop(idx)
        payload = self.spilled_data[(array, block)]
        self._absorb(self.store.on_loaded(array, block, payload.copy()))

    @rule(data=st.data())
    def serve_spill(self, data):
        if not self.pending_spills:
            return
        idx = data.draw(st.integers(0, len(self.pending_spills) - 1))
        array, block, payload = self.pending_spills.pop(idx)
        self.spilled_data[(array, block)] = payload
        self._absorb(self.store.on_spilled(array, block))

    @rule(spec=intervals)
    def prefetch(self, spec):
        ai, block, _, _ = spec
        name = f"a{ai}"
        lo, hi = self.descs[name].block_bounds(block)
        self._absorb(self.store.prefetch(Interval(name, block, lo, hi)))

    @rule(block=st.integers(0, REMOTE_BLOCKS - 1), warm=st.booleans())
    def read_or_prefetch_remote(self, block, warm):
        lo, hi = self.descs[REMOTE].block_bounds(block)
        iv = Interval(REMOTE, block, lo, hi)
        if warm:
            self._absorb(self.store.prefetch(iv))
        else:
            _ticket, effects = self.store.request_read(iv)
            self._absorb(effects)

    @rule(data=st.data())
    def serve_fetch(self, data):
        if not self.pending_fetches:
            return
        idx = data.draw(st.integers(0, len(self.pending_fetches) - 1))
        block = self.pending_fetches.pop(idx)
        self._absorb(self.store.on_remote_data(
            REMOTE, block, np.full(BLOCK, REMOTE_FILL)))

    def _whole_arrays(self, names):
        """Of ``names``: known, and every block resident and sealed — read
        off ``availability_map()`` (a block with no state is absent)."""
        amap = self.store.availability_map()
        return {n for n in names if n in self.store.arrays and all(
            amap.get((n, b), False) for b in self.store.arrays[n].blocks())}

    @rule(names=st.sets(st.sampled_from(QUERY_NAMES)))
    def residency_query(self, names):
        """The scoped answer is the block table's, for exactly the names
        asked, and reads at most those arrays' blocks to give it."""
        before = self.store.metrics.get("map_blocks_examined")
        assert self.store.resident_among(names) == self._whole_arrays(names)
        examined = self.store.metrics.get("map_blocks_examined") - before
        assert examined <= sum(self.store.arrays[n].n_blocks
                               for n in names if n in self.store.arrays)

    # -- invariants --------------------------------------------------------------

    @invariant()
    def resident_arrays_is_the_scoped_answer_over_all_names(self):
        everything = self.store.resident_among(QUERY_NAMES)
        assert self.store.resident_arrays() == everything
        assert everything == self._whole_arrays(QUERY_NAMES)
        assert IDLE not in everything and UNKNOWN not in everything

    @invariant()
    def memory_accounting(self):
        assert 0 <= self.store.in_use <= self.store.budget

    @invariant()
    def double_release_is_refused(self):
        for t in self.read_tickets[:1]:
            if t.released:
                try:
                    self.store.release(t)
                    raise AssertionError("double release accepted")
                except StorageError:
                    pass

    @invariant()
    def availability_map_is_consistent(self):
        amap = self.store.availability_map()
        for (name, block), avail in amap.items():
            if avail:
                blo, bhi = self.descs[name].block_bounds(block)
                data = self.store.peek_block(name, block)
                assert data is not None

    @invariant()
    def loading_arrays_matches_the_block_table(self):
        """The in-flight set the scheduler waits on is kept incrementally;
        it must say what a scan of the block states would."""
        scanned = {name for (name, _b), st in self.store._blocks.items()
                   if st.status in ("loading", "fetching")}
        assert self.store.loading_arrays() == scanned


TestStorageStateMachine = StorageMachine.TestCase
TestStorageStateMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)

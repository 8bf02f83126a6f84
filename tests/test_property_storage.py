"""Stateful property-based testing of the DOoC storage layer.

A hypothesis rule machine drives a LocalStore through random interleavings
of its public calls — writes, reads, releases, abandons, prefetches, I/O
completions and failures, ``mark_on_disk``, deletes and ``retain`` — and
checks the invariants the paper's design rests on:

* memory accounting is exact: ``in_use`` is the bytes of the blocks that
  hold data plus the reservations of the transfers in flight, and never
  exceeds the budget;
* two waiters, one transfer: a block is never loaded or fetched twice at
  once;
* write-once semantics hold under any interleaving;
* every read that is eventually granted observes exactly the bytes that
  were written (immutability = no torn reads);
* the store never issues a load for a block that has no persistent copy;
* all effects reference tickets it created;
* the scoped residency query (the ``map`` reply) says, for any set of
  names, what the block table says about those names.

The machine never restates a transition: it calls the store, answers its
effects the way a driver would, and checks what comes back.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
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
#: the arrays a delete or a retain may forget (the machine registers them
#: again, as a new run would)
FORGETTABLE = [f"a{i}" for i in range(N_ARRAYS)] + [REMOTE, IDLE]


class StorageMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = LocalStore(0, memory_budget=BUDGET_BLOCKS * BLOCK * 8)
        self.descs = {f"a{i}": ArrayDesc(f"a{i}", length=LENGTH, block_elems=BLOCK)
                      for i in range(N_ARRAYS)}
        self.descs[REMOTE] = ArrayDesc(REMOTE, length=REMOTE_BLOCKS * BLOCK,
                                       block_elems=BLOCK)
        self.descs[IDLE] = ArrayDesc(IDLE, length=LENGTH, block_elems=BLOCK)
        # model state
        self.written: dict[tuple[str, int, int], float] = {}  # (arr, lo, hi)->fill
        self.write_tickets: list[Ticket] = []
        self.read_tickets: list[Ticket] = []
        self.pending_loads: list[tuple[str, int]] = []
        self.pending_spills: list[tuple[str, int, np.ndarray]] = []
        self.pending_fetches: list[int] = []
        self.spilled_data: dict[tuple[str, int], np.ndarray] = {}
        self.fill_counter = 0.0
        for name in FORGETTABLE:
            self._register(name)

    # -- helpers ----------------------------------------------------------------

    def _register(self, name):
        """(Re-)register ``name`` as a fresh run would see it."""
        desc = self.descs[name]
        if name == REMOTE:
            self.store.register_remote(desc)
            for b in desc.blocks():
                self.written[(REMOTE, *desc.block_bounds(b))] = REMOTE_FILL
        else:
            self.store.create_array(desc)

    def _forget(self, name):
        """The store forgot ``name``: so does the model."""
        self.written = {k: v for k, v in self.written.items() if k[0] != name}
        self.write_tickets = [t for t in self.write_tickets
                              if t.interval.array != name]
        self.read_tickets = [t for t in self.read_tickets
                             if t.interval.array != name]
        self.pending_loads = [p for p in self.pending_loads if p[0] != name]
        self.pending_spills = [p for p in self.pending_spills if p[0] != name]
        if name == REMOTE:
            self.pending_fetches = []
        self.spilled_data = {k: v for k, v in self.spilled_data.items()
                             if k[0] != name}
        self._register(name)

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
            elif e.kind == "deny":
                assert e.ticket is not None and not e.ticket.granted and e.error

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

    def _pick(self, data, items):
        return items.pop(data.draw(st.integers(0, len(items) - 1)))

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

    @rule(ai=st.integers(0, N_ARRAYS - 1),
          block=st.integers(0, LENGTH // BLOCK - 1))
    def request_whole_block_write(self, ai, block):
        """Pieces rarely add up to a sealed block; whole blocks do.  (A
        written array is 4 blocks against a budget of 3, so it is never
        resident whole: the remote array is the one that can be.)"""
        self.request_write((ai, block, 0, BLOCK))

    @rule(ai=st.integers(0, N_ARRAYS - 1))
    def produce_whole_array(self, ai):
        """A task writes all of an array and releases what it is granted
        at once, so arrays get sealed, spilled, persisted and loaded back
        within a run of the machine."""
        granted_before = set(map(id, self.write_tickets))
        for block in range(LENGTH // BLOCK):
            self.request_write((ai, block, 0, BLOCK))
        for t in [t for t in self.write_tickets if id(t) not in granted_before]:
            self._absorb(self.store.release(t))
            self.write_tickets.remove(t)

    @rule(spec=intervals)
    def request_read(self, spec):
        ai, block, off, size = spec
        name = f"a{ai}"
        lo = block * BLOCK + off
        hi = min(lo + size, (block + 1) * BLOCK)
        ticket, effects = self.store.request_read(Interval(name, block, lo, hi))
        self._absorb(effects)

    @rule(data=st.data())
    def read_back_a_persisted_block(self, data):
        """Read a block whose bytes went to disk: a load, unless it is
        still (or again) resident."""
        if not self.spilled_data:
            return
        name, block = data.draw(st.sampled_from(sorted(self.spilled_data)))
        _ticket, effects = self.store.request_read(
            Interval(name, block, *self.descs[name].block_bounds(block)))
        self._absorb(effects)

    @rule(data=st.data())
    def release_a_write(self, data):
        ready = [t for t in self.write_tickets if t.granted and not t.released]
        if not ready:
            return
        t = data.draw(st.sampled_from(ready))
        self._absorb(self.store.release(t))
        self.write_tickets.remove(t)

    @rule(data=st.data())
    def abandon_a_write(self, data):
        """A failed task retracts its output: the range was never readable,
        and may be written again."""
        ready = [t for t in self.write_tickets if t.granted and not t.released]
        if not ready:
            return
        t = data.draw(st.sampled_from(ready))
        self._absorb(self.store.abandon_write(t))
        self.write_tickets.remove(t)
        del self.written[(t.interval.array, t.interval.lo, t.interval.hi)]

    @rule(data=st.data())
    def release_a_read(self, data):
        ready = [t for t in self.read_tickets if not t.released]
        if not ready:
            return
        t = data.draw(st.sampled_from(ready))
        self._absorb(self.store.release(t))
        self.read_tickets.remove(t)

    @rule(data=st.data(), fail=st.integers(0, 3))
    def serve_load(self, data, fail):
        """One load in four fails for good: its waiters are denied."""
        if not self.pending_loads:
            return
        array, block = self._pick(data, self.pending_loads)
        if fail == 0:
            self._absorb(self.store.on_load_failed(array, block, "disk error"))
        else:
            payload = self.spilled_data[(array, block)]
            self._absorb(self.store.on_loaded(array, block, payload.copy()))

    @rule(data=st.data(), fail=st.integers(0, 9))
    def serve_spill(self, data, fail):
        """One spill in ten fails for good: the block must stay resident,
        unless a copy reached the disk another way (``mark_on_disk``)."""
        if not self.pending_spills:
            return
        array, block, payload = self._pick(data, self.pending_spills)
        if fail == 0:
            self._absorb(self.store.on_spill_failed(array, block, "disk full"))
            assert (self.store.peek_block(array, block) is not None
                    or self.store.block_on_disk(array, block))
        else:
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

    @rule(data=st.data(), fail=st.booleans())
    def serve_fetch(self, data, fail):
        if not self.pending_fetches:
            return
        block = self._pick(data, self.pending_fetches)
        if fail:
            self._absorb(self.store.on_fetch_failed(REMOTE, block, "peer lost"))
        else:
            self._absorb(self.store.on_remote_data(
                REMOTE, block, np.full(BLOCK, REMOTE_FILL)))

    @rule(ai=st.integers(0, N_ARRAYS - 1))
    def mark_on_disk(self, ai):
        """The driver persisted a completely written array: its blocks are
        dropped from now on, and loaded back from what was written."""
        name = f"a{ai}"
        try:
            self.store.mark_on_disk(name)
        except StorageError:
            return  # not completely written: correctly refused
        for b in self.descs[name].blocks():
            resident = self.store.peek_block(name, b)
            if resident is not None:
                self.spilled_data[(name, b)] = resident.copy()
            assert (name, b) in self.spilled_data

    @rule(name=st.sampled_from(FORGETTABLE), keep=st.sets(st.sampled_from(FORGETTABLE)),
          between_runs=st.booleans())
    def delete_array_or_retain(self, name, keep, between_runs):
        """A garbage-collected array goes unless a block of it is busy;
        between runs, what is not kept, or is busy, is forgotten.  (One
        rule for both, so the store's state is not reset too often to
        grow.)"""
        if between_runs:
            self._absorb(self.store.retain(keep))
        else:
            try:
                self._absorb(self.store.delete_array(name))
            except StorageError:
                return  # a block is pinned or in flight: nothing changed
        for forgotten in FORGETTABLE:
            if not self.store.has_array(forgotten):
                self._forget(forgotten)

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
        """``in_use`` is the bytes of the blocks holding data plus one
        reservation per transfer the driver has been asked for and has not
        answered."""
        holding = sum(st.nbytes for st in self.store._blocks.values()
                      if st.data is not None)
        in_flight = [self.descs[a].block_nbytes(b) for a, b in self.pending_loads]
        in_flight += [self.descs[REMOTE].block_nbytes(b) for b in self.pending_fetches]
        assert self.store.in_use == holding + sum(in_flight)
        assert 0 <= self.store.in_use <= self.store.budget

    @invariant()
    def two_waiters_one_transfer(self):
        transfers = self.pending_loads + [(REMOTE, b) for b in self.pending_fetches]
        assert len(transfers) == len(set(transfers))
        assert {a for a, _ in transfers} == self.store.loading_arrays()

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
                assert self.store.peek_block(name, block) is not None


TestStorageStateMachine = StorageMachine.TestCase
TestStorageStateMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)

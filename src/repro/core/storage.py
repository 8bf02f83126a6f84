"""The per-node storage layer: a pure, effect-emitting state machine.

This module implements the semantics of Section III-B:

* arrays are **immutable**: a given element can be written once, and can be
  read only after its writing interval is *released* — which removes race
  conditions and the need for coherency protocols;
* filters *request* intervals with read or write permission and *release*
  them; for reads, data stays pinned until release (reference counting);
* blocks whose reference count is zero may be **reclaimed** under memory
  pressure in LRU order — dropped if a copy exists on disk (or on the
  owning peer, for remotely fetched blocks), spilled to disk first
  otherwise;
* **prefetch** warms blocks ahead of use; loads and spills are asynchronous.

The class is *pure*: every public method returns a list of
:class:`Effect` records (``load``, ``spill``, ``drop``, ``fetch_remote``,
``grant_read``, ``grant_write``) that the driver — the threaded storage
filter, the DES testbed node, or a unit test — executes and answers via
``on_loaded`` / ``on_spilled`` / ``on_remote_data``.  Purity is what lets
the real engine and the simulator share one storage implementation.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from typing import Any, Literal

import numpy as np

from repro.core.array import ArrayDesc
from repro.core.errors import ImmutabilityError, StorageError, UnknownArrayError
from repro.core.interval import Interval, Permission
from repro.core.iofilter import block_buffer
from repro.obs.metrics import MetricsRegistry

__all__ = ["Effect", "Ticket", "LocalStore"]


@dataclass(frozen=True)
class Effect:
    """An action the driver must perform on behalf of the store.

    ``deny`` is the failure counterpart of ``grant_read``: the ticket's
    backing I/O failed permanently, and the driver must route ``error``
    back to the requester instead of a grant.
    """

    kind: Literal["load", "spill", "drop", "fetch_remote", "grant_read",
                  "grant_write", "deny"]
    array: str = ""
    block: int = -1
    data: np.ndarray | None = None
    ticket: Ticket | None = None
    error: str = ""
    #: for ``load`` effects under a segment pool: the pre-allocated
    #: shared-memory segment the I/O filter must read the bytes into
    segment: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.ticket is not None:
            return f"Effect({self.kind}, ticket={self.ticket.tid})"
        return f"Effect({self.kind}, {self.array}[{self.block}])"


@dataclass
class Ticket:
    """An outstanding interval request; doubles as the release token."""

    tid: int
    interval: Interval
    permission: Permission
    granted: bool = False
    released: bool = False
    data: np.ndarray | None = None  # view into the block, set at grant
    tag: Any = None  # opaque driver correlation slot
    #: the block's seal generation at grant time (read grants only):
    #: cache keys derived from this view stay valid exactly as long as
    #: the backing buffer does (see repro.core.opcache)
    generation: int = 0
    #: under a segment pool: the picklable BlockHandle describing this
    #: grant's span for cross-process dispatch (None on plain buffers)
    handle: Any = None


# Block residency states
_ABSENT = "absent"
_LOADING = "loading"
_RESIDENT = "resident"
_SPILLING = "spilling"
_FETCHING = "fetching"


@dataclass
class _BlockState:
    desc: ArrayDesc
    block: int
    status: str = _ABSENT
    data: np.ndarray | None = None
    on_disk: bool = False
    remote: bool = False           # home is another node; droppable when cached
    sealed: bool = False           # every element written (or discovered on disk)
    written: list[tuple[int, int]] = field(default_factory=list)  # merged, global idx
    readers: int = 0
    writers: int = 0
    lru: int = 0
    read_waiters: list[Ticket] = field(default_factory=list)
    #: bumped whenever the in-memory buffer is reclaimed; decoded-operand
    #: cache entries are keyed on it so they can never outlive the bytes
    generation: int = 0
    #: the segment pool's key for the block backing ``data`` (pool mode only)
    segment: str | None = None

    @property
    def nbytes(self) -> int:
        return self.desc.block_nbytes(self.block)

    @property
    def pinned(self) -> bool:
        return self.readers > 0 or self.writers > 0 or bool(self.read_waiters)

    def covers(self, lo: int, hi: int) -> bool:
        """Is [lo, hi) fully inside the written ranges?"""
        return any(wlo <= lo and hi <= whi for wlo, whi in self.written)

    def overlaps_written(self, lo: int, hi: int) -> bool:
        return any(lo < whi and wlo < hi for wlo, whi in self.written)

    def add_written(self, lo: int, hi: int) -> None:
        """Merge [lo, hi) into the written set."""
        spans = sorted(self.written + [(lo, hi)])
        merged: list[tuple[int, int]] = []
        for s in spans:
            if merged and s[0] <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], s[1]))
            else:
                merged.append(s)
        self.written = merged
        blo, bhi = self.desc.block_bounds(self.block)
        if self.written == [(blo, bhi)]:
            self.sealed = True


class LocalStore:
    """Storage layer of one node. See module docstring for the contract."""

    def __init__(self, node: int, memory_budget: int, *,
                 segment_pool: Any = None):
        if memory_budget <= 0:
            raise StorageError("memory budget must be positive")
        self.node = node
        self.budget = int(memory_budget)
        #: Optional :class:`repro.core.shm.SegmentPool`.  When set, every
        #: block buffer is carved from a named shared-memory segment and
        #: grants carry a picklable :class:`~repro.core.shm.BlockHandle`,
        #: so the process worker plane can map the same bytes.  ``None``
        #: (thread plane) keeps plain heap ndarrays.
        self.segment_pool = segment_pool
        self.in_use = 0
        self.arrays: dict[str, ArrayDesc] = {}
        self._remote_arrays: set[str] = set()
        self._blocks: dict[tuple[str, int], _BlockState] = {}
        self._clock = itertools.count(1)
        self._tids = itertools.count(1)
        self._write_tickets: dict[tuple[str, int], list[Ticket]] = {}
        #: (array, block) of every load or remote fetch in flight
        self._in_flight: set[tuple[str, int]] = set()
        # FIFO of (needed_bytes, thunk) waiting for memory; thunk returns effects.
        self._alloc_queue: deque[tuple[int, Any]] = deque()
        self.metrics = MetricsRegistry(node)
        #: Optional :class:`repro.analysis.tickets.TicketAuditor`; when set
        #: (engine under ``DOOC_CHECKERS=1``) every grant/release/abandon is
        #: reported so leaks can be named at teardown.  ``None`` in
        #: production — the hooks cost a single attribute test.
        self.auditor: Any = None
        #: Optional :class:`repro.core.opcache.DecodedOperandCache` shared
        #: by this node's workers; when set, every buffer reclaim
        #: (``_free``) and array deletion invalidates the entries decoded
        #: from those bytes.  ``None`` when the cache is disabled.
        self.opcache: Any = None

    # -- array registration ----------------------------------------------------

    def create_array(self, desc: ArrayDesc) -> None:
        """Declare a new, locally-homed, not-yet-written array."""
        if desc.name in self.arrays:
            raise StorageError(f"array {desc.name!r} already exists on node {self.node}")
        self.arrays[desc.name] = desc

    def register_on_disk(self, desc: ArrayDesc) -> None:
        """Record an array discovered in the scratch directory at startup.

        Its blocks are sealed and on disk — exactly what the paper's storage
        does when it "looks for files in that directory and records the name
        of the arrays as well as their sizes".
        """
        self.create_array(desc)
        for b in desc.blocks():
            st = self._state(desc.name, b)
            st.on_disk = True
            st.sealed = True
            st.written = [desc.block_bounds(b)]

    def register_remote(self, desc: ArrayDesc) -> None:
        """Declare an array homed on another node (fetchable, cache-droppable)."""
        if desc.name in self.arrays:
            raise StorageError(f"array {desc.name!r} already exists on node {self.node}")
        self.arrays[desc.name] = desc
        self._remote_arrays.add(desc.name)

    def delete_array(self, name: str) -> list[Effect]:
        """Forget an array; its resident blocks are freed, disk copy dropped.

        Deletion is atomic: every block is validated before any state is
        touched, so a pinned or in-flight block raises with residency,
        ``in_use`` and the block table unchanged (the failed delete is
        retried by the driver once the pin is released).
        """
        desc = self._desc(name)
        states = [
            st for b in desc.blocks()
            if (st := self._blocks.get((name, b))) is not None
        ]
        for st in states:
            if st.pinned or st.status in (_LOADING, _SPILLING, _FETCHING):
                raise StorageError(
                    f"cannot delete {name!r}: block {st.block} is in use "
                    f"on node {self.node}"
                )
        effects: list[Effect] = []
        for st in states:
            if st.data is not None:
                self._free(st)
            effects.append(Effect("drop", name, st.block))
            del self._blocks[(name, st.block)]
        del self.arrays[name]
        self._remote_arrays.discard(name)
        if self.opcache is not None:
            self.opcache.invalidate(name)
        effects.extend(self._pump_allocs())
        return effects

    def retain(self, keep: Collection[str]) -> list[Effect]:
        """Between runs: forget every array not named in ``keep``.

        A kept array stays registered with its resident blocks, their LRU
        stamps and their seal generations, so the next run reads them
        without a load and decoded operands keyed on those generations
        stay valid.  Everything else goes, state and all.  No driver is
        attached between runs, so what the last one left half-done (queued
        allocations, a load issued after the I/O filters had closed) is
        unwound rather than refused; a kept array with such a block is
        forgotten whole and must be registered again by the caller.
        """
        self._alloc_queue.clear()
        self._write_tickets.clear()
        by_array: dict[str, list[_BlockState]] = {}
        for (name, _block), st in self._blocks.items():
            by_array.setdefault(name, []).append(st)
        effects: list[Effect] = []
        for name in list(self.arrays):
            states = by_array.get(name, [])
            if name in keep and not any(
                    st.pinned or st.status in (_LOADING, _SPILLING, _FETCHING)
                    for st in states):
                continue
            for st in states:
                if st.data is not None:
                    self._free(st)
                    effects.append(Effect("drop", name, st.block))
                elif (name, st.block) in self._in_flight:
                    self.in_use -= st.nbytes  # the reservation of the load
                    self._in_flight.discard((name, st.block))
                    if st.segment is not None:
                        self.segment_pool.free(st.segment)
                del self._blocks[(name, st.block)]
            del self.arrays[name]
            self._remote_arrays.discard(name)
            if self.opcache is not None:
                self.opcache.invalidate(name)
        return effects

    def mark_on_disk(self, name: str) -> None:
        """The driver wrote every block of completed array ``name`` to
        this node's scratch: its blocks may now be dropped, not spilled."""
        desc = self._desc(name)
        states = [self._blocks.get((name, b)) for b in desc.blocks()]
        if not all(st is not None and st.sealed for st in states):
            raise StorageError(
                f"array {name!r} is not completely written on node {self.node}")
        for st in states:
            st.on_disk = True

    def has_array(self, name: str) -> bool:
        return name in self.arrays

    def is_remote(self, name: str) -> bool:
        return name in self._remote_arrays

    # -- requests ----------------------------------------------------------------

    def request_read(self, interval: Interval) -> tuple[Ticket, list[Effect]]:
        """Ask for read access; the grant arrives as a ``grant_read`` effect
        (immediately in the returned list when possible)."""
        desc = self._desc(interval.array)
        interval.validate_against(desc)
        ticket = Ticket(next(self._tids), interval, Permission.READ)
        st = self._state(interval.array, interval.block)
        effects = self._drive_read(st, ticket)
        return ticket, effects

    def request_write(self, interval: Interval) -> tuple[Ticket, list[Effect]]:
        """Ask for write access to a never-written range."""
        desc = self._desc(interval.array)
        interval.validate_against(desc)
        if interval.array in self._remote_arrays:
            raise StorageError(
                f"node {self.node} cannot write remote-homed array {interval.array!r}"
            )
        st = self._state(interval.array, interval.block)
        if st.sealed or st.on_disk:
            raise ImmutabilityError(
                f"block {interval.block} of {interval.array!r} is sealed"
            )
        if st.overlaps_written(interval.lo, interval.hi):
            raise ImmutabilityError(
                f"range [{interval.lo}, {interval.hi}) of {interval.array!r} "
                "overlaps an already-written range"
            )
        for other in self._outstanding_writes(interval.array, interval.block):
            if interval.lo < other.interval.hi and other.interval.lo < interval.hi:
                raise ImmutabilityError(
                    f"range [{interval.lo}, {interval.hi}) of {interval.array!r} "
                    "overlaps an outstanding write ticket"
                )
        ticket = Ticket(next(self._tids), interval, Permission.WRITE)
        st.writers += 1
        self._write_tickets.setdefault((interval.array, interval.block), []).append(ticket)
        effects = self._alloc_then(st, lambda: self._grant_write(st, ticket))
        return ticket, effects

    def release(self, ticket: Ticket) -> list[Effect]:
        """Return an interval. Write releases publish the data."""
        if ticket.released:
            raise StorageError(f"ticket {ticket.tid} released twice")
        if not ticket.granted:
            raise StorageError(f"ticket {ticket.tid} released before being granted")
        ticket.released = True
        if self.auditor is not None:
            self.auditor.note_released(self.node, ticket)
        iv = ticket.interval
        st = self._state(iv.array, iv.block)
        st.lru = next(self._clock)
        effects: list[Effect] = []
        if ticket.permission is Permission.READ:
            if st.readers <= 0:
                raise StorageError("reader refcount underflow")
            st.readers -= 1
        else:
            st.writers -= 1
            key = (iv.array, iv.block)
            outstanding = self._write_tickets[key]
            outstanding.remove(ticket)
            if not outstanding:
                # Drop the emptied entry: without this the dict gained one
                # dead key per written block for the life of the store.
                del self._write_tickets[key]
            st.add_written(iv.lo, iv.hi)
            if st.sealed and st.data is not None:
                # Fully written + released: write-once makes the buffer
                # immutable from here on — freeze it so zero-copy read
                # views (and peer serves of them) are provably safe.
                st.data.flags.writeable = False
            effects.extend(self._wake_readers(st))
        effects.extend(self._pump_allocs())
        return effects

    def abandon_pending_allocs(self) -> None:
        """Drop queued allocations (shutdown: pending prefetches only).

        Must not be called while read/write grants may still be queued — the
        driver guarantees all task work completed first.
        """
        self._alloc_queue.clear()

    def prefetch(self, interval: Interval) -> list[Effect]:
        """Warm a block without pinning it (no grant is produced)."""
        desc = self._desc(interval.array)
        interval.validate_against(desc)
        st = self._state(interval.array, interval.block)
        if st.status == _RESIDENT or st.status in (_LOADING, _FETCHING):
            return []
        if st.status == _SPILLING:
            self.metrics.inc("prefetch_dropped")
            return []  # will be dropped; re-request later
        if st.on_disk:
            return self._alloc_then(st, lambda: self._begin_load(st),
                                    prefetch=True)
        if st.desc.name in self._remote_arrays:
            return self._alloc_then(st, lambda: self._begin_fetch(st),
                                    prefetch=True)
        return []  # not yet written anywhere: nothing to warm

    # -- async completions ---------------------------------------------------------

    def on_loaded(self, array: str, block: int, data: np.ndarray) -> list[Effect]:
        """Driver finished a ``load`` effect."""
        st = self._state(array, block)
        if st.status != _LOADING:
            raise StorageError(f"unexpected load completion for {array}[{block}]")
        self._install(st, data)
        self.metrics.inc("loads", label=array)
        self.metrics.inc("bytes_loaded", st.nbytes)
        effects = self._wake_readers(st)
        # The block just became evictable (if unpinned): queued allocations
        # may now be satisfiable by reclaiming it.
        effects.extend(self._pump_allocs())
        return effects

    def on_remote_data(self, array: str, block: int, data: np.ndarray) -> list[Effect]:
        """Driver finished a ``fetch_remote`` effect.

        Duplicate deliveries (the fetch path retransmits requests whose
        reply may merely be slow or dropped) are ignored rather than
        treated as protocol violations.
        """
        st = self._state(array, block)
        if st.status != _FETCHING:
            self.metrics.inc("stale_blockdata")
            return []
        self._install(st, data)
        st.remote = True
        self.metrics.inc("remote_fetches")
        effects = self._wake_readers(st)
        effects.extend(self._pump_allocs())
        return effects

    def on_spilled(self, array: str, block: int) -> list[Effect]:
        """Driver finished a ``spill`` effect: the block is now on disk."""
        st = self._state(array, block)
        if st.status != _SPILLING:
            raise StorageError(f"unexpected spill completion for {array}[{block}]")
        st.on_disk = True
        self.metrics.inc("spills")
        self.metrics.inc("bytes_spilled", st.nbytes)
        if st.pinned:
            # Someone requested it again while it was being written out;
            # keep the resident copy.
            st.status = _RESIDENT
            return self._wake_readers(st)
        self._free(st)
        st.status = _ABSENT
        effects = [Effect("drop", array, block)]
        effects.extend(self._pump_allocs())
        return effects

    # -- failure completions ---------------------------------------------------------

    def _fail_waiters(self, st: _BlockState, error: str) -> list[Effect]:
        """Deny every blocked read waiter of ``st`` (fail fast, no stall)."""
        effects = [
            Effect("deny", st.desc.name, st.block, ticket=t, error=error)
            for t in st.read_waiters
        ]
        st.read_waiters = []
        return effects

    def on_load_failed(self, array: str, block: int, error: str) -> list[Effect]:
        """Driver's ``load`` effect failed permanently (retries exhausted)."""
        st = self._state(array, block)
        if st.status != _LOADING:
            raise StorageError(f"unexpected load failure for {array}[{block}]")
        self._in_flight.discard((array, block))
        self.in_use -= st.nbytes  # release the reservation made at _begin_load
        if st.segment is not None:
            # The destination segment pre-allocated at _begin_load holds
            # nothing readable; return it before anyone can lease it.
            self.segment_pool.free(st.segment)
            st.segment = None
        st.status = _ABSENT
        self.metrics.inc("load_failures")
        effects = self._fail_waiters(st, error)
        effects.extend(self._pump_allocs())
        return effects

    def on_fetch_failed(self, array: str, block: int, error: str) -> list[Effect]:
        """Driver's ``fetch_remote`` effect failed permanently.

        Duplicate failure notices (the fetch path may retransmit) after the
        state already unwound are ignored.
        """
        st = self._state(array, block)
        if st.status != _FETCHING:
            return []
        self._in_flight.discard((array, block))
        self.in_use -= st.nbytes
        st.status = _ABSENT
        self.metrics.inc("fetch_failures")
        effects = self._fail_waiters(st, error)
        effects.extend(self._pump_allocs())
        return effects

    def on_spill_failed(self, array: str, block: int, error: str) -> list[Effect]:
        """Driver's ``spill`` effect failed: keep the block resident.

        The data is still in memory, so nothing is lost — the reclaim that
        wanted this block's bytes simply stays queued and a later pump will
        retry the spill (the I/O filter retries transient errors below this
        level; a permanently unwritable scratch disk keeps the block pinned
        in memory, degrading capacity rather than correctness).
        """
        st = self._state(array, block)
        if st.status != _SPILLING:
            raise StorageError(f"unexpected spill failure for {array}[{block}]")
        st.status = _RESIDENT
        self.metrics.inc("spill_failures")
        return self._wake_readers(st)

    # -- task abandonment / re-execution ----------------------------------------------

    def abandon_write(self, ticket: Ticket) -> list[Effect]:
        """Retract a granted write ticket without publishing its range.

        The write-once discipline makes task re-execution cheap: nothing
        the failed task wrote was ever readable (ranges publish only at
        release), so abandoning simply forgets the ticket and discards the
        block buffer when nothing else uses it.  The same intervals can
        then be requested again by the re-executed task.
        """
        if ticket.permission is not Permission.WRITE:
            raise StorageError("abandon_write() is for write tickets")
        if ticket.released:
            raise StorageError(f"ticket {ticket.tid} released twice")
        if not ticket.granted:
            raise StorageError(
                f"ticket {ticket.tid} abandoned before being granted")
        ticket.released = True
        if self.auditor is not None:
            self.auditor.note_abandoned(self.node, ticket)
        iv = ticket.interval
        st = self._state(iv.array, iv.block)
        st.writers -= 1
        key = (iv.array, iv.block)
        outstanding = self._write_tickets[key]
        outstanding.remove(ticket)
        if not outstanding:
            del self._write_tickets[key]
        self.metrics.inc("writes_abandoned")
        if (not st.pinned and not st.written and st.data is not None
                and st.status == _RESIDENT):
            # No released range and no other user: the buffer holds only
            # the failed task's partial output — discard it.
            self._free(st)
            st.status = _ABSENT
        return self._pump_allocs()

    # -- rehoming (graceful degradation) -----------------------------------------------

    def _purge_blocks(self, name: str) -> list[Effect]:
        """Forget all block state of ``name`` (must be unpublished/unpinned)."""
        effects: list[Effect] = []
        for key, st in [(k, s) for k, s in self._blocks.items() if k[0] == name]:
            if st.pinned or st.status in (_LOADING, _SPILLING, _FETCHING):
                raise StorageError(
                    f"cannot rehome {name!r}: block {st.block} is in use "
                    f"on node {self.node}"
                )
            if st.data is not None:
                self._free(st)
            effects.append(Effect("drop", name, st.block))
            del self._blocks[key]
        return effects

    def rehome_local(self, desc: ArrayDesc, *, on_disk: bool = False) -> list[Effect]:
        """This node becomes the home of a (never-written) rerouted array.

        With ``on_disk=True`` the array's bytes already sit in this node's
        scratch directory (node-loss recovery re-seeded an initial array
        from the shared filesystem), so every block is marked sealed and
        loadable rather than awaiting a producer.
        """
        if desc.name not in self.arrays:
            self.arrays[desc.name] = desc
        self._remote_arrays.discard(desc.name)
        effects = self._purge_blocks(desc.name)
        if on_disk:
            for b in desc.blocks():
                st = self._state(desc.name, b)
                st.on_disk = True
                st.sealed = True
                st.written = [desc.block_bounds(b)]
        effects.extend(self._pump_allocs())
        return effects

    def rehome_remote(self, name: str) -> list[Effect]:
        """A rerouted array's home moved elsewhere; keep a remote handle."""
        if name not in self.arrays:
            return []
        self._remote_arrays.add(name)
        effects = self._purge_blocks(name)
        effects.extend(self._pump_allocs())
        return effects

    def ensure_remote(self, desc: ArrayDesc) -> None:
        """Register a remote handle if the array is unknown (reroute prep)."""
        if desc.name not in self.arrays:
            self.register_remote(desc)

    def recover_remote(self, desc: ArrayDesc) -> list[Effect]:
        """A lost array found a new home elsewhere; keep/repair a remote view.

        Three cases, all safe under write-once: unknown here (register a
        remote handle), already remote (keep it — any cached sealed blocks
        stay byte-valid because reconstruction recomputes identical bytes),
        or locally homed (a double failure moved it off this node too:
        demote to remote, dropping local state).
        """
        if desc.name not in self.arrays:
            self.register_remote(desc)
            return []
        if desc.name in self._remote_arrays:
            return []
        return self.rehome_remote(desc.name)

    # -- introspection ---------------------------------------------------------------

    def availability_map(self) -> dict[tuple[str, int], bool]:
        """(array, block) -> is resident and readable right now.

        This is the map the local scheduler queries "to know which data are
        available in memory and which are not".
        """
        out = {}
        for key, st in self._blocks.items():
            out[key] = st.status == _RESIDENT and st.sealed
        return out

    def resident_among(self, names: Iterable[str]) -> set[str]:
        """Of ``names``, the arrays all of whose blocks are resident and
        sealed; a name this store does not know is not.

        This is the ``map`` reply's ``resident`` field.  It reads the
        block states of the named arrays and nothing else, so what the
        scheduler pays before a dispatch follows what it asked about (the
        inputs of its ready tasks), not how many arrays the program has;
        ``map_blocks_examined`` counts the states read.
        """
        out = set()
        examined = 0
        for name in names:
            desc = self.arrays.get(name)
            if desc is None:
                continue
            for b in desc.blocks():
                examined += 1
                st = self._blocks.get((name, b))
                if st is None or st.status != _RESIDENT or not st.sealed:
                    break
            else:
                out.add(name)
        self.metrics.inc("map_blocks_examined", examined)
        return out

    def resident_arrays(self) -> set[str]:
        """Every array all of whose blocks are resident and sealed."""
        return self.resident_among(self.arrays)

    def loading_arrays(self) -> set[str]:
        """Arrays with a block load or remote fetch in flight.

        Every one of those ends in ``on_loaded`` / ``on_remote_data`` or
        their failure twins, so a driver that sees its array here may wait
        for the completion event instead of a timer.  (Kept as a set of its
        own: the scheduler asks before every dispatch, and a scan of the
        block table costs as much as a small task.)
        """
        return {name for name, _block in self._in_flight}

    @property
    def headroom(self) -> int:
        return self.budget - self.in_use

    def peek_block(self, name: str, block: int) -> np.ndarray | None:
        """Resident sealed data of a block (read-only), else None.

        For post-run inspection only — does not pin, touch LRU, or count as
        a read.
        """
        st = self._blocks.get((name, block))
        if st is None or st.data is None or not st.sealed:
            return None
        view = st.data[:]
        view.flags.writeable = False
        return view

    def block_on_disk(self, name: str, block: int) -> bool:
        st = self._blocks.get((name, block))
        return bool(st is not None and st.on_disk)

    @property
    def alloc_queue_depth(self) -> int:
        return len(self._alloc_queue)

    def _why_blocked(self, st: _BlockState) -> str:
        if st.status in (_LOADING, _FETCHING):
            return f"{st.status} in flight"
        if st.status == _SPILLING:
            return "spill in flight"
        if st.status == _RESIDENT:
            return "awaiting writer release of the requested range"
        if st.on_disk:
            return "load not yet started (allocation queued?)"
        if st.desc.name in self._remote_arrays:
            return "remote fetch not yet started"
        return "read-before-write: range never written"

    def debug_snapshot(self) -> dict:
        """Structured liveness dump for the stall watchdog.

        Called from the watchdog thread while the owning filter may be
        mutating the store, so it only reads (shallow copies first) and the
        caller tolerates exceptions from torn iterations.
        """
        blocked_reads = []
        for (name, block), st in list(self._blocks.items()):
            for t in list(st.read_waiters):
                blocked_reads.append({
                    "ticket": t.tid, "array": name, "block": block,
                    "lo": t.interval.lo, "hi": t.interval.hi,
                    "why": self._why_blocked(st),
                })
        write_tickets = [
            {"ticket": t.tid, "array": a, "block": b, "granted": t.granted}
            for (a, b), tickets in list(self._write_tickets.items())
            for t in list(tickets)
        ]
        alloc_queue = [{"bytes": need} for need, _ in list(self._alloc_queue)]
        # Non-zero recovery counters let the watchdog distinguish a node
        # that is *retrying* (faults being absorbed) from one that stalled.
        recovery = {
            k: self.metrics.get(k)
            for k in ("io_retries", "io_failures", "faults_injected",
                      "task_reexecutions", "fetch_retransmits",
                      "lookup_retransmits", "lookup_restarts",
                      "load_failures", "fetch_failures", "spill_failures",
                      "writes_abandoned")
        }
        return {
            "in_use": self.in_use,
            "budget": self.budget,
            "blocked_reads": blocked_reads,
            "write_tickets": write_tickets,
            "alloc_queue": alloc_queue,
            "recovery": {k: v for k, v in recovery.items() if v},
        }

    # -- internals ----------------------------------------------------------------------

    def _outstanding_writes(self, array: str, block: int) -> list[Ticket]:
        return self._write_tickets.get((array, block), [])

    def _desc(self, name: str) -> ArrayDesc:
        try:
            return self.arrays[name]
        except KeyError:
            raise UnknownArrayError(
                f"array {name!r} unknown to node {self.node}"
            ) from None

    def _state(self, name: str, block: int) -> _BlockState:
        desc = self._desc(name)
        desc.block_bounds(block)  # bounds check
        key = (name, block)
        st = self._blocks.get(key)
        if st is None:
            st = _BlockState(desc=desc, block=block)
            self._blocks[key] = st
        return st

    def _drive_read(self, st: _BlockState, ticket: Ticket) -> list[Effect]:
        iv = ticket.interval
        st.lru = next(self._clock)
        if st.status == _RESIDENT and st.covers(iv.lo, iv.hi):
            self.metrics.inc("read_hits")
            return [self._grant_read(st, ticket)]
        self.metrics.inc("read_waits")
        first_waiter = not st.read_waiters
        st.read_waiters.append(ticket)
        if st.status in (_LOADING, _FETCHING, _SPILLING):
            return []  # grant will follow the in-flight transition
        if st.status == _RESIDENT:
            return []  # waiting for the range to be written & released
        # ABSENT:
        if not first_waiter:
            # The first waiter's allocation is still queued for memory (a
            # waiter pins the block, so nothing else leaves it absent): it
            # brings the block in once, for every waiter.  A second queued
            # allocation loaded it twice — double the reservation, and a
            # completion nobody expected.
            return []
        if st.on_disk:
            return self._alloc_then(
                st, lambda: self._begin_demand(st, self._begin_load))
        if st.desc.name in self._remote_arrays:
            return self._alloc_then(
                st, lambda: self._begin_demand(st, self._begin_fetch))
        # Local array not written yet: read-before-write blocks until the
        # writer releases (immutable-object paradigm).
        return []

    def _begin_demand(self, st: _BlockState, begin) -> list[Effect]:
        """A demand allocation's turn: bring the block in, unless a
        prefetch already did while this waited in the queue.

        A reclaim frees whole blocks, so it can leave room nobody pumped
        the queue for; a prefetch of the same block fits into it and
        starts the transfer.  Starting it again reserved the block's bytes
        twice — a second load then completes unexpectedly, a second
        fetch's data is dropped as stale and its reservation never
        returns.
        """
        if st.status != _ABSENT or not st.read_waiters:
            return []
        return begin(st)

    def _grant_read(self, st: _BlockState, ticket: Ticket) -> Effect:
        assert st.data is not None
        view = st.data[ticket.interval.local_slice(st.desc)]
        view.flags.writeable = False
        ticket.data = view
        ticket.generation = st.generation
        ticket.handle = self._make_handle(st, ticket)
        ticket.granted = True
        st.readers += 1
        if self.auditor is not None:
            self.auditor.note_granted(self.node, ticket)
        return Effect("grant_read", st.desc.name, st.block, ticket=ticket)

    def _grant_write(self, st: _BlockState, ticket: Ticket) -> list[Effect]:
        if st.data is None:
            self._allocate_buffer(st)
            st.status = _RESIDENT
        ticket.data = st.data[ticket.interval.local_slice(st.desc)]
        ticket.handle = self._make_handle(st, ticket)
        ticket.granted = True
        if self.auditor is not None:
            self.auditor.note_granted(self.node, ticket)
        return [Effect("grant_write", st.desc.name, st.block, ticket=ticket)]

    def _make_handle(self, st: _BlockState, ticket: Ticket) -> Any:
        """A picklable descriptor of the grant's span (pool mode only)."""
        if self.segment_pool is None or st.segment is None:
            return None
        from repro.core.shm import BlockHandle

        # ``st.segment`` is the pool's key for this block; the segment it
        # was carved from (shared with other small blocks) and where in it
        # are the pool's to say.
        segment, base = self.segment_pool.locate(st.segment)
        sl = ticket.interval.local_slice(st.desc)
        return BlockHandle(
            segment=segment,
            offset=base + sl.start * st.desc.itemsize,
            count=sl.stop - sl.start,
            dtype=st.desc.dtype,
            generation=st.generation,
        )

    def _wake_readers(self, st: _BlockState) -> list[Effect]:
        effects: list[Effect] = []
        still_waiting: list[Ticket] = []
        for ticket in st.read_waiters:
            if st.status == _RESIDENT and st.covers(ticket.interval.lo, ticket.interval.hi):
                effects.append(self._grant_read(st, ticket))
            else:
                still_waiting.append(ticket)
        st.read_waiters = still_waiting
        return effects

    # -- memory management -----------------------------------------------------------

    def _allocate_buffer(self, st: _BlockState) -> None:
        if self.segment_pool is not None:
            # Segment-backed write buffer: fresh shm pages arrive zeroed,
            # as the thread plane's block_buffer does.
            st.segment = self.segment_pool.allocate(st.nbytes)
            st.data = self.segment_pool.ndarray(
                st.segment, st.desc.block_length(st.block), st.desc.dtype)
        else:
            st.data = block_buffer(st.desc.block_length(st.block),
                                   st.desc.dtype)
        self.in_use += st.nbytes

    def _install(self, st: _BlockState, data: np.ndarray) -> None:
        # Memory was reserved by _begin_load/_begin_fetch; only attach data.
        # The delivered array becomes the block buffer: the driver must not
        # mutate it afterwards.
        expected = st.desc.block_length(st.block)
        if data.shape != (expected,):
            raise StorageError(
                f"driver delivered shape {data.shape} for block of length {expected}"
            )
        if self.segment_pool is not None:
            # Every sealed buffer must live in a named segment so grants
            # can carry handles.  Loads arrive already in the segment
            # pre-allocated by _begin_load; remote fetches arrive as wire
            # bytes and are staged into a fresh segment here (the copy
            # models the network transfer, not data-plane overhead).
            if st.segment is None:
                st.segment = self.segment_pool.allocate(st.nbytes)
            view = self.segment_pool.ndarray(st.segment, expected,
                                             st.desc.dtype)
            src = np.asarray(data)
            if (src.__array_interface__["data"][0]
                    != view.__array_interface__["data"][0]):
                view[:] = src
            view.flags.writeable = False
            st.data = view
        else:
            st.data = np.ascontiguousarray(data, dtype=st.desc.dtype)
            # Loaded/fetched blocks are sealed: freeze the buffer so every
            # view handed out of it is provably immutable (no-op when the
            # driver delivered a zero-copy read-only view already).
            st.data.flags.writeable = False
        self._in_flight.discard((st.desc.name, st.block))
        st.status = _RESIDENT
        st.sealed = True
        st.written = [st.desc.block_bounds(st.block)]

    def _free(self, st: _BlockState) -> None:
        assert st.data is not None
        self.in_use -= st.nbytes
        st.data = None
        if st.segment is not None:
            # Unlinks now or when the last worker lease drains; either way
            # no new grant can reach the old bytes (generation bump below).
            self.segment_pool.free(st.segment)
            st.segment = None
        # The buffer is gone: bump the seal generation so cache keys minted
        # from the old grants can never match again, and proactively drop
        # any decoded operands that were built over those bytes.
        st.generation += 1
        if self.opcache is not None:
            self.opcache.invalidate(st.desc.name, st.block)

    def _alloc_then(self, st: _BlockState, thunk, *, prefetch: bool = False) -> list[Effect]:
        """Run ``thunk`` once ``st``'s block fits in memory.

        Demand allocations (read/write grants) may evict (LRU reclaim) and
        queue when memory is tight.  Prefetch allocations only ever use
        *free* headroom and are dropped otherwise: the local scheduler
        prefetches into "the amount of memory available" (Section III-C) —
        an evicting prefetch would push out the most valuable block in the
        store (the still-hot one whose successor task is about to become
        ready), and a queued prefetch can deadlock a small demand behind a
        block pinned by the demanding task itself.
        """
        need = st.nbytes
        effects: list[Effect] = []
        if prefetch:
            if self.in_use + need <= self.budget:
                result = thunk()
                effects.extend([result] if isinstance(result, Effect) else result)
            else:
                self.metrics.inc("prefetch_dropped")
            return effects
        if self.in_use + need > self.budget:
            effects.extend(self._reclaim(self.in_use + need - self.budget))
        if self.in_use + need <= self.budget:
            result = thunk()
            effects.extend([result] if isinstance(result, Effect) else result)
        else:
            self._alloc_queue.append((need, thunk))
            self.metrics.inc("allocs_queued")
            self.metrics.observe_max("alloc_queue_depth", len(self._alloc_queue))
        return effects

    def _begin_load(self, st: _BlockState) -> list[Effect]:
        self.in_use += st.nbytes  # reserve; the buffer arrives via on_loaded
        st.status = _LOADING
        self._in_flight.add((st.desc.name, st.block))
        if self.segment_pool is not None and st.segment is None:
            # Pre-allocate the destination segment so the I/O filter can
            # read the file bytes straight into shared memory (no staging
            # buffer, no copy — the load IS the segment fill).
            st.segment = self.segment_pool.allocate(st.nbytes)
        return [Effect("load", st.desc.name, st.block,
                       segment=st.segment or "")]

    def _begin_fetch(self, st: _BlockState) -> list[Effect]:
        self.in_use += st.nbytes  # reserve
        st.status = _FETCHING
        self._in_flight.add((st.desc.name, st.block))
        return [Effect("fetch_remote", st.desc.name, st.block)]

    def _reclaim(self, want_bytes: int) -> list[Effect]:
        """Free at least ``want_bytes`` if possible: LRU over unpinned blocks."""
        effects: list[Effect] = []
        candidates = sorted(
            (
                st
                for st in self._blocks.values()
                if st.status == _RESIDENT and not st.pinned and st.sealed
            ),
            key=lambda s: s.lru,
        )
        freed = 0
        pending = 0  # bytes that will free once in-flight spills complete
        for st in candidates:
            if freed + pending >= want_bytes:
                break
            if st.on_disk or st.remote:
                # A persistent copy exists (local disk, or the owning peer
                # for cached remote blocks): dropping is safe.
                freed += st.nbytes
                self._free(st)
                st.status = _ABSENT
                self.metrics.inc("drops")
                effects.append(Effect("drop", st.desc.name, st.block))
            else:
                # Dirty (never persisted): must spill before the memory is
                # reusable; freeing happens in on_spilled.
                st.status = _SPILLING
                assert st.data is not None
                pending += st.nbytes
                effects.append(Effect("spill", st.desc.name, st.block, data=st.data))
        return effects

    def _pump_allocs(self) -> list[Effect]:
        """Admit queued allocations as memory frees up.

        FIFO order is preferred, but an entry that fits may overtake one
        that does not: with strict FIFO, a large blocked allocation at the
        head would starve a small one whose completion is the only way the
        large one's memory ever frees (tasks pin their inputs while waiting
        for output grants).

        Each round is a *single pass* over the queue with a skip threshold:
        once an entry of ``need`` bytes fails to fit even after a reclaim,
        every remaining entry at least as large is skipped for the rest of
        the pass — admissions only consume memory, so retrying them can
        only fail again.  (The previous implementation restarted the scan
        from the head after every admission and re-ran the LRU reclaim
        scan per entry per restart: O(n²) thunk scans with redundant spill
        walks on deep queues.)  A further round runs only if the previous
        one admitted something, which may have dropped enough clean blocks
        to unblock a previously skipped entry.
        """
        effects: list[Effect] = []
        progress = True
        while progress and self._alloc_queue:
            progress = False
            min_failed: int | None = None  # smallest need that failed
            still_blocked: deque[tuple[int, Any]] = deque()
            while self._alloc_queue:
                need, thunk = self._alloc_queue.popleft()
                if min_failed is not None and need >= min_failed:
                    still_blocked.append((need, thunk))
                    continue
                if self.in_use + need > self.budget:
                    effects.extend(
                        self._reclaim(self.in_use + need - self.budget))
                if self.in_use + need <= self.budget:
                    result = thunk()
                    if isinstance(result, Effect):
                        effects.append(result)
                    else:
                        effects.extend(result)
                    progress = True
                else:
                    min_failed = need
                    still_blocked.append((need, thunk))
            self._alloc_queue = still_blocked
        return effects

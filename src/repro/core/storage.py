"""The per-node storage layer: one block lifecycle, written as one table.

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

``_TABLE`` maps every (state, event) pair of a block to its outcome, or
to a refusal or an ignore (DESIGN.md §6 prints it); ``_apply`` alone
changes a block's status, the bytes ``in_use`` charges for it and the
transfers in flight.  Work waiting for memory is queued as data.

The class is *pure*: every public method returns a list of
:class:`Effect` records (``load``, ``spill``, ``drop``, ``fetch_remote``,
``grant_read``, ``grant_write``, ``deny``) that its driver — the storage
filter or a unit test — executes and answers via ``on_loaded`` /
``on_spilled`` / ``on_remote_data`` or their failure twins.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from typing import Any, Literal, NamedTuple

import numpy as np

from repro.core.array import ArrayDesc
from repro.core.errors import ImmutabilityError, StorageError, UnknownArrayError
from repro.core.interval import Interval, Permission
from repro.core.iofilter import block_buffer
from repro.obs.metrics import MetricsRegistry

__all__ = ["Effect", "Ticket", "LocalStore", "STATES", "EVENTS"]


@dataclass(frozen=True)
class Effect:
    """An action the driver must perform on behalf of the store.

    ``deny`` is the failure counterpart of ``grant_read`` and
    ``grant_write``: the ticket's backing I/O failed permanently, or no
    memory can ever be found for it, and the driver must route ``error``
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
_FETCHING = "fetching"
_RESIDENT = "resident"
_SPILLING = "spilling"
STATES = (_ABSENT, _LOADING, _FETCHING, _RESIDENT, _SPILLING)
#: a request, a driver's answer, a reclaim, a ticket handed back, the array going
EVENTS = ("read", "write", "prefetch", "loaded", "load_failed", "fetched",
          "fetch_failed", "spilled", "spill_failed", "evict", "release",
          "abandon", "forget")


class Cell(NamedTuple):
    """One event on a block in one state: the states it may move to ("a|b":
    a guard picks), its ``_apply`` case ("refuse" raises) and counters."""

    to: str
    do: str
    counter: str = ""


_REFUSE, _IGNORE = Cell("", "refuse"), Cell("", "ignore")
_STALE = Cell("", "ignore", "stale_blockdata")  # fetch replies may repeat
_WAIT = Cell("", "wait", "read_waits")
_GONE = Cell("absent", "forget")

#: The block lifecycle: (state, event) -> outcome, rows in ``STATES`` order.
_TABLE: dict[tuple[str, str], Cell] = {
    (state, event): cell for event, cells in dict(
        # An absent block's first waiter brings it in, once, for every waiter.
        read=(Cell("loading|fetching", "demand", "read_waits"), _WAIT, _WAIT,
              Cell("", "grant_read", "read_hits|read_waits"), _WAIT),
        # Write-once: a sealed block refuses (request_write checks first).
        write=(Cell("resident", "grant_write"), _REFUSE, _REFUSE, Cell("", "grant_write"), _REFUSE),
        # Free headroom only: a prefetch never evicts and never queues.
        prefetch=(Cell("loading|fetching", "warm", "prefetch_dropped"), _IGNORE, _IGNORE,
                  _IGNORE, Cell("", "ignore", "prefetch_dropped")),
        loaded=(_REFUSE, Cell("resident", "install", "loads|bytes_loaded"), _REFUSE,
                _REFUSE, _REFUSE),
        load_failed=(_REFUSE, Cell("absent", "unwind", "load_failures"), _REFUSE, _REFUSE, _REFUSE),
        fetched=(_STALE, _STALE, Cell("resident", "install", "remote_fetches"), _STALE, _STALE),
        fetch_failed=(_IGNORE, _IGNORE, Cell("absent", "unwind", "fetch_failures"),
                      _IGNORE, _IGNORE),
        spilled=(_REFUSE, _REFUSE, _REFUSE, _REFUSE,
                 Cell("resident|absent", "spilled", "spills|bytes_spilled")),
        spill_failed=(_REFUSE, _REFUSE, _REFUSE, _REFUSE,
                      Cell("resident", "keep", "spill_failures")),
        # LRU reclaim of an unpinned sealed block: drop it if it has a copy, else spill it.
        evict=(_REFUSE, _REFUSE, _REFUSE, Cell("absent|spilling", "evict", "drops"), _REFUSE),
        release=(_REFUSE, _REFUSE, _REFUSE, Cell("", "release"), _REFUSE),
        abandon=(_REFUSE, _REFUSE, _REFUSE, Cell("absent", "abandon", "writes_abandoned"), _REFUSE),
        forget=(Cell("", "forget"), _GONE, _GONE, _GONE, _GONE),
    ).items() for state, cell in zip(STATES, cells, strict=True)}


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

    @property
    def busy(self) -> bool:  # pinned or in transit: its array may not go now
        return self.pinned or self.status in (_LOADING, _SPILLING, _FETCHING)

    def covers(self, lo: int, hi: int) -> bool:
        """Is [lo, hi) fully inside the written ranges?"""
        return any(wlo <= lo and hi <= whi for wlo, whi in self.written)

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
        #: (block, "read" | "write", ticket) waiting for memory
        self._alloc_queue: deque[tuple[_BlockState, str, Ticket]] = deque()
        #: (array, block) -> error of a spill that failed: not evicted again
        self._spill_failed: dict[tuple[str, int], str] = {}
        self.metrics = MetricsRegistry(node)
        #: Optional :class:`repro.analysis.tickets.TicketAuditor`; when set
        #: (engine under ``DOOC_CHECKERS=1``) every grant/release/abandon is
        #: reported so leaks can be named at teardown.  ``None`` in
        #: production — the hooks cost a single attribute test.
        self.auditor: Any = None
        #: Optional :class:`repro.core.opcache.DecodedOperandCache` shared
        #: by this node's workers; when set, every buffer reclaim and array
        #: deletion invalidates the entries decoded from those bytes.
        #: ``None`` when the cache is disabled.
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
        self._seal_on_disk(desc)

    def register_remote(self, desc: ArrayDesc) -> None:
        """Declare an array homed on another node (fetchable, cache-droppable)."""
        self.create_array(desc)
        self._remote_arrays.add(desc.name)

    def delete_array(self, name: str) -> list[Effect]:
        """Forget an array; its resident blocks are freed, disk copy dropped.

        Deletion is atomic: every block is validated before any state is
        touched, so a pinned or in-flight block raises with residency,
        ``in_use`` and the block table unchanged (the failed delete is
        retried by the driver once the pin is released).
        """
        desc = self._desc(name)
        effects = self._forget_blocks(name, [
            st for b in desc.blocks()
            if (st := self._blocks.get((name, b))) is not None], "delete")
        self._unregister(name)
        return effects + self._pump_allocs()

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
            if name in keep and not any(st.busy for st in states):
                continue
            effects.extend(self._forget_blocks(name, states, "", force=True))
            self._unregister(name)
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
        st = self._block_of(interval)
        ticket = Ticket(next(self._tids), interval, Permission.READ)
        st.lru = next(self._clock)
        return ticket, self._apply(st, "read", ticket)

    def request_write(self, interval: Interval) -> tuple[Ticket, list[Effect]]:
        """Ask for write access to a never-written range."""
        if interval.array in self._remote_arrays:
            raise StorageError(
                f"node {self.node} cannot write remote-homed array {interval.array!r}"
            )
        st = self._block_of(interval)
        if st.sealed or st.on_disk:
            raise ImmutabilityError(
                f"block {interval.block} of {interval.array!r} is sealed"
            )
        taken = st.written + [(t.interval.lo, t.interval.hi) for t in
                              self._write_tickets.get((interval.array, interval.block), [])]
        if any(interval.lo < hi and lo < interval.hi for lo, hi in taken):
            raise ImmutabilityError(
                f"range [{interval.lo}, {interval.hi}) of {interval.array!r} "
                "overlaps a range already written or being written")
        ticket = Ticket(next(self._tids), interval, Permission.WRITE)
        return ticket, self._apply(st, "write", ticket)

    def release(self, ticket: Ticket) -> list[Effect]:
        """Return an interval. Write releases publish the data."""
        return self._apply(self._handed_back(ticket, "released"), "release", ticket)

    def abandon_pending_allocs(self) -> None:
        """Drop queued allocations at shutdown: the driver guarantees all
        task work completed first, so no queued grant is still wanted."""
        self._alloc_queue.clear()

    def prefetch(self, interval: Interval) -> list[Effect]:
        """Warm a block without pinning it (no grant is produced)."""
        return self._apply(self._block_of(interval), "prefetch")

    # -- completions ------------------------------------------------------------------

    def on_loaded(self, array: str, block: int, data: np.ndarray) -> list[Effect]:
        """Driver finished a ``load`` effect."""
        return self._apply(self._state(array, block), "loaded", data=data)

    def on_remote_data(self, array: str, block: int, data: np.ndarray) -> list[Effect]:
        """Driver finished a ``fetch_remote`` effect; a duplicate delivery
        (fetches are retransmitted when the reply is slow) is ignored."""
        return self._apply(self._state(array, block), "fetched", data=data)

    def on_spilled(self, array: str, block: int) -> list[Effect]:
        """Driver finished a ``spill`` effect: the block is now on disk."""
        return self._apply(self._state(array, block), "spilled")

    def on_load_failed(self, array: str, block: int, error: str) -> list[Effect]:
        """Driver's ``load`` effect failed permanently (retries exhausted):
        its waiters are denied, so they fail fast instead of stalling."""
        return self._apply(self._state(array, block), "load_failed", error=error)

    def on_fetch_failed(self, array: str, block: int, error: str) -> list[Effect]:
        """Driver's ``fetch_remote`` effect failed permanently; a duplicate
        notice (the fetch path may retransmit) is ignored."""
        return self._apply(self._state(array, block), "fetch_failed", error=error)

    def on_spill_failed(self, array: str, block: int, error: str) -> list[Effect]:
        """Driver's ``spill`` effect failed permanently (the I/O filter
        retried it): the block stays resident, nothing is lost, and it is
        no longer evicted, so the spill is not issued again.  What waited
        for its bytes gets another reclaim or, when such blocks leave too
        little of the budget, is denied with ``error`` and its task
        retried: a dead scratch disk costs capacity, then the run, never a
        hang."""
        return self._apply(self._state(array, block), "spill_failed", error=error)

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
        return self._apply(self._handed_back(ticket, "abandoned"), "abandon", ticket)

    # -- rehoming (graceful degradation) -----------------------------------------------

    def _purge_blocks(self, name: str) -> list[Effect]:
        """Forget all block state of ``name`` (must be unpublished/unpinned)."""
        return self._forget_blocks(
            name, [st for key, st in self._blocks.items() if key[0] == name],
            "rehome")

    def rehome_local(self, desc: ArrayDesc, *, on_disk: bool = False) -> list[Effect]:
        """This node becomes the home of a (never-written) rerouted array.

        With ``on_disk=True`` the array's bytes already sit in this node's
        scratch directory (node-loss recovery re-seeded an initial array
        from the shared filesystem), so every block is marked sealed and
        loadable rather than awaiting a producer.  A busy block refuses the
        rehome with nothing changed.
        """
        effects = self._purge_blocks(desc.name)
        if desc.name not in self.arrays:
            self.arrays[desc.name] = desc
        self._remote_arrays.discard(desc.name)
        if on_disk:
            self._seal_on_disk(desc)
        return effects + self._pump_allocs()

    def rehome_remote(self, name: str) -> list[Effect]:
        """A rerouted array's home moved elsewhere; keep a remote handle."""
        if name not in self.arrays:
            return []
        effects = self._purge_blocks(name)
        self._remote_arrays.add(name)
        return effects + self._pump_allocs()

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
        if desc.name in self._remote_arrays or desc.name not in self.arrays:
            self.ensure_remote(desc)
            return []
        return self.rehome_remote(desc.name)

    # -- introspection ---------------------------------------------------------------

    def availability_map(self) -> dict[tuple[str, int], bool]:
        """(array, block) -> is resident and readable right now, for every
        block this store has state for (a test and debugging view; the
        scheduler's question is :meth:`resident_among`)."""
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

        Called from the engine's wait (the watchdog's check) while the
        owning filter may be mutating the store, so it only reads (shallow
        copies first) and the caller tolerates exceptions from torn
        iterations.
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
        alloc_queue = [{"bytes": st.nbytes} for st, _, _ in list(self._alloc_queue)]
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

    # -- the transition function --------------------------------------------------------

    def _apply(self, st: _BlockState, event: str, ticket: Ticket | None = None, *,
               data: np.ndarray | None = None, error: str = "",
               admitted: bool = False, force: bool = False) -> list[Effect]:
        """Carry out ``event`` on ``st`` as its cell of ``_TABLE`` says.

        ``move`` changes status, ``in_use`` and the transfers in flight, to
        a state the cell lists only.  A cell needing memory moves when it is
        applied again ``admitted`` (:meth:`_admit`).  ``force``: between
        runs, a busy block is unwound, and a drop is noted only for data.
        """
        cell = _TABLE[st.status, event]
        key = (st.desc.name, st.block)

        def move(to: str) -> None:
            assert to in cell.to.split("|"), (st.status, event, to)
            frm = st.status
            if frm in (_LOADING, _FETCHING):
                self._in_flight.discard(key)
                if to == _ABSENT:  # unwound: the reservation goes back
                    self.in_use -= st.nbytes
                    if st.segment is not None:
                        # The segment pre-allocated for the load holds
                        # nothing readable: return it before anyone leases it.
                        self.segment_pool.free(st.segment)
                        st.segment = None
            elif to == _ABSENT:  # resident or spilling: the buffer goes
                self.in_use -= st.nbytes
                self._spill_failed.pop(key, None)
                self._release_buffer(st)
            elif to in (_LOADING, _FETCHING):  # reserved; bytes come later
                self.in_use += st.nbytes
                self._in_flight.add(key)
            elif frm == _ABSENT:  # a write grant's buffer
                self.in_use += st.nbytes
                self._new_buffer(st)
            st.status = to

        def count(name: str, n: int = 1, label: str | None = None) -> None:
            assert name in cell.counter.split("|"), (st.status, event, name)
            self.metrics.inc(name, n, label=label)

        def transfer() -> list[Effect]:
            if st.on_disk:
                move(_LOADING)
                if self.segment_pool is not None and st.segment is None:
                    # Pre-allocate the destination segment so the I/O filter
                    # can read the file bytes straight into shared memory
                    # (no staging buffer, no copy — the load IS the fill).
                    st.segment = self.segment_pool.allocate(st.nbytes)
                return [Effect("load", *key, segment=st.segment or "")]
            move(_FETCHING)
            return [Effect("fetch_remote", *key)]

        match cell.do:
            case "refuse":
                raise StorageError(f"unexpected {event} of {key} ({st.status}) on node {self.node}")
            case "ignore":
                if cell.counter:
                    count(cell.counter)
                return []
            case "demand" | "wait" | "grant_read":
                if admitted:  # a queued demand's turn, unless a prefetch
                    # brought the block in meanwhile or its waiters were denied
                    return transfer() if cell.do == "demand" and st.read_waiters else []
                if cell.do == "grant_read" and st.covers(ticket.interval.lo,
                                                         ticket.interval.hi):
                    count("read_hits")
                    return [self._grant_read(st, ticket)]
                count("read_waits")
                first = not st.read_waiters
                st.read_waiters.append(ticket)
                if cell.do == "demand" and first and (
                        st.on_disk or key[0] in self._remote_arrays):
                    return self._admit(st, event, ticket)
                # A later waiter rides on the first one's allocation (a
                # second one loaded the block twice — double the reservation
                # and a completion nobody expected); a local block never
                # written waits for its writer (read-before-write), and the
                # grant of a block in transit follows its transfer.
                return []
            case "grant_write":
                if not admitted:
                    st.writers += 1
                    self._write_tickets.setdefault(key, []).append(ticket)
                    return self._admit(st, event, ticket)
                if st.status == _ABSENT:
                    move(_RESIDENT)
                ticket.data = st.data[ticket.interval.local_slice(st.desc)]
                ticket.handle = self._make_handle(st, ticket)
                ticket.granted = True
                if self.auditor is not None:
                    self.auditor.note_granted(self.node, ticket)
                return [Effect("grant_write", *key, ticket=ticket)]
            case "warm":
                if not (st.on_disk or key[0] in self._remote_arrays):
                    return []  # not yet written anywhere: nothing to warm
                if self.in_use + st.nbytes > self.budget:
                    # Prefetch fills "the amount of memory available"
                    # (Section III-C): an evicting prefetch pushes out the
                    # still-hot block whose successor is about to become
                    # ready, and a queued one can deadlock a small demand
                    # behind a block the demanding task itself pins.
                    count("prefetch_dropped")
                    return []
                return transfer()
            case "install":
                self._attach(st, data)
                move(_RESIDENT)
                st.sealed = True
                st.written = [st.desc.block_bounds(st.block)]
                if event == "fetched":
                    st.remote = True
                    count("remote_fetches")
                else:
                    count("loads", label=key[0])
                    count("bytes_loaded", st.nbytes)
                # The block just became evictable (if unpinned): queued
                # allocations may now be satisfiable by reclaiming it.
                return self._wake_readers(st) + self._pump_allocs()
            case "unwind":
                move(_ABSENT)
                count(cell.counter)
                return self._fail_waiters(st, error) + self._pump_allocs()
            case "spilled":
                st.on_disk = True
                count("spills")
                count("bytes_spilled", st.nbytes)
                if st.pinned:
                    # Someone requested it again while it was being written
                    # out; keep the resident copy.
                    move(_RESIDENT)
                    return self._wake_readers(st)
                move(_ABSENT)
                return [Effect("drop", *key)] + self._pump_allocs()
            case "keep":
                move(_RESIDENT)
                count("spill_failures")
                self._spill_failed[key] = error
                return self._wake_readers(st) + self._pump_allocs()
            case "evict":
                if st.on_disk or st.remote:
                    # A persistent copy exists (local disk, or the owning
                    # peer for cached remote blocks): dropping is safe.
                    move(_ABSENT)
                    count("drops")
                    return [Effect("drop", *key)]
                # Dirty (never persisted): must spill before the memory is
                # reusable; freeing happens when the spill lands.
                move(_SPILLING)
                return [Effect("spill", *key, data=st.data)]
            case "release":
                st.lru = next(self._clock)
                if ticket.permission is Permission.READ:
                    if st.readers <= 0:
                        raise StorageError("reader refcount underflow")
                    st.readers -= 1
                    return self._pump_allocs()
                self._drop_write_ticket(st, ticket)
                st.add_written(ticket.interval.lo, ticket.interval.hi)
                if st.sealed:
                    # Fully written + released: write-once makes the buffer
                    # immutable from here on — freeze it so zero-copy read
                    # views (and peer serves of them) are provably safe.
                    st.data.flags.writeable = False
                return self._wake_readers(st) + self._pump_allocs()
            case "abandon":
                self._drop_write_ticket(st, ticket)
                count("writes_abandoned")
                if not st.pinned and not st.written:
                    # No released range and no other user: the buffer holds
                    # only the failed task's partial output — discard it.
                    move(_ABSENT)
                return self._pump_allocs()
            case "forget":
                held = st.data is not None
                if st.status != _ABSENT:
                    move(_ABSENT)
                del self._blocks[key]
                return [Effect("drop", *key)] if held or not force else []
        raise AssertionError(f"no case for {cell.do!r}")  # pragma: no cover

    # -- what the cases share ---------------------------------------------------------

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

    def _block_of(self, interval: Interval) -> _BlockState:
        interval.validate_against(self._desc(interval.array))
        return self._state(interval.array, interval.block)

    def _handed_back(self, ticket: Ticket, verb: str) -> _BlockState:
        """Mark a granted ticket ``verb`` ("released" or "abandoned")."""
        if ticket.released:
            raise StorageError(f"ticket {ticket.tid} released twice")
        if not ticket.granted:
            raise StorageError(f"ticket {ticket.tid} {verb} before being granted")
        ticket.released = True
        if self.auditor is not None:
            getattr(self.auditor, f"note_{verb}")(self.node, ticket)
        return self._state(ticket.interval.array, ticket.interval.block)

    def _seal_on_disk(self, desc: ArrayDesc) -> None:
        """Every block of ``desc`` is written and its bytes are in scratch."""
        for b in desc.blocks():
            st = self._state(desc.name, b)
            st.on_disk = True
            st.sealed = True
            st.written = [desc.block_bounds(b)]

    def _forget_blocks(self, name: str, states: list[_BlockState], verb: str, *,
                       force: bool = False) -> list[Effect]:
        """Forget ``states`` of array ``name``, all or (when one is busy and
        not ``force``) none; the array's registration is the caller's."""
        if not force:
            for st in states:
                if st.busy:
                    raise StorageError(
                        f"cannot {verb} {name!r}: block {st.block} is in use "
                        f"on node {self.node}")
        return [e for st in states for e in self._apply(st, "forget", force=force)]

    def _unregister(self, name: str) -> None:
        del self.arrays[name]
        self._remote_arrays.discard(name)
        if self.opcache is not None:
            self.opcache.invalidate(name)

    def _drop_write_ticket(self, st: _BlockState, ticket: Ticket) -> None:
        """A write ticket is done (released, abandoned or denied): unpin
        the block and unlist the ticket."""
        st.writers -= 1
        key = (st.desc.name, st.block)
        outstanding = self._write_tickets[key]
        outstanding.remove(ticket)
        if not outstanding:
            # Drop the emptied entry: without this the dict gained one
            # dead key per written block for the life of the store.
            del self._write_tickets[key]

    def _fail_waiters(self, st: _BlockState, error: str) -> list[Effect]:
        """Deny every blocked read waiter of ``st`` (fail fast, no stall)."""
        effects = [
            Effect("deny", st.desc.name, st.block, ticket=t, error=error)
            for t in st.read_waiters
        ]
        st.read_waiters = []
        return effects

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

    # -- buffers ------------------------------------------------------------------------

    def _new_buffer(self, st: _BlockState) -> None:
        if self.segment_pool is not None:
            # Segment-backed write buffer: fresh shm pages arrive zeroed,
            # as the thread plane's block_buffer does.
            st.segment = self.segment_pool.allocate(st.nbytes)
            st.data = self.segment_pool.ndarray(
                st.segment, st.desc.block_length(st.block), st.desc.dtype)
        else:
            st.data = block_buffer(st.desc.block_length(st.block),
                                   st.desc.dtype)

    def _attach(self, st: _BlockState, data: np.ndarray) -> None:
        # Memory was reserved when the transfer started; only attach data.
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
            # pre-allocated when they started; remote fetches arrive as wire
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

    def _release_buffer(self, st: _BlockState) -> None:
        assert st.data is not None
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

    # -- memory: admission, reclaim, the allocation queue -------------------------------

    def _admit(self, st: _BlockState, event: str, ticket: Ticket) -> list[Effect]:
        """A demand's first try for memory (a prefetch never queues): applied
        now if it fits after a reclaim, denied if nothing left can ever make
        room, queued otherwise."""
        if denial := self._never_fits(st.nbytes):
            return self._deny(st, event, ticket, denial)
        fits, effects = self._fit(st, event, ticket)
        if not fits:
            self._alloc_queue.append((st, event, ticket))
            self.metrics.inc("allocs_queued")
            self.metrics.observe_max("alloc_queue_depth", len(self._alloc_queue))
        return effects

    def _fit(self, st: _BlockState, event: str,
             ticket: Ticket) -> tuple[bool, list[Effect]]:
        """Reclaim what the block lacks, then apply ``event`` if it fits: the
        one reclaim-then-admit step of a first try and of every pump."""
        effects: list[Effect] = []
        if self.in_use + st.nbytes > self.budget:
            effects = self._reclaim(self.in_use + st.nbytes - self.budget)
        if self.in_use + st.nbytes > self.budget:
            return False, effects
        return True, effects + self._apply(st, event, ticket, admitted=True)

    def _never_fits(self, need: int) -> str:
        """Why ``need`` bytes can never be found, or "": the budget less the
        dirty blocks whose spill failed for good (they leave memory only
        with their array) is too small."""
        stuck = [(self._blocks[key].nbytes, error)
                 for key, error in self._spill_failed.items()
                 if not self._blocks[key].on_disk]
        held = sum(nbytes for nbytes, _ in stuck)
        if not stuck or need <= self.budget - held:
            return ""
        return (f"no room for {need} B: {held} B of the {self.budget} B budget "
                f"are held by blocks whose spill failed ({stuck[-1][1]})")

    def _deny(self, st: _BlockState, event: str, ticket: Ticket,
              error: str) -> list[Effect]:
        """Refuse an allocation that can never be made."""
        if event == "read":
            return self._fail_waiters(st, error)
        self._drop_write_ticket(st, ticket)
        return [Effect("deny", st.desc.name, st.block, ticket=ticket, error=error)]

    def _reclaim(self, want_bytes: int) -> list[Effect]:
        """Free at least ``want_bytes`` if possible: LRU over unpinned blocks."""
        candidates = sorted(
            (
                st
                for key, st in self._blocks.items()
                if st.status == _RESIDENT and not st.pinned and st.sealed
                and (st.on_disk or st.remote or key not in self._spill_failed)
            ),
            key=lambda s: s.lru,
        )
        effects: list[Effect] = []
        freed = 0  # bytes freed now, or once the spills started here land
        for st in candidates:
            if freed >= want_bytes:
                break
            freed += st.nbytes
            effects.extend(self._apply(st, "evict"))
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
        only fail again.  (Restarting the scan from the head after every
        admission re-ran the LRU reclaim per entry per restart: O(n²) scans
        with redundant spill walks on deep queues.)  A further round runs
        only if the previous one admitted something, which may have dropped
        enough clean blocks to unblock a previously skipped entry.  An
        entry that can never fit is denied, not kept.
        """
        effects: list[Effect] = []
        progress = True
        while progress and self._alloc_queue:
            progress = False
            min_failed: int | None = None  # smallest need that failed
            still_blocked: deque[tuple[_BlockState, str, Ticket]] = deque()
            while self._alloc_queue:
                entry = self._alloc_queue.popleft()
                need = entry[0].nbytes
                if denial := self._never_fits(need):
                    effects.extend(self._deny(*entry, denial))
                    continue
                if min_failed is not None and need >= min_failed:
                    still_blocked.append(entry)
                    continue
                fits, more = self._fit(*entry)
                effects.extend(more)
                if fits:
                    progress = True
                else:
                    min_failed = need
                    still_blocked.append(entry)
            self._alloc_queue = still_blocked
        return effects

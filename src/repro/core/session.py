"""What an engine carries from one ``run()`` to the next.

A solver drives one engine through many runs that all read the same
sub-matrix files.  The paper's reuse argument (Fig. 5b: keep what is
already in memory at the iteration boundary) only holds across those runs
if the per-node stores survive them, so the engine keeps its
:class:`~repro.core.storage.LocalStore` objects — block table, LRU clock,
decoded-operand cache — in an :class:`EngineSession` and, before each run,
purges from them everything except the arrays the new program reads from
the *same, unchanged* scratch files.

The session is open only between a run that returned its report and the
start of the next one (``take``); a run that raised never re-opens it,
so the run after it builds fresh stores.

The filter graph lives exactly as long as the session: while it is open
the engine keeps the graph parked, and starts the next run by rebinding
each filter to a :class:`RunState` (``Filter.begin``) and posting one
message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.array import ArrayDesc
from repro.core.errors import StorageError
from repro.core.opcache import DecodedOperandCache
from repro.core.storage import LocalStore
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cancel import CancelToken
    from repro.core.dag import TaskDAG
    from repro.core.directory import DirectoryClient
    from repro.core.global_scheduler import _RecoveryContext
    from repro.core.procplane import ProcessWorkerPool
    from repro.core.shm import SegmentPool
    from repro.faults import FaultInjector

__all__ = ["FileBacking", "EngineSession", "RunState"]


@dataclass
class RunState:
    """What one run binds the engine's filters to.

    The graph outlives its runs; each filter reads its per-run state from
    here in ``begin(run)`` (a node's filters take their node's entry of
    the per-node maps).  It holds nothing of the engine itself, so a
    parked graph never keeps an unreferenced engine alive.
    """

    #: numbers the run; peer messages carry it, so one left over from
    #: the run before is recognised and dropped
    seq: int = 0
    dag: TaskDAG | None = None
    assignment: dict[str, int] = field(default_factory=dict)
    #: array -> home node, shared with the engine (reroutes move homes)
    homes: dict[str, int] = field(default_factory=dict)
    descs: dict[str, ArrayDesc] = field(default_factory=dict)
    nbytes: dict[str, int] = field(default_factory=dict)
    stores: dict[int, LocalStore] = field(default_factory=dict)
    directories: dict[int, DirectoryClient] = field(default_factory=dict)
    #: node -> fault injector (absent or None: no faults there)
    injectors: dict[int, FaultInjector | None] = field(default_factory=dict)
    recovery: _RecoveryContext | None = None
    cancel: CancelToken | None = None
    segment_pool: SegmentPool | None = None
    plane: ProcessWorkerPool | None = None


@dataclass(frozen=True)
class FileBacking:
    """Where a from-scratch array's bytes come from.  Two equal values
    mean a store holding its blocks holds the right bytes."""

    desc: ArrayDesc
    home: int
    #: :func:`repro.core.iofilter.backing_identity` of its files
    identity: tuple


class EngineSession:
    """The per-node stores, and which of their arrays may outlive a run."""

    def __init__(self) -> None:
        self.stores: dict[int, LocalStore] = {}
        #: from-scratch arrays of the last completed run; ``None`` = closed
        self._backing: dict[str, FileBacking] | None = None

    def close(self) -> None:
        """The next run starts cold (the stores stay readable until then,
        their free lists unmapped)."""
        self._backing = None
        for store in self.stores.values():
            store.close()

    def take(self) -> dict[str, FileBacking] | None:
        """Close the session, returning what the last completed run
        committed (``None``: it was closed already)."""
        carried, self._backing = self._backing, None
        return carried

    def commit(self, backing: dict[str, FileBacking]) -> None:
        """The run over these stores returned its report: they may be reused."""
        self._backing = dict(backing)

    def adopt(self, name: str, backing: FileBacking) -> None:
        """Between runs, the engine wrote resident array ``name`` out as
        ``backing``: a program may now declare it from scratch and keep it."""
        if self._backing is not None:
            self._backing[name] = backing

    def open_stores(self, carried: dict[str, FileBacking] | None,
                    backing: dict[str, FileBacking], *, n_nodes: int,
                    memory_budget: int, opcache_bytes: int, segment_pool=None,
                    tracer: Tracer) -> dict[int, LocalStore]:
        """The stores for a run whose from-scratch arrays are ``backing``.

        ``carried`` is what :meth:`take` returned when the run began.
        Each store comes back holding only the arrays that are declared
        again with an equal :class:`FileBacking`; counters start from zero.
        """
        if carried is None:
            carried = {}
            for store in self.stores.values():
                store.close()
            self.stores = {
                node: LocalStore(node, memory_budget, segment_pool=segment_pool)
                for node in range(n_nodes)}
            if opcache_bytes > 0:
                for store in self.stores.values():
                    store.opcache = DecodedOperandCache(opcache_bytes)
        for node, store in self.stores.items():
            effects = store.retain({
                name for name, b in backing.items()
                if b.home == node and carried.get(name) == b})
            for e in effects:
                if e.kind != "drop":  # nothing can run I/O between runs
                    raise StorageError(
                        f"{e.kind} effect for {e.array!r} between runs")
                tracer.instant(node, "storage", "storage", "drop",
                               array=e.array, block=e.block)
            store.metrics = MetricsRegistry(node)
            if store.opcache is not None:
                store.opcache.metrics = store.metrics
        return self.stores

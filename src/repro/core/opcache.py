"""The decoded-operand cache.

The block data plane moves *untyped bytes*; typed operands (e.g. the
binary-CRS sub-matrices of the SpMV programs) are decoded from those
bytes inside task bodies.  Without a cache, a sub-matrix that stays
memory-resident across K x iters multiply tasks is re-decoded K x iters
times — pure overhead the paper's overlap argument never accounts for.

:class:`DecodedOperandCache` memoizes decoded operands per node, keyed on
``(array, seal-generation)``: the generation is a per-block counter the
storage layer bumps whenever a block's buffer is reclaimed (spill-drop,
evict, delete, rehome), so a cache entry can never outlive the bytes it
was decoded from.  The cache is bounded (LRU by the bytes an entry
keeps alive: its granted block's, since a decoded SpMV sub-matrix is
views of that block with no arrays of its own) and thread-safe —
worker filters of one node share it.  It lives as long as
the node's store, across engine runs (:mod:`repro.core.session`): a
block retained from one run to the next keeps its generation, hence its
entry; ``metrics`` is re-bound to each run's registry between runs.

Task bodies opt in through :func:`cached_decode`; the worker filter
injects an :class:`OperandContext` (cache handle + the generations of the
granted read tickets) into the task's ``meta`` under
:data:`OPERAND_CONTEXT_KEY`.  Code paths that call task functions
directly (references, the DES testbed) simply decode — no context, no
cache, same bytes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "OPERAND_CONTEXT_KEY",
    "DecodedOperandCache",
    "OperandContext",
    "cached_decode",
]

#: reserved ``meta`` key under which workers pass the OperandContext
OPERAND_CONTEXT_KEY = "__operands__"


class DecodedOperandCache:
    """Bounded, thread-safe LRU cache of decoded block operands.

    Keys are ``(array, generations)`` where ``generations`` is the tuple
    of per-block seal generations of the read grants the operand was
    decoded from; a reclaim bumps the generation, so stale entries simply
    stop being found (and are proactively removed by
    :meth:`invalidate`, which the storage layer calls on every buffer
    free so decoded views never pin reclaimed memory).
    """

    def __init__(self, budget_bytes: int, metrics: Any = None):
        if budget_bytes < 0:
            raise ValueError("cache budget must be non-negative")
        self.budget = int(budget_bytes)
        self.metrics = metrics
        self._lock = threading.Lock()
        # (array, generations) -> (value, nbytes); insertion order = LRU
        self._entries: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
        self.in_use = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _inc(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, n)

    # -- lookup / insert ----------------------------------------------------

    def get(self, array: str, generations: tuple[int, ...]) -> Any | None:
        """The cached decoded operand, or None (counts a hit/miss)."""
        key = (array, tuple(generations))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._inc("opcache_misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._inc("opcache_hits")
            return entry[0]

    def put(self, array: str, generations: tuple[int, ...],
            value: Any, nbytes: int) -> bool:
        """Insert a decoded operand; returns False if it cannot fit."""
        nbytes = int(nbytes)
        if nbytes > self.budget:
            self._inc("opcache_rejected")
            return False
        key = (array, tuple(generations))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.in_use -= old[1]
            while self._entries and self.in_use + nbytes > self.budget:
                _, (_, freed) = self._entries.popitem(last=False)
                self.in_use -= freed
                self.evictions += 1
                self._inc("opcache_evictions")
            self._entries[key] = (value, nbytes)
            self.in_use += nbytes
            if self.metrics is not None:
                self.metrics.observe_max("opcache_bytes", self.in_use)
        return True

    # -- invalidation -------------------------------------------------------

    def invalidate(self, array: str, block: int | None = None) -> int:
        """Drop every entry decoded from ``array`` (any generation).

        Called by the storage layer whenever one of the array's block
        buffers is reclaimed; entries are per-array (an operand may span
        blocks), so the whole array's entries go.  Returns the count.
        """
        del block  # reclaims are per-block, entries per-array: drop all
        with self._lock:
            stale = [k for k in self._entries if k[0] == array]
            for key in stale:
                _, nbytes = self._entries.pop(key)
                self.in_use -= nbytes
            self.invalidations += len(stale)
            if stale:
                self._inc("opcache_invalidations", len(stale))
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.in_use = 0

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class OperandContext:
    """What a task body needs to use the node's operand cache.

    ``generations`` maps each input array to the tuple of seal
    generations of the read tickets backing it (one per block, in block
    order) — the freshness proof for cache keys.
    """

    cache: DecodedOperandCache | None
    generations: dict[str, tuple[int, ...]]

    def key_for(self, array: str) -> tuple[int, ...] | None:
        return self.generations.get(array)


def cached_decode(meta: dict, array: str, raw: Any,
                  decode: Callable[[Any], Any]) -> Any:
    """Decode ``raw`` (the granted view of ``array``) through the cache.

    Falls back to a plain ``decode(raw)`` when no operand context was
    injected (direct calls, cache disabled) or the array's generations
    are unknown.  An entry is charged the bytes of ``raw``: a decode
    that keeps views of the granted block (the SpMV sub-matrix) pins all
    of it for as long as the entry lives.
    """
    ctx = meta.get(OPERAND_CONTEXT_KEY)
    if not isinstance(ctx, OperandContext) or ctx.cache is None:
        return decode(raw)
    gens = ctx.key_for(array)
    if gens is None:
        return decode(raw)
    value = ctx.cache.get(array, gens)
    if value is not None:
        return value
    value = decode(raw)
    ctx.cache.put(array, gens, value,
                  int(getattr(raw, "nbytes", 0)) or len(raw))
    return value

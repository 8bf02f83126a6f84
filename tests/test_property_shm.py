"""Stateful property-based testing of the shared-memory segment pool.

A hypothesis rule machine drives a real :class:`SegmentPool` (real
``/dev/shm`` segments) through random interleavings of small and large
allocations, frees, leases, releases and a final close, against a model
that knows only what was asked for.  The invariants are the ones sharing
segments between blocks must not break:

* no two live blocks overlap;
* a span that was handed out is never handed out again, freed or not —
  which is what makes a fresh block zero and a view built before ``free``
  stay valid, both checked on the bytes themselves;
* a segment is linked in ``/dev/shm`` iff it is open for carving, holds a
  live block, or is leased;
* ``close()`` leaves no segment and no lease.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.errors import StorageError
from repro.core.shm import (
    SEGMENT_PREFIX,
    SLAB_BYTES,
    SMALL_BLOCK_BYTES,
    SegmentPool,
    dev_shm_segments,
)

_machines = itertools.count()
MARK = 0xA5

small_sizes = st.one_of(
    st.integers(1, 4096),
    # near a quarter slab: four or five of these roll the pool over
    st.integers(SMALL_BLOCK_BYTES - 4096, SMALL_BLOCK_BYTES - 1))
large_sizes = st.integers(SMALL_BLOCK_BYTES, 2 * SMALL_BLOCK_BYTES)


class PoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        tag = f"prop{next(_machines)}"
        self.prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-{tag}"
        self.pool = SegmentPool(tag=tag)
        self.closed = False
        #: key -> (segment, offset, nbytes) of the live blocks
        self.live: dict[str, tuple[str, int, int]] = {}
        #: segment -> every span ever handed out of it
        self.spans: dict[str, list[tuple[int, int]]] = {}
        #: views of freed blocks, kept to see that nothing writes over them
        self.ghosts: list[np.ndarray] = []
        self.leases: dict[str, int] = {}
        self.open_slab: str | None = None

    def teardown(self):
        self.ghosts.clear()
        self.pool.close()

    # -- rules ---------------------------------------------------------------

    def _allocated(self, key: str, nbytes: int) -> str:
        segment, offset = self.pool.locate(key)
        assert key not in self.live
        for lo, hi in self.spans.setdefault(segment, []):
            assert offset + nbytes <= lo or hi <= offset, (
                f"[{offset}, {offset + nbytes}) of {segment} was handed "
                f"out before as [{lo}, {hi})")
        self.spans[segment].append((offset, offset + nbytes))
        self.live[key] = (segment, offset, nbytes)
        view = self.pool.ndarray(key, nbytes, "uint8")
        assert not view.any()  # never handed out before: still zero
        view[:] = MARK
        return segment

    @precondition(lambda self: not self.closed)
    @rule(nbytes=small_sizes)
    def allocate_small(self, nbytes):
        key = self.pool.allocate(nbytes)
        segment = self._allocated(key, nbytes)
        assert key != segment  # a block key is not a segment name
        assert self.live[key][1] + nbytes <= SLAB_BYTES
        self.open_slab = segment  # a new slab closes the one before

    @precondition(lambda self: not self.closed)
    @rule(nbytes=large_sizes)
    def allocate_large(self, nbytes):
        key = self.pool.allocate(nbytes)
        assert self._allocated(key, nbytes) == key
        assert self.live[key][1] == 0

    @precondition(lambda self: not self.closed and self.live)
    @rule(data=st.data())
    def free(self, data):
        key = data.draw(st.sampled_from(sorted(self.live)))
        _, _, nbytes = self.live.pop(key)
        self.ghosts.append(self.pool.ndarray(key, nbytes, "uint8",
                                             readonly=True))
        self.pool.free(key)
        with pytest.raises(StorageError, match="not in pool"):
            self.pool.free(key)

    @precondition(lambda self: not self.closed and self._linked())
    @rule(data=st.data())
    def lease(self, data):
        segment = data.draw(st.sampled_from(self._linked()))
        self.pool.lease(segment)
        self.leases[segment] = self.leases.get(segment, 0) + 1

    @precondition(lambda self: not self.closed and self.leases)
    @rule(data=st.data())
    def release(self, data):
        segment = data.draw(st.sampled_from(sorted(self.leases)))
        self.pool.release(segment)
        self.leases[segment] -= 1
        if not self.leases[segment]:
            del self.leases[segment]

    @precondition(lambda self: not self.closed and self._linked())
    @rule(data=st.data())
    def release_without_a_lease_is_refused(self, data):
        unleased = [s for s in self._linked() if s not in self.leases]
        if unleased:
            with pytest.raises(StorageError, match="underflow"):
                self.pool.release(data.draw(st.sampled_from(unleased)))

    @rule()
    def close(self):
        self.pool.close()  # (again, perhaps: the one rule a closed pool has)
        self.closed = True
        self.live.clear()
        self.leases.clear()
        self.open_slab = None
        assert dev_shm_segments(self.prefix) == []
        assert self.pool.lease_counts() == {}
        with pytest.raises(StorageError, match="closed"):
            self.pool.allocate(8)

    # -- invariants ----------------------------------------------------------

    def _linked(self) -> list[str]:
        return dev_shm_segments(self.prefix)

    @invariant()
    def live_blocks_do_not_overlap(self):
        by_segment: dict[str, list[tuple[int, int]]] = {}
        for segment, offset, nbytes in self.live.values():
            by_segment.setdefault(segment, []).append(
                (offset, offset + nbytes))
        for spans in by_segment.values():
            spans.sort()
            for (_, hi), (lo, _) in zip(spans, spans[1:]):
                assert hi <= lo

    @invariant()
    def linked_iff_open_or_live_or_leased(self):
        needed = {seg for seg, _, _ in self.live.values()} | set(self.leases)
        if self.open_slab is not None:
            needed.add(self.open_slab)
        assert set(self._linked()) == needed
        assert self.pool.live_segments() == sorted(needed)
        assert self.pool.lease_counts() == self.leases

    @invariant()
    def bytes_stay_where_they_were_put(self):
        # (every 509th byte and the last: blocks run to half a mebibyte)
        for key, (_, _, nbytes) in self.live.items():
            view = self.pool.ndarray(key, nbytes, "uint8")
            assert (view[::509] == MARK).all() and view[-1] == MARK
        for ghost in self.ghosts:  # a view built before free() stays valid
            assert (ghost[::509] == MARK).all() and ghost[-1] == MARK

    @invariant()
    def accounting_matches(self):
        assert self.pool.live_bytes == sum(n for _, _, n in self.live.values())
        # What was handed out of the segments still linked, padding and all.
        carved = sum(-(-max(hi for _, hi in self.spans[seg]) // 64) * 64
                     for seg in self._linked())
        assert self.pool.carved_bytes == carved
        assert self.pool.slack_peak_bytes >= carved - self.pool.live_bytes >= 0


TestSegmentPoolStateMachine = PoolMachine.TestCase
TestSegmentPoolStateMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)

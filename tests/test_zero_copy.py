"""Zero-copy data-plane invariants: frozen views, generations, planes.

The zero-copy plane is only sound because of a chain of invariants —
sealed buffers are frozen, read grants hand out non-writable views,
seal generations fence the decoded-operand cache, and the ticket
auditor rejects any writable read view.  Each link is pinned here.
"""

import numpy as np
import pytest

from repro.analysis import TicketAuditor, WritableReadViewError
from repro.core.array import ArrayDesc
from repro.core.engine import DOoCEngine, default_worker_count
from repro.core.errors import DoocError
from repro.core.interval import Interval, whole_array, whole_block
from repro.core.iofilter import read_block, write_block
from repro.core.opcache import (
    OPERAND_CONTEXT_KEY,
    DecodedOperandCache,
    OperandContext,
    cached_decode,
)
from repro.core.storage import LocalStore, Permission, Ticket
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_reference


def desc(name="a", length=100, block=50, dtype="float64"):
    return ArrayDesc(name, length=length, block_elems=block, dtype=dtype)


def effects_of_kind(effects, kind):
    return [e for e in effects if e.kind == kind]


def write_whole_array(store, d, value_fn=lambda i: float(i)):
    """Write and release every block of d, serving spills synchronously."""
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


class TestFrozenBuffers:
    def test_sealed_buffer_is_frozen_and_read_views_inherit(self):
        d = desc()
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        write_whole_array(store, d)
        st = store._blocks[("a", 0)]
        assert not st.data.flags.writeable
        ticket, effects = store.request_read(whole_block(d, 0))
        assert effects_of_kind(effects, "grant_read")
        assert not ticket.data.flags.writeable
        with pytest.raises(ValueError):
            ticket.data[0] = 99.0
        store.release(ticket)

    def test_loaded_block_is_frozen(self):
        # Budget fits one 400 B block: writing block 1 spills block 0,
        # and reading block 0 back spills block 1 then loads from
        # "disk".  The reloaded buffer must come back frozen too.
        d = desc(length=100, block=50)
        store = LocalStore(0, memory_budget=500)
        store.create_array(d)
        write_whole_array(store, d)
        ticket, effects = store.request_read(whole_block(d, 0))
        for _ in range(10):
            if ticket.granted:
                break
            nxt = []
            for e in effects:
                if e.kind == "spill":
                    nxt.extend(store.on_spilled(e.array, e.block))
                elif e.kind == "load":
                    nxt.extend(store.on_loaded(
                        e.array, e.block, np.arange(50, dtype=np.float64)))
            effects = nxt
        assert ticket.granted
        assert not ticket.data.flags.writeable
        store.release(ticket)

    def test_read_block_returns_readonly_view(self, tmp_path):
        d = desc(length=8, block=8)
        write_block(tmp_path, d, 0, np.arange(8, dtype=np.float64))
        out = read_block(tmp_path, d, 0)
        np.testing.assert_array_equal(out, np.arange(8, dtype=np.float64))
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1.0


class TestSealGenerations:
    def test_read_tickets_are_stamped_with_the_generation(self):
        d = desc()
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        write_whole_array(store, d)
        ticket, _ = store.request_read(whole_block(d, 0))
        assert ticket.generation == store._blocks[("a", 0)].generation
        store.release(ticket)

    def test_reclaim_bumps_generation_and_invalidates_opcache(self):
        # Budget fits one 400 B block, so writing block 1 spill-drops
        # block 0: the reclaim must bump its generation and purge any
        # cache entry decoded from the array.
        d = desc(length=100, block=50)
        store = LocalStore(0, memory_budget=500)
        store.create_array(d)
        cache = DecodedOperandCache(1 << 20)
        store.opcache = cache
        cache.put("a", (0,), "decoded", 16)
        assert cache.get("a", (0,)) == "decoded"
        write_whole_array(store, d)
        assert store._blocks[("a", 0)].generation >= 1
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.get("a", (0,)) is None

    def test_delete_array_invalidates_opcache(self):
        d = desc(length=50, block=50)
        store = LocalStore(0, memory_budget=10**6)
        store.create_array(d)
        cache = DecodedOperandCache(1 << 20)
        store.opcache = cache
        write_whole_array(store, d)
        cache.put("a", (0,), "decoded", 16)
        store.delete_array("a")
        assert len(cache) == 0


class TestAuditor:
    def _read_ticket(self, writable):
        t = Ticket(1, Interval("a", 0, 0, 4), Permission.READ)
        data = np.zeros(4)
        data.flags.writeable = writable
        t.data = data
        t.granted = True
        return t

    def test_writable_read_view_rejected(self):
        auditor = TicketAuditor()
        with pytest.raises(WritableReadViewError):
            auditor.note_granted(0, self._read_ticket(writable=True))

    def test_frozen_read_view_accepted(self):
        auditor = TicketAuditor()
        auditor.note_granted(0, self._read_ticket(writable=False))
        assert auditor.granted_total == 1

    def test_audited_store_round_trip_is_clean(self):
        d = desc()
        store = LocalStore(0, memory_budget=10**6)
        store.auditor = TicketAuditor()
        store.create_array(d)
        write_whole_array(store, d)
        ticket, _ = store.request_read(whole_block(d, 0))
        store.release(ticket)
        store.auditor.assert_clean()


class TestWorkerPoolConfig:
    def test_workers_alias_sets_pool_size(self):
        eng = DOoCEngine(n_nodes=1, workers=3)
        try:
            assert eng.workers_per_node == 3
        finally:
            eng.cleanup()

    def test_default_is_cpu_aware(self):
        eng = DOoCEngine(n_nodes=1)
        try:
            assert eng.workers_per_node == default_worker_count()
            assert 2 <= eng.workers_per_node <= 8
        finally:
            eng.cleanup()

    def test_zero_workers_rejected(self):
        with pytest.raises(DoocError):
            DOoCEngine(n_nodes=1, workers=0)

    def test_negative_opcache_budget_rejected(self):
        with pytest.raises(DoocError):
            DOoCEngine(n_nodes=1, opcache_bytes=-1)


def make_problem(n=64, k=2, seed=7, density_per_row=6.0):
    rng = np.random.default_rng(seed)
    p = GridPartition(n, k)
    d = choose_gap_parameter(n, density_per_row)
    global_m = gap_uniform_csr(n, n, d, rng)
    return global_m, p, p.split_matrix(global_m), rng.normal(size=n)


class TestDataPlanesEndToEnd:
    """The same two-node SpMV under both planes: copies vs no copies."""

    def _run(self, tmp_path, iterations=3):
        global_m, p, blocks, x0 = make_problem()
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=iterations, n_nodes=2)
        eng = DOoCEngine(n_nodes=2, workers=2, scratch_dir=tmp_path)
        try:
            report = eng.run(result.program, timeout=120)
            got = result.fetch_final(eng)
        finally:
            eng.cleanup()
        want = iterated_spmv_reference(global_m, x0, iterations)
        np.testing.assert_allclose(got, want, rtol=1e-9)
        return report

    @staticmethod
    def _total(report, name):
        return sum(per.get(name, 0) for per in report.metrics.values())

    def test_zerocopy_plane_copies_nothing_and_caches_decodes(self, tmp_path):
        report = self._run(tmp_path)
        # Single-block arrays end to end: loads, peer serves and task
        # inputs are all served as views, so the deterministic copy
        # counter stays at zero.
        assert self._total(report, "bytes_copied") == 0
        # Each sub-matrix is decoded once, then hit on every later task.
        assert self._total(report, "opcache_hits") > 0


class TestDecodedOperandCache:
    def test_hit_miss_accounting(self):
        c = DecodedOperandCache(1024)
        assert c.get("a", (0,)) is None
        assert c.put("a", (0,), "v", 100)
        assert c.get("a", (0,)) == "v"
        assert (c.hits, c.misses) == (1, 1)
        assert c.hit_rate == 0.5

    def test_lru_eviction_under_budget(self):
        c = DecodedOperandCache(250)
        c.put("a", (0,), "va", 100)
        c.put("b", (0,), "vb", 100)
        c.get("a", (0,))                     # refresh a: b is now LRU
        c.put("c", (0,), "vc", 100)          # must evict b, not a
        assert c.get("b", (0,)) is None
        assert c.get("a", (0,)) == "va"
        assert c.get("c", (0,)) == "vc"
        assert c.evictions == 1
        assert c.in_use <= 250

    def test_oversized_entry_rejected(self):
        c = DecodedOperandCache(100)
        assert not c.put("a", (0,), "v", 101)
        assert len(c) == 0

    def test_stale_generation_misses(self):
        c = DecodedOperandCache(1024)
        c.put("a", (0,), "v", 10)
        assert c.get("a", (1,)) is None      # bumped generation: miss
        assert c.get("a", (0,)) == "v"

    def test_invalidate_drops_all_generations(self):
        c = DecodedOperandCache(1024)
        c.put("a", (0,), "v0", 10)
        c.put("a", (1,), "v1", 10)
        c.put("b", (0,), "w", 10)
        assert c.invalidate("a") == 2
        assert len(c) == 1 and c.get("b", (0,)) == "w"
        assert c.in_use == 10


class TestCachedDecode:
    def test_plain_decode_without_context(self):
        calls = []
        raw = np.arange(4.0)
        out = cached_decode({}, "a", raw, lambda r: calls.append(1) or "d")
        assert out == "d" and calls == [1]

    def test_second_decode_is_a_hit(self):
        cache = DecodedOperandCache(1 << 20)
        meta = {OPERAND_CONTEXT_KEY: OperandContext(cache, {"a": (3,)})}
        calls = []
        raw = np.arange(4.0)
        decode = lambda r: calls.append(1) or "d"  # noqa: E731
        assert cached_decode(meta, "a", raw, decode) == "d"
        assert cached_decode(meta, "a", raw, decode) == "d"
        assert calls == [1]                  # decoded exactly once
        assert cache.hits == 1

    def test_unknown_array_falls_back(self):
        cache = DecodedOperandCache(1 << 20)
        meta = {OPERAND_CONTEXT_KEY: OperandContext(cache, {"a": (0,)})}
        calls = []
        cached_decode(meta, "other", np.arange(2.0),
                      lambda r: calls.append(1) or "d")
        assert calls == [1] and len(cache) == 0


class TestOpcacheConcurrentPut:
    """Accounting under racing put()s of the same key must not drift.

    Two workers that miss on the same operand both decode and both
    put() — the second insert must replace the first and subtract its
    size, or ``in_use`` creeps up until the cache stops accepting
    entries it has room for.
    """

    def test_racing_reinserts_keep_in_use_exact(self):
        import threading

        cache = DecodedOperandCache(budget_bytes=10_000)
        keys = [("a", (1,)), ("b", (2,)), ("c", (3,))]
        stop = threading.Event()
        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    array, gens = keys[rng.integers(len(keys))]
                    cache.put(array, gens, object(),
                              int(rng.integers(1, 2_000)))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,))
                   for s in range(4)]
        for t in threads:
            t.start()
        import time
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        with cache._lock:
            exact = sum(nbytes for _, nbytes in cache._entries.values())
        assert cache.in_use == exact
        assert 0 <= cache.in_use <= cache.budget
        # Re-inserting every key at a known size converges exactly.
        for array, gens in keys:
            cache.put(array, gens, object(), 100)
        assert cache.in_use == 100 * len(keys)
        cache.clear()
        assert cache.in_use == 0


class TestAvailableCpus:
    """The worker default must honor affinity masks, not just cpu_count."""

    def test_affinity_mask_preferred(self, monkeypatch):
        import os

        from repro.core.engine import _available_cpus

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _available_cpus() == 3
        assert default_worker_count() == 3

    def test_cpu_count_fallback_when_no_affinity(self, monkeypatch):
        import os

        from repro.core.engine import _available_cpus

        def boom(pid):
            raise AttributeError("no sched_getaffinity here")

        monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _available_cpus() == 6
        assert default_worker_count() == 6

    def test_bounds_still_apply(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert default_worker_count() == 2  # floor: compute/copy overlap
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(32)), raising=False)
        assert default_worker_count() == 8  # cap: glue-code contention

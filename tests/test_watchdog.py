"""Stall-watchdog tests: silence turns into a named diagnosis instead of
an opaque ``TimeoutError``."""

import threading

import numpy as np
import pytest

from repro.core import DOoCEngine, Program
from repro.core.errors import DoocError, StallError
from repro.core.interval import whole_block
from repro.core.storage import LocalStore
from repro.obs import Diagnosis, StallWatchdog, Tracer


def desc(name="a", length=100, block=50, dtype="float64"):
    from repro.core.array import ArrayDesc
    return ArrayDesc(name, length=length, block_elems=block, dtype=dtype)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestDiagnosis:
    def _blocked_store(self):
        """A store with a read waiting on a range nobody ever wrote."""
        store = LocalStore(0, memory_budget=1 << 20)
        store.create_array(desc())
        ticket, effects = store.request_read(whole_block(desc(), 0))
        assert effects == []  # parked: the range was never written
        return store, ticket

    def test_diagnose_names_blocked_read(self):
        store, ticket = self._blocked_store()
        clock = FakeClock()
        dog = StallWatchdog(Tracer(clock=clock), quiet_s=1.0, log=False)
        dog.watch_store(0, store)
        diag = dog.diagnose()
        assert diag.blocked_tickets == [ticket.tid]
        text = diag.render()
        assert f"ticket {ticket.tid} awaiting a[0]" in text
        assert "read-before-write" in text

    def test_snapshot_covers_queue_and_writes(self):
        store = LocalStore(0, memory_budget=400)
        d = desc(dtype="uint8", length=400, block=400)
        store.create_array(d)
        e = desc("b", dtype="uint8", length=400, block=400)
        store.create_array(e)
        t1, _ = store.request_write(whole_block(d, 0))     # granted, pins all
        t2, _ = store.request_write(whole_block(e, 0))     # queued
        snap = store.debug_snapshot()
        assert snap["in_use"] == 400 and snap["budget"] == 400
        assert [w["granted"] for w in snap["write_tickets"]] == [True, False]
        assert [q["bytes"] for q in snap["alloc_queue"]] == [400]
        dog = StallWatchdog(Tracer(clock=FakeClock()), quiet_s=1.0, log=False)
        dog.watch_store(0, store)
        text = dog.diagnose().render()
        assert "awaiting grant" in text
        assert "queued allocations: 1" in text

    def test_snapshot_errors_are_tolerated(self):
        class Broken:
            def debug_snapshot(self):
                raise RuntimeError("torn read")

        dog = StallWatchdog(Tracer(clock=FakeClock()), quiet_s=1.0, log=False)
        dog.watch_store(0, Broken())
        diag = dog.diagnose()
        assert "torn read" in diag.nodes[0]["store_error"]
        assert "no runtime event" in diag.render().splitlines()[0]

    def test_render_without_sources(self):
        diag = Diagnosis(at=1.0, quiet_s=2.0)
        assert "no per-node state registered" in diag.render()


class TestWatchdogCheck:
    """The watchdog owns no thread: its caller asks ``next_deadline``
    when to look, and ``check`` reports a silence, once.  A fake clock
    drives both."""

    @staticmethod
    def watched(hits):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        dog = StallWatchdog(tracer, quiet_s=1.0, on_stall=hits.append,
                            log=False)
        return clock, tracer, dog

    def test_fires_once_per_stall(self):
        hits = []
        clock, tracer, dog = self.watched(hits)
        clock.t = 2.0
        tracer.instant(0, "x", "task", "task")  # heartbeat, then silence
        assert dog.next_deadline() == 3.0
        assert dog.check(2.5) is None  # quiet, but not for quiet_s yet
        clock.t = 3.0
        diag = dog.check(3.0)
        assert isinstance(diag, Diagnosis) and hits == [diag]
        assert dog.last_diagnosis is diag
        for t in (3.5, 10.0, 100.0):
            clock.t = t
            assert dog.check(t) is None
        assert len(hits) == 1  # same stall reported once, not per look
        # Reported: the next look is a quiet period ahead, never behind.
        assert dog.next_deadline() == 101.0

    def test_activity_resets_the_clock(self):
        hits = []
        clock, tracer, dog = self.watched(hits)
        for step in range(1, 50):
            clock.t = step * 0.5
            tracer.instant(0, "x", "task", "task")
            assert dog.next_deadline() == clock.t + 1.0
            assert dog.check(clock.t + 0.75) is None
        assert hits == []

    def test_new_stall_after_recovery_is_reported_again(self):
        hits = []
        clock, tracer, dog = self.watched(hits)
        tracer.instant(0, "x", "task", "task")
        clock.t = 1.5
        assert dog.check(1.5) is not None  # first stall
        tracer.instant(0, "x", "task", "task")  # recovery
        assert dog.next_deadline() == 2.5
        clock.t = 3.0
        assert dog.check(3.0) is not None  # second stall
        assert len(hits) == 2

    def test_a_failing_callback_does_not_end_the_wait(self):
        def boom(diag):
            raise RuntimeError("callback")

        clock = FakeClock()
        dog = StallWatchdog(Tracer(clock=clock), quiet_s=1.0, on_stall=boom,
                            log=False)
        clock.t = 5.0
        assert dog.check(5.0) is dog.last_diagnosis is not None


class TestEngineStall:
    def test_injected_deadlock_yields_diagnosed_stall_error(self, tmp_path):
        # Read-holds-memory-that-the-write-needs: the task pins its 32 KiB
        # input while its 32 KiB output allocation queues behind it — with
        # a budget below two blocks the run can never make progress.
        n = 4096  # 32 KiB blocks
        prog = Program("wedge", default_block_elems=n)
        prog.initial_array("x", np.arange(n, dtype=float))
        prog.array("y", n)

        def copy(ins, outs, meta):
            outs["y"][:] = ins["x"]

        prog.add_task("copy", copy, ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, memory_budget_per_node=40_000,
                         scratch_dir=tmp_path, watchdog_quiet_s=0.3)
        with pytest.raises(StallError) as err:
            eng.run(prog, timeout=3)
        exc = err.value
        assert isinstance(exc, TimeoutError)  # old catch sites keep working
        assert isinstance(exc, DoocError)
        diag = exc.diagnosis
        assert diag is not None
        (node0,) = [n_ for n_ in diag.nodes if n_.get("node") == 0]
        blocked_writes = [w for w in node0["write_tickets"]
                          if not w["granted"]]
        assert [w["array"] for w in blocked_writes] == ["y"]
        assert node0["alloc_queue"], "queued allocation should be visible"
        text = str(exc)
        assert "stall watchdog" in text
        assert "y[0]" in text and "awaiting grant" in text
        # The worker names the state it waits in: x granted, y queued.
        assert node0["awaiting"] == ["worker awaiting 1 of 2 grants for copy"]
        assert "    worker awaiting 1 of 2 grants for copy" in text

    def test_hung_worker_beside_ready_work_is_diagnosed(self, tmp_path,
                                                        capsys):
        """One worker wedged inside a task body, the other idle, a second
        task ready whose input is not resident (its prefetch is declined:
        the hung task pins the memory).  The scheduler used to emit a
        ``stall_tick`` every 50 ms in exactly this state, every tick reset
        the watchdog's quiet clock, and the watchdog never spoke; now the
        scheduler blocks on its streams and silence is silence."""
        n = 4096  # 32 KiB inputs: the budget holds one beside the outputs
        prog = Program("hung", default_block_elems=n)
        release = threading.Event()

        def wedge(ins, outs, meta):
            release.wait(30)
            outs[meta["y"]][:] = 1.0

        for name in ("a", "b"):
            prog.initial_array(f"x{name}", np.arange(n, dtype=float))
            prog.array(f"y{name}", 8, block_elems=8)
            prog.add_task(name, wedge, [f"x{name}"], [f"y{name}"],
                          y=f"y{name}")
        eng = DOoCEngine(n_nodes=1, workers=2,
                         memory_budget_per_node=40_000,
                         scratch_dir=tmp_path, watchdog_quiet_s=0.3)
        try:
            with pytest.raises(StallError) as err:
                eng.run(prog, timeout=1.5)
        finally:
            release.set()
        # The watchdog itself reported, while the run was still wedged
        # (the error text below is raised, not printed).
        assert "stall watchdog: no runtime event for 0.30s" in \
            capsys.readouterr().err
        (node0,) = err.value.diagnosis.nodes
        assert node0["inflight"] == 1 and node0["idle_workers"] == 1
        assert len(node0["ready_tasks"]) == 1
        assert node0["loading"] == [] and node0["syncing"] is False
        assert "stall_ticks" not in node0
        assert "tasks in flight: 1, idle workers: 1" in str(err.value)

    def test_watchdog_can_be_disabled(self, tmp_path):
        prog = Program("ok", default_block_elems=64)
        prog.initial_array("x", np.ones(64))
        prog.array("y", 64)

        def copy(ins, outs, meta):
            outs["y"][:] = ins["x"]

        prog.add_task("copy", copy, ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path,
                         watchdog_quiet_s=None)
        report = eng.run(prog, timeout=60)
        assert report.diagnosis is None

    def test_healthy_run_reports_no_diagnosis(self, tmp_path):
        prog = Program("ok", default_block_elems=64)
        prog.initial_array("x", np.ones(64))
        prog.array("y", 64)

        def copy(ins, outs, meta):
            outs["y"][:] = ins["x"]

        prog.add_task("copy", copy, ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        report = eng.run(prog, timeout=60)
        assert report.diagnosis is None

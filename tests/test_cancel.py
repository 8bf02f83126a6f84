"""Cooperative cancellation of engine runs, and the two-engine fix.

The cancel protocol must preserve the wind-down invariant: storage
filters drain only after every worker everywhere is idle.  So a
cancelled run is certified exactly as hard as a completed one — ticket
audits clean, leases released, /dev/shm empty — and it must *never*
surface as a watchdog ``StallError``.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.cancel import CancelToken
from repro.core.engine import DOoCEngine, Program
from repro.core.errors import RunCancelled


def _shm_litter():
    return [f for f in os.listdir("/dev/shm") if f.startswith("dooc-")]


def slow_fn(delay):
    def fn(ins, outs, meta):
        time.sleep(delay)
        (name, out), = outs.items()
        src = next(iter(ins.values()))
        out[:] = src
    return fn


def copy_fn(ins, outs, meta):
    (name, out), = outs.items()
    out[:] = next(iter(ins.values()))


def _chain_program(n_tasks, n=256, delay=0.0, name="chain"):
    prog = Program(name, default_block_elems=n)
    prog.initial_array("a0", np.arange(n, dtype=float))
    fn = slow_fn(delay) if delay else copy_fn
    for i in range(n_tasks):
        prog.array(f"a{i + 1}", n)
        prog.add_task(f"t{i}", fn, [f"a{i}"], [f"a{i + 1}"])
    return prog


def _cancel_after(token, delay):
    t = threading.Timer(delay, token.cancel, kwargs={"reason": "test"})
    t.start()
    return t


class TestCancelToken:
    def test_first_cancel_wins(self):
        tok = CancelToken()
        assert not tok.cancelled
        assert tok.cancel("first") is True
        assert tok.cancel("second") is False
        assert tok.cancelled
        assert tok.reason == "first"

    def test_wait(self):
        tok = CancelToken()
        assert tok.wait(0.01) is False
        tok.cancel()
        assert tok.wait(0.01) is True
        assert tok.reason == "cancelled"


class TestEngineCancellation:
    def test_pre_cancelled_token_runs_nothing(self, tmp_path,
                                              protocol_checkers):
        tok = CancelToken()
        tok.cancel("before start")
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        try:
            with pytest.raises(RunCancelled, match="before start"):
                eng.run(_chain_program(4), timeout=30, cancel=tok)
        finally:
            eng.cleanup()
        assert _shm_litter() == []

    def test_cancel_during_execution(self, tmp_path, protocol_checkers):
        # 60 tasks x 30 ms >> the 0.15 s cancel point: the run must stop
        # long before it would finish, with a clean audit.
        tok = CancelToken()
        eng = DOoCEngine(n_nodes=2, workers=1,
                         scratch_dir=tmp_path)
        timer = _cancel_after(tok, 0.15)
        t0 = time.monotonic()
        try:
            with pytest.raises(RunCancelled, match="test"):
                eng.run(_chain_program(60, delay=0.03), timeout=60,
                        cancel=tok)
        finally:
            timer.cancel()
            eng.cleanup()
        assert time.monotonic() - t0 < 10.0  # cancelled, not timed out
        assert _shm_litter() == []

    def test_cancel_during_spill_pressure(self, tmp_path,
                                          protocol_checkers):
        # A 64 KiB budget forces constant spill/load traffic around the
        # cancel point (the storage filter must still drain cleanly).
        n = 4096
        tok = CancelToken()
        eng = DOoCEngine(n_nodes=1, workers=1,
                         memory_budget_per_node=64 * 1024 + 1024,
                         scratch_dir=tmp_path)
        timer = _cancel_after(tok, 0.05)
        try:
            with pytest.raises(RunCancelled):
                eng.run(_chain_program(40, n=n, delay=0.01, name="spill"),
                        timeout=120, cancel=tok)
        finally:
            timer.cancel()
            eng.cleanup()
        assert _shm_litter() == []

    def test_cancelled_flag_after_completion_is_harmless(self, tmp_path):
        # A token set *after* the DAG completed must not fail the run.
        tok = CancelToken()
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        try:
            eng.run(_chain_program(3), timeout=30, cancel=tok)
            tok.cancel("too late")
            np.testing.assert_allclose(eng.fetch("a3"),
                                       np.arange(256, dtype=float))
        finally:
            eng.cleanup()

    def test_run_without_token_unaffected(self, tmp_path):
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        try:
            report = eng.run(_chain_program(3), timeout=30)
            assert report.wall_seconds > 0
            np.testing.assert_allclose(eng.fetch("a3"),
                                       np.arange(256, dtype=float))
        finally:
            eng.cleanup()

    def test_cancel_process_plane(self, tmp_path, protocol_checkers):
        tok = CancelToken()
        eng = DOoCEngine(n_nodes=1, workers=1,
                         worker_plane="process", scratch_dir=tmp_path)
        timer = _cancel_after(tok, 0.2)
        try:
            with pytest.raises(RunCancelled):
                eng.run(_chain_program(60, delay=0.03, name="proc"),
                        timeout=120, cancel=tok)
        finally:
            timer.cancel()
            eng.cleanup()
        assert _shm_litter() == []


class TestTwoEnginesOneProcess:
    def test_concurrent_engines_do_not_collide(self, tmp_path,
                                               protocol_checkers):
        """Two engines in one process used to race on /dev/shm segment
        names (both derived them from the pid alone); the instance-id +
        run-seq tag makes concurrent runs disjoint."""
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def drive(idx):
            eng = DOoCEngine(n_nodes=2, workers=2,
                             scratch_dir=tmp_path / f"e{idx}")
            try:
                for rep in range(2):  # exercise the run-seq part too
                    eng.run(_chain_program(12, name=f"p{idx}-{rep}"),
                            timeout=60)
                results[idx] = eng.fetch("a12")
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)
            finally:
                eng.cleanup()

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        want = np.arange(256, dtype=float)
        np.testing.assert_allclose(results[0], want)
        np.testing.assert_allclose(results[1], want)
        assert _shm_litter() == []

    def test_engine_segment_tags_are_unique(self):
        e1 = DOoCEngine(n_nodes=1)
        e2 = DOoCEngine(n_nodes=1)
        try:
            assert e1._engine_id != e2._engine_id
        finally:
            e1.cleanup()
            e2.cleanup()

"""A hand-off is a batch: an idle worker gets the top-ranked ready task
with every input resident, and the further resident ones its share and
the scheduler's view of free memory allow (DESIGN.md, section 6).  One
acquire, one envelope, one release and one ``done`` a batch; a failure
inside it costs the failing task one attempt and sends the tasks behind
it back unrun."""

from __future__ import annotations

import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.core import DOoCEngine, Program
from repro.core.shm import SEGMENT_PREFIX, dev_shm_segments
from repro.faults import FaultPlan
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_blocked_reference
from tests.test_spmv_engine import make_problem

#: this process's pool segments (a segment's name carries the pid that
#: made it): a suite running beside this one cannot fail the leak checks
OWN_SEGMENTS = f"{SEGMENT_PREFIX}-{os.getpid()}-"

HAND_OFFS = "lsched@0.to_workers->worker@0.in"


def _total(report, counter):
    return sum(m.get(counter, 0) for m in report.metrics.values())


@pytest.mark.parametrize("plane", ["thread", "process"])
class TestBatchesCutMessages:
    """In core, K = 3 on one node and two workers.  With one task a
    hand-off, a task took about 7.6 stream messages."""

    def test_hand_offs_and_messages_per_task(self, tmp_path, plane):
        _, p, blocks, x0 = make_problem(n=600, k=3, seed=3,
                                        density_per_row=8.0)
        result = build_iterated_spmv(blocks, p.split_vector(x0),
                                     iterations=12, n_nodes=1,
                                     policy="simple")
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=tmp_path,
                         worker_plane=plane)
        try:
            report = eng.run(result.program, timeout=120)
            got = result.fetch_final(eng)
        finally:
            eng.cleanup()
        np.testing.assert_array_equal(
            got, iterated_spmv_blocked_reference(blocks, p, x0, 12))
        tasks = len(result.program.tasks)
        assert "forced_dispatches" not in report.metrics[0]  # in core
        hand_offs, _ = report.stream_stats[HAND_OFFS]
        messages = sum(n for n, _ in report.stream_stats.values())
        assert hand_offs / tasks <= 0.7
        assert messages / tasks <= 5.5


def _logged_fn(ins, outs, meta):
    """``out = 2 src + k``; appends this task's name to the call log."""
    with open(meta["log"], "a") as fh:
        fh.write(meta["me"] + "\n")
    if meta.get("kill_once") and not Path(meta["kill_once"]).exists():
        Path(meta["kill_once"]).write_text("x")
        os.kill(os.getpid(), signal.SIGKILL)
    (out,) = outs.values()
    out[:] = 2.0 * ins[meta["src"]] + meta["k"]


def _fan_program(log: Path, kill_once: Path | None = None):
    """``seed`` makes ``s``; ``t1``..``t3`` each read ``s`` alone, so its
    completion makes the three ready, and resident, at once."""
    n = 64
    prog = Program("fan3", default_block_elems=n)
    x = np.arange(n, dtype=float)
    prog.initial_array("x", x)
    prog.array("s", n)
    prog.add_task("seed", _logged_fn, ["x"], ["s"], src="x", k=0.0,
                  me="seed", log=str(log))
    want = {}
    for i in (1, 2, 3):
        prog.array(f"y{i}", n)
        extra = ({"kill_once": str(kill_once)}
                 if kill_once is not None and i == 2 else {})
        prog.add_task(f"t{i}", _logged_fn, ["s"], [f"y{i}"], src="s",
                      k=float(i), me=f"t{i}", log=str(log), **extra)
        want[f"y{i}"] = 2.0 * (2.0 * x) + i
    return prog, want


def _dispatches(report) -> list[tuple[str, int]]:
    return [(e.args["task"], e.args["attempt"])
            for e in sorted(report.trace_events, key=lambda e: e.ts)
            if e.name == "dispatch"]


@pytest.mark.parametrize("plane", ["thread", "process"])
class TestAFailureInsideABatch:
    """The tasks before the failing one publish; the failing one spends
    one attempt; the ones after it go back to ready without spending any,
    their write grants abandoned.  Under the runtime checkers the ticket
    audit fails the run on any grant not handed back."""

    def test_the_middle_task_of_three_crashes(
            self, tmp_path, plane, protocol_checkers, monkeypatch):
        # Readiness order follows the DAG's successor sets, so the batch's
        # order is found as it is asked about: the worker asks the plan
        # about each task of the batch in order, first attempts only.
        asked: list[str] = []

        def crash_the_second_asked(plan, node, task, attempt):
            if task == "seed" or attempt > 1:
                return False
            if task not in asked:
                asked.append(task)
            return asked.index(task) == 1

        monkeypatch.setattr(FaultPlan, "task_fault", crash_the_second_asked)
        log = tmp_path / "calls.log"
        prog, want = _fan_program(log)
        eng = DOoCEngine(n_nodes=1, workers=1, scratch_dir=tmp_path / "s",
                         worker_plane=plane, trace=True,
                         faults=FaultPlan(task_crash=1.0))
        try:
            report = eng.run(prog, timeout=120)
            got = {name: eng.fetch(name) for name in want}
        finally:
            eng.cleanup()
        for name, value in want.items():
            assert got[name].tobytes() == value.tobytes()
        sent = _dispatches(report)
        batch = [task for task, _ in sent[1:4]]  # after "seed"'s own
        assert sorted(batch) == ["t1", "t2", "t3"] and asked[:2] == batch[:2]
        first, middle, third = batch
        # The first ran once and was published; the middle was retried
        # with one attempt spent; the third was handed out twice, both
        # times on its first attempt, and ran once.
        calls = log.read_text().split()
        assert [calls.count(t) for t in batch] == [1, 1, 1]
        assert sent.count((middle, 2)) == 1 and (middle, 3) not in sent
        assert sent.count((third, 1)) == 2 and (third, 2) not in sent
        assert sent.count((first, 1)) == 1
        assert _total(report, "task_reexecutions") == 1
        # the middle's output, and the third's
        assert _total(report, "writes_abandoned") == 2
        names = [e.name for e in report.trace_events]
        assert names.count("task_failed") == 1
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []


class TestAProcessCrashInsideABatch:
    def test_a_sigkill_fails_the_envelope_and_every_task_is_retried(
            self, tmp_path, protocol_checkers):
        log = tmp_path / "calls.log"
        prog, want = _fan_program(log, kill_once=tmp_path / "killed.flag")
        eng = DOoCEngine(n_nodes=1, workers=1, scratch_dir=tmp_path / "s",
                         worker_plane="process", trace=True)
        try:
            report = eng.run(prog, timeout=120)
            got = {name: eng.fetch(name) for name in want}
        finally:
            eng.cleanup()
        for name, value in want.items():
            assert got[name].tobytes() == value.tobytes()
        sent = _dispatches(report)
        assert sorted(task for task, _ in sent[1:4]) == ["t1", "t2", "t3"]
        # Each task of the envelope failed once, with one attempt each.
        assert sorted(sent[4:]) == [("t1", 2), ("t2", 2), ("t3", 2)]
        assert _total(report, "worker_crashes") == 1
        assert _total(report, "task_reexecutions") == 3
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []


class TestTheAblationHandsOutOneTaskAtATime:
    def test_scheduler_reorder_off(self, tmp_path):
        _, p, blocks, x0 = make_problem(n=600, k=3, seed=3,
                                        density_per_row=8.0)
        result = build_iterated_spmv(blocks, p.split_vector(x0),
                                     iterations=4, n_nodes=1,
                                     policy="simple")
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=tmp_path,
                         scheduler_reorder=False)
        try:
            report = eng.run(result.program, timeout=120)
            got = result.fetch_final(eng)
        finally:
            eng.cleanup()
        np.testing.assert_array_equal(
            got, iterated_spmv_blocked_reference(blocks, p, x0, 4))
        assert report.stream_stats[HAND_OFFS][0] == len(result.program.tasks)

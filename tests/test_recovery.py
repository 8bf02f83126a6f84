"""Permanent node-loss recovery: detection, lineage replay, checkpoint/restart.

Covers the whole recovery stack: the heartbeat state machine, the minimal
reconstruction planner, crash-atomic writes (with injected mid-write
crashes), directory eviction, engine-level node-kill soaks asserting
bit-identical results, named ``NodeLostError`` failure paths, and resumed
solver drives that must reproduce an uninterrupted run byte for byte.

The kill placement is seeded from ``DOOC_FAULT_SEED`` so CI's seed matrix
drives different corpses and death points through the same assertions.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import DOoCEngine, Program
from repro.core.array import ArrayDesc
from repro.core.dag import TaskDAG
from repro.core.directory import RETRANSMIT_S, DirectoryClient, Send
from repro.core.errors import (
    DoocError,
    NodeLostError,
    RecoveryError,
    StallError,
)
from repro.core.iofilter import read_block, write_block
from repro.core.task import TaskSpec
from repro.faults.plan import FaultPlan
from repro.recovery import (
    ALIVE,
    DEAD,
    SUSPECT,
    CheckpointCadence,
    CheckpointManager,
    LineageLog,
    MembershipConfig,
    MembershipTracker,
    plan_reconstruction,
    restore_rng,
    rng_state,
)
from repro.util.atomicio import atomic_write

FAULT_SEED = int(os.environ.get("DOOC_FAULT_SEED", "0"))

#: tight detector so kill tests resolve in well under a second
FAST_DETECT = MembershipConfig(heartbeat_s=0.02, suspect_after_s=0.1,
                               dead_after_s=0.25)


# -- membership state machine ------------------------------------------------


class TestMembership:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MembershipConfig(heartbeat_s=0.0)
        with pytest.raises(ValueError):
            MembershipConfig(heartbeat_s=0.2, suspect_after_s=0.1,
                             dead_after_s=1.0)
        with pytest.raises(ValueError):
            MembershipConfig(heartbeat_s=0.05, suspect_after_s=0.5,
                             dead_after_s=0.5)
        assert not hasattr(MembershipConfig(), "poll_s")  # no poll period

    def test_silence_escalates_alive_suspect_dead(self):
        t = MembershipTracker(2, MembershipConfig(0.05, 0.4, 1.2))
        t.beat(0, 0.0)
        t.beat(1, 0.0)
        assert t.check(0.3) == []
        assert t.check(0.5) == [(0, SUSPECT), (1, SUSPECT)]
        t.beat(0, 0.6)  # node 0 recovers; node 1 stays silent
        assert t.state(0) == ALIVE
        t.beat(0, 1.2)  # node 0 keeps beating
        assert t.check(1.3) == [(1, DEAD)]
        assert t.dead_nodes() == [1]
        assert t.quarantined() == [1]

    def test_one_poll_can_fire_both_transitions(self):
        t = MembershipTracker(1, MembershipConfig(0.05, 0.4, 1.2))
        t.beat(0, 0.0)
        assert t.check(5.0) == [(0, SUSPECT), (0, DEAD)]

    def test_dead_is_absorbing(self):
        t = MembershipTracker(1, MembershipConfig(0.05, 0.4, 1.2))
        t.beat(0, 0.0)
        t.check(5.0)
        assert t.beat(0, 5.1) is None  # the zombie's late beat is ignored
        assert t.state(0) == DEAD
        assert t.check(10.0) == []

    def test_suspect_recovery_reported_once(self):
        t = MembershipTracker(1, MembershipConfig(0.05, 0.4, 1.2))
        t.beat(0, 0.0)
        t.check(0.5)
        assert t.state(0) == SUSPECT
        assert t.beat(0, 0.6) == ALIVE
        assert t.beat(0, 0.7) is None

    def test_next_deadline_is_the_earliest_transition(self):
        t = MembershipTracker(2, MembershipConfig(0.05, 0.4, 1.2))
        assert t.next_deadline() is None  # nothing seen: no clock yet
        t.beat(0, 0.0)
        t.beat(1, 0.3)
        assert t.next_deadline() == 0.0 + 0.4  # node 0 turns suspect
        assert t.check(0.4) == [(0, SUSPECT)]
        # suspect node 0 dies at 0 + 1.2; node 1 turns suspect at 0.7
        assert t.next_deadline() == 0.3 + 0.4
        assert t.check(0.7) == [(1, SUSPECT)]
        assert t.next_deadline() == 0.0 + 1.2

    def test_a_beat_moves_the_deadline(self):
        t = MembershipTracker(1, MembershipConfig(0.05, 0.4, 1.2))
        t.beat(0, 0.0)
        assert t.next_deadline() == 0.4
        t.beat(0, 0.25)
        assert t.next_deadline() == 0.25 + 0.4
        assert t.check(0.6) == []

    def test_no_deadline_once_every_node_is_dead(self):
        t = MembershipTracker(2, MembershipConfig(0.05, 0.4, 1.2))
        t.beat(0, 0.0)
        t.check(5.0)
        assert t.dead_nodes() == [0, 1]
        assert t.next_deadline() is None

    def test_check_at_the_deadline_fires_it(self):
        # the deadline and the check compare one sum, so stepping the
        # clock from deadline to deadline always makes progress
        t = MembershipTracker(3, MembershipConfig(0.05, 0.4, 1.2))
        for node, at in ((0, 0.1), (1, 0.7), (2, 0.3)):
            t.beat(node, at)
        fired = []
        while (due := t.next_deadline()) is not None:
            step = t.check(due)
            assert step
            fired += step
        assert [n for n, s in fired if s == DEAD] == [0, 2, 1]

    def test_a_quiet_node_escalates_nothing_until_it_beats(self):
        t = MembershipTracker(2, MembershipConfig(0.05, 0.4, 1.2))
        t.beat(0, 0.0)
        t.beat(1, 0.0)
        t.quiet(1)  # it answered the end of the run
        assert t.next_deadline() == 0.4
        assert t.check(5.0) == [(0, SUSPECT), (0, DEAD)]
        assert t.state(1) == ALIVE and t.next_deadline() is None
        t.beat(1, 6.0)
        assert t.next_deadline() == 6.0 + 0.4

    def test_snapshot_and_validation(self):
        t = MembershipTracker(2, MembershipConfig(0.05, 0.4, 1.2))
        t.beat(0, 1.0)
        snap = t.snapshot(1.5)
        assert snap[0] == {"state": ALIVE, "silent_s": 0.5}
        with pytest.raises(ValueError):
            t.beat(7, 0.0)
        with pytest.raises(ValueError):
            MembershipTracker(0)


# -- lineage planner ---------------------------------------------------------


def chain_dag():
    """a --t1--> b --t2--> c, plus an unrelated d --t3--> e."""
    tasks = [
        TaskSpec("t1", None, ("a",), ("b",)),
        TaskSpec("t2", None, ("b",), ("c",)),
        TaskSpec("t3", None, ("d",), ("e",)),
    ]
    return TaskDAG(tasks, ["a", "d"])


class TestReconstructionPlan:
    def test_initial_arrays_reseed_not_replay(self):
        dag = chain_dag()
        plan = plan_reconstruction(dag, {"a": 0, "b": 1, "c": 1, "d": 1,
                                         "e": 1}, {}, 0)
        assert plan.reseed == ["a"]
        assert plan.replay == []
        assert plan.lost_arrays == ["a"]

    def test_completed_producer_of_needed_array_replays(self):
        dag = chain_dag()
        dag.mark_complete("t1")  # b exists, c does not: t2 still needs b
        plan = plan_reconstruction(
            dag, {"a": 1, "b": 0, "c": 1, "d": 1, "e": 1},
            {"t2": 1}, 0)
        assert plan.replay == ["t1"]
        assert plan.reseed == []

    def test_fully_consumed_intermediate_stays_dead(self):
        dag = chain_dag()
        dag.mark_complete("t1")
        dag.mark_complete("t2")  # b's only consumer completed: b unneeded...
        plan = plan_reconstruction(
            dag, {"a": 1, "b": 0, "c": 1, "d": 1, "e": 1}, {}, 0)
        assert plan.replay == []  # ...so nothing replays — minimal set

    def test_terminal_result_is_always_needed(self):
        dag = chain_dag()
        dag.mark_complete("t1")
        dag.mark_complete("t2")
        plan = plan_reconstruction(
            dag, {"a": 1, "b": 1, "c": 0, "d": 1, "e": 1}, {}, 0)
        assert plan.replay == ["t2"]  # c has no consumer: the caller will fetch

    def test_transitive_closure_through_collected_inputs(self):
        dag = chain_dag()
        dag.mark_complete("t1")
        dag.mark_complete("t2")
        # c lost with node 0; b was garbage-collected cluster-wide, so
        # replaying t2 pulls t1 back in, in topological order.
        plan = plan_reconstruction(
            dag, {"a": 1, "b": 1, "c": 0, "d": 1, "e": 1}, {}, 0,
            collected={"b"})
        assert plan.replay == ["t1", "t2"]

    def test_incomplete_tasks_reassign(self):
        dag = chain_dag()
        plan = plan_reconstruction(
            dag, {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1},
            {"t1": 0, "t3": 1}, 0)
        assert plan.reassign == ["t1"]

    def test_lost_blocks_counted(self):
        dag = chain_dag()
        descs = {"a": ArrayDesc("a", length=100, block_elems=30)}
        plan = plan_reconstruction(
            dag, {"a": 0, "b": 1, "c": 1, "d": 1, "e": 1}, {}, 0,
            descs=descs)
        assert plan.lost_blocks == 4


class TestLineageLog:
    def test_roundtrip(self, tmp_path):
        log = LineageLog(tmp_path / "lineage.jsonl")
        log.record("task", name="t1", node=0, inputs=["a"], outputs=["b"])
        log.record("complete", name="t1")
        log.sync()
        log.close()
        records = LineageLog.read(tmp_path / "lineage.jsonl")
        assert [r["kind"] for r in records] == ["task", "complete"]
        assert records[0]["outputs"] == ["b"]
        log.close()  # idempotent


# -- crash-atomic writes -----------------------------------------------------


class TestAtomicWrite:
    def test_full_replace(self, tmp_path):
        p = tmp_path / "x.blk"
        atomic_write(p, b"one")
        atomic_write(p, b"two")
        assert p.read_bytes() == b"two"

    def test_writing_many_paths_keeps_nothing_per_path(self, tmp_path):
        import gc
        import tracemalloc

        def write(prefix):
            for i in range(2000):
                atomic_write(tmp_path / f"{prefix}{i}.blk", b"x", durable=False)
            gc.collect()

        # A first batch lets the interpreter's own tables (pathlib interns
        # each file name) reach their size; the second must keep nothing.
        write("warm")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write("f")
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024, kept

    def test_crash_before_rename_leaves_old_content(self, tmp_path,
                                                    monkeypatch):
        p = tmp_path / "x.blk"
        atomic_write(p, b"good")

        def dying_replace(src, dst):
            raise OSError("simulated crash at the rename barrier")

        monkeypatch.setattr("repro.util.atomicio.os.replace", dying_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write(p, b"half-written garbage")
        monkeypatch.undo()
        assert p.read_bytes() == b"good"  # reader never sees a torn file
        assert list(tmp_path.iterdir()) == [p]  # temp file cleaned up

    def test_block_write_is_crash_atomic(self, tmp_path, monkeypatch):
        """Regression: a block spill that dies mid-write must not poison
        the array file a later recovery reads back."""
        desc = ArrayDesc("a", length=8, block_elems=4)
        first = np.arange(4, dtype=np.float64)
        write_block(tmp_path, desc, 0, first)

        def dying_replace(src, dst):
            raise OSError("power loss")

        monkeypatch.setattr("repro.util.atomicio.os.replace", dying_replace)
        with pytest.raises(OSError, match="power loss"):
            write_block(tmp_path, desc, 1, np.ones(4))
        monkeypatch.undo()
        np.testing.assert_array_equal(read_block(tmp_path, desc, 0), first)


class _TornFile:
    """A temporary file whose ``write`` dies after two bytes."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, data):
        self.fh.write(memoryview(data)[:2])
        self.fh.flush()
        raise OSError("crash mid-write")


class TestScratchWrites:
    """``durable=False`` drops the fsync, not the temp file + rename."""

    @pytest.mark.parametrize("where", ["x.arr", "x.arr/00000001.blk"],
                             ids=["whole", "block"])
    @pytest.mark.parametrize("dies_in", ["write", "replace"])
    def test_a_write_that_dies_changes_nothing(self, tmp_path, monkeypatch,
                                               where, dies_in):
        p = tmp_path / where
        atomic_write(p, b"0123456789", durable=False)
        if dies_in == "replace":
            def dying_replace(src, dst):
                raise OSError("crash at the rename")

            monkeypatch.setattr("repro.util.atomicio.os.replace",
                                dying_replace)
        else:
            fdopen = os.fdopen
            monkeypatch.setattr("repro.util.atomicio.os.fdopen",
                                lambda fd, mode: _TornFile(fdopen(fd, mode)))
        with pytest.raises(OSError, match="crash"):
            atomic_write(p, b"abcdefgh", durable=False)
        monkeypatch.undo()
        assert p.read_bytes() == b"0123456789"
        assert list(p.parent.iterdir()) == [p]  # no temporary left

    @pytest.mark.parametrize("durable", [True, False])
    def test_only_a_durable_write_is_fsynced(self, tmp_path, monkeypatch,
                                             durable):
        calls = []
        monkeypatch.setattr("repro.util.atomicio.os.fsync", calls.append)
        p = tmp_path / "x.arr"
        atomic_write(p, b"0123", durable=durable)
        atomic_write(p, b"0ab3", durable=durable)
        assert p.read_bytes() == b"0ab3"
        assert len(calls) == (2 if durable else 0)


# -- directory eviction ------------------------------------------------------


class TestDirectoryEviction:
    def test_probes_skip_evicted_peers(self):
        d = DirectoryClient(0, 6, np.random.default_rng(FAULT_SEED))
        assert d.evict(3, now=0.0) == [] and d.evict(5, now=0.0) == []
        (probe,) = d.fetch("a", 0, now=0.0)
        probed = set()
        for _ in range(3):  # the three live peers: 1, 2, 4
            assert probe.why == ""
            probed.add(probe.peer)
            (probe,) = d.lookup_reply("a", probe.peer, False, now=0.0)
        assert probed == {1, 2, 4}
        assert probe.why == "restart" and probe.peer in probed

    def test_walk_bounded_by_live_peers(self):
        n = 6
        d = DirectoryClient(0, n, np.random.default_rng(FAULT_SEED))
        d.evict(1, now=0.0)
        (probe,) = d.fetch("a", 0, now=0.0)
        probes = 0
        while probe.why != "restart":
            probes += 1
            (probe,) = d.lookup_reply("a", probe.peer, False, now=0.0)
        n_live = n - 1  # one corpse
        assert probes <= n_live - 1

    def test_eviction_drops_cached_owner(self):
        d = DirectoryClient(0, 4, np.random.default_rng(0))
        d.fetch("a", 0, now=0.0)
        d.lookup_reply("a", 2, True, now=0.0)
        d.fetched("a", 0)
        assert d.fetch("a", 1, now=0.0) == [Send("fetch", 2, "a", 1)]  # cached
        d.fetched("a", 1)
        d.evict(2, now=0.0)
        (probe,) = d.fetch("a", 2, now=0.0)  # re-homed: walk again
        assert probe.op == "lookup" and probe.peer != 2

    def test_in_flight_walk_fails_over_past_the_corpse(self):
        d = DirectoryClient(0, 4, np.random.default_rng(FAULT_SEED))
        (first,) = d.fetch("a", 0, now=0.0)
        (probe,) = d.lookup_reply("a", first.peer, False, now=0.0)
        dead = next(n for n in range(1, 4) if n not in (first.peer, probe.peer))
        assert d.evict(dead, now=0.0) == []  # dies mid-walk, not asked
        (probe,) = d.lookup_reply("a", probe.peer, False, now=0.0)
        assert probe.why == "restart" and probe.peer != dead

    def test_eviction_rewalks_a_fetch_in_flight_to_the_corpse(self):
        d = DirectoryClient(0, 4, np.random.default_rng(FAULT_SEED))
        d.fetch("a", 0, now=0.0)
        assert d.lookup_reply("a", 2, True, now=0.0) == [
            Send("fetch", 2, "a", 0)]
        (probe,) = d.evict(2, now=1.0)
        assert probe.op == "lookup" and probe.array == "a"
        assert probe.peer in (1, 3)
        # The fetch to the corpse is gone; only the new walk retransmits.
        assert d.due(now=5.0) == [Send("lookup", probe.peer, "a", why="retry")]
        assert d.lookup_reply("a", probe.peer, True, now=5.0) == [
            Send("fetch", probe.peer, "a", 0)]

    def test_eviction_moves_a_lookup_off_the_corpse(self):
        d = DirectoryClient(0, 4, np.random.default_rng(FAULT_SEED))
        (probe,) = d.fetch("a", 0, now=0.0)
        (moved,) = d.evict(probe.peer, now=1.0)
        assert moved.op == "lookup" and moved.array == "a" and moved.why == ""
        assert moved.peer not in (0, probe.peer)
        assert d.deadline() == 1.0 + RETRANSMIT_S

    def test_evict_validation(self):
        d = DirectoryClient(0, 4, np.random.default_rng(0))
        with pytest.raises(DoocError):
            d.evict(0, now=0.0)  # cannot evict self
        with pytest.raises(DoocError):
            d.evict(9, now=0.0)
        d.evict(1, now=0.0)
        assert d.evict(1, now=0.0) == []  # idempotent


# -- checkpoint manager ------------------------------------------------------


class TestCheckpointManager:
    def test_roundtrip_preserves_exact_floats(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        x = np.random.default_rng(0).standard_normal(64)
        mgr.save(3, {"x": x, "scalars": np.array([1e-17, np.pi])},
                 {"iteration": 3})
        ckpt = CheckpointManager(tmp_path).load(3)
        assert ckpt.step == 3
        assert ckpt.arrays["x"].tobytes() == x.tobytes()
        assert ckpt.extra == {"iteration": 3}

    def test_zero_d_and_strided_arrays_keep_their_shape(self, tmp_path):
        strided = np.arange(12.0).reshape(3, 4)[:, ::2]
        CheckpointManager(tmp_path).save(
            1, {"s": np.float64(3.0), "m": strided})
        ckpt = CheckpointManager(tmp_path).load(1)
        assert ckpt.arrays["s"].shape == ()
        assert ckpt.arrays["s"] == 3.0
        np.testing.assert_array_equal(ckpt.arrays["m"], strided)

    def test_raw_save_encodes_from_the_array_buffer(self, tmp_path):
        import tracemalloc

        x = np.ones(1 << 20)  # 8 MiB of float64
        mgr = CheckpointManager(tmp_path, codec="raw")
        tracemalloc.start()
        try:
            mgr.save(1, {"x": x})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert mgr.load(1).arrays["x"].tobytes() == x.tobytes()

    def test_load_latest_falls_back_past_corrupt_manifest(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, {"x": np.ones(4)})
        mgr.save(2, {"x": np.full(4, 2.0)})
        # Tear the newest manifest the way a dying disk would.
        (tmp_path / "ckpt-00000002.ckpt").write_text('{"step": 2, "blo')
        ckpt = CheckpointManager(tmp_path).load_latest()
        assert ckpt is not None and ckpt.step == 1

    def test_checksum_mismatch_rejected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, {"x": np.ones(4)})
        blk = next(tmp_path.glob("ckpt-00000001-*.blk"))
        blk.write_bytes(b"\x00" * blk.stat().st_size)  # silent bit rot
        with pytest.raises(RecoveryError, match="checksum"):
            CheckpointManager(tmp_path).load(1)
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_prune_keeps_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2, 3, 4):
            mgr.save(step, {"x": np.full(2, float(step))})
        assert mgr.steps() == [3, 4]
        assert not list(tmp_path.glob("ckpt-00000001-*"))

    def test_empty_directory_means_fresh_start(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_rng_state_roundtrip(self):
        rng = np.random.default_rng(42)
        rng.standard_normal(10)
        resumed = restore_rng(rng_state(rng))
        np.testing.assert_array_equal(resumed.standard_normal(5),
                                      rng.standard_normal(5))

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path).save(-1, {})


# -- engine node-kill soak ---------------------------------------------------


def _square(ins, outs, meta):
    (o,) = list(outs)
    outs[o][:] = ins[meta["src"]] ** 2


def _cube(ins, outs, meta):
    (o,) = list(outs)
    outs[o][:] = ins[meta["src"]] ** 3


def _total(ins, outs, meta):
    (o,) = list(outs)
    outs[o][:] = 0.0
    for arr in ins.values():
        outs[o] += arr


def chain_program(n=2048, block=512, nodes=3, seed=0):
    """Per-node chains feeding one global sum — homes spread across nodes
    so any corpse takes live lineage with it."""
    prog = Program("recovery-chain")
    rng = np.random.default_rng(seed)
    for i in range(nodes):
        prog.initial_array(f"src{i}", rng.standard_normal(n),
                           home=i % nodes, block_elems=block)
        prog.array(f"sq{i}", n, block_elems=block)
        prog.array(f"cu{i}", n, block_elems=block)
        prog.add_task(f"square{i}", _square, [f"src{i}"], [f"sq{i}"],
                      src=f"src{i}")
        prog.add_task(f"cube{i}", _cube, [f"sq{i}"], [f"cu{i}"],
                      src=f"sq{i}")
    prog.array("out", n, block_elems=block)
    prog.add_task("sum", _total, [f"cu{i}" for i in range(nodes)], ["out"])
    return prog


def pair_program(n=64):
    """Node 1 squares its source; the sum reads that square and node 0's."""
    prog = Program("recovery-pair", default_block_elems=n)
    for i in (0, 1):
        prog.initial_array(f"src{i}", np.arange(n, dtype=float) + i, home=i)
        prog.array(f"sq{i}", n)
        prog.add_task(f"square{i}", _square, [f"src{i}"], [f"sq{i}"],
                      src=f"src{i}")
    prog.array("out", n)
    prog.add_task("sum", _total, ["sq0", "sq1"], ["out"])
    return prog


def run_chain(tmp_path, tag, *, faults=None, gc=False, nodes=3,
              program=None):
    eng = DOoCEngine(
        n_nodes=nodes, scratch_dir=tmp_path / tag, gc_arrays=gc,
        faults=faults, membership=FAST_DETECT if faults else None,
        watchdog_quiet_s=5.0,
    )
    try:
        report = eng.run(program or chain_program(nodes=nodes), timeout=60.0)
        return eng.fetch("out").copy(), report
    finally:
        eng.cleanup()


class TestCheckpointCadence:
    """The one checkpoint plumbing all five drives share."""

    def test_no_directory_means_no_manager_and_no_writes(self):
        ckpt = CheckpointCadence(None, 2, resume=True)
        assert ckpt.manager is None and ckpt.restored is None
        ckpt.save(2, {"x": np.zeros(3)}, {"iteration": 2})
        ckpt.save(3, {"x": np.zeros(3)}, force=True)
        assert ckpt.writes == 0

    def test_every_is_validated_with_or_without_a_directory(self, tmp_path):
        for directory in (None, tmp_path / "c"):
            with pytest.raises(ValueError,
                               match="^checkpoint_every must be >= 1$"):
                CheckpointCadence(directory, 0)
        assert not (tmp_path / "c").exists()

    def test_saves_on_the_cadence_or_when_forced(self, tmp_path):
        ckpt = CheckpointCadence(tmp_path, 3)
        for step in range(1, 8):
            ckpt.save(step, {"x": np.full(2, float(step))}, {"s": step})
        assert ckpt.manager.steps() == [3, 6] and ckpt.writes == 2
        ckpt.save(7, {"x": np.full(2, 7.0)}, {"s": 7}, force=True)
        assert ckpt.manager.steps() == [6, 7] and ckpt.writes == 3

    def test_a_step_is_never_written_twice(self, tmp_path):
        ckpt = CheckpointCadence(tmp_path, 2)
        ckpt.save(4, {"x": np.zeros(2)})
        ckpt.save(4, {"x": np.ones(2)}, force=True)     # a drive's final save
        assert ckpt.writes == 1
        assert np.array_equal(ckpt.manager.load(4).arrays["x"], np.zeros(2))
        resumed = CheckpointCadence(tmp_path, 2, resume=True)
        assert resumed.restored.step == 4
        resumed.save(4, {"x": np.ones(2)}, force=True)  # what it resumed from
        assert resumed.writes == 0

    def test_restores_only_when_resuming(self, tmp_path):
        CheckpointManager(tmp_path).save(5, {"x": np.arange(3.0)})
        assert CheckpointCadence(tmp_path, 2).restored is None
        restored = CheckpointCadence(tmp_path, 2, resume=True).restored
        assert restored.step == 5
        assert np.array_equal(restored.arrays["x"], np.arange(3.0))


class TestEngineNodeLoss:
    @pytest.mark.parametrize("gc", [False, True])
    def test_killed_node_run_is_bit_identical(self, tmp_path, gc):
        kill_node = FAULT_SEED % 3
        kill_at = FAULT_SEED % 2 + 1
        clean, _ = run_chain(tmp_path, f"clean-{gc}", gc=gc)
        faults = FaultPlan(node_kill=((kill_node, kill_at),))
        survived, report = run_chain(tmp_path, f"killed-{gc}", gc=gc,
                                     faults=faults)
        assert survived.tobytes() == clean.tobytes()
        engine = report.metrics.get(-1, {})
        assert engine.get("nodes_lost") == 1
        assert engine.get("tasks_replayed", 0) + \
            engine.get("tasks_reassigned", 0) >= 1

    def test_survivor_without_peers_waits_for_the_rehome(self, tmp_path):
        # Two nodes: node 0's fetch of node 1's square is cut by the death,
        # and its owner walk has no live peer left to ask.  It waits for
        # the recovery rehome instead of failing the lookup.
        clean, _ = run_chain(tmp_path, "clean", nodes=2,
                             program=pair_program())
        survived, report = run_chain(
            tmp_path, "killed", nodes=2, program=pair_program(),
            faults=FaultPlan(node_kill=((1, 1),)))
        assert survived.tobytes() == clean.tobytes()
        assert report.metrics[-1]["nodes_lost"] == 1

    def test_a_corpse_leaves_no_ticket_to_audit(self, tmp_path,
                                                protocol_checkers):
        # The dying node's last release can queue behind its "die" and be
        # discarded with it; those tickets died with the node, so the
        # audit must not report them.  Repeated: the race is one of order.
        src = np.arange(64, dtype=float)
        for attempt in range(20):
            out, _ = run_chain(tmp_path, f"killed-{attempt}",
                               program=pair_program(),
                               faults=FaultPlan(node_kill=((1, 1),)))
            assert np.array_equal(out, src ** 2 + (src + 1) ** 2)

    def test_no_survivor_raises_node_loss(self, tmp_path):
        faults = FaultPlan(node_kill=((0, 1),))
        with pytest.raises(NodeLostError) as err:
            run_chain(tmp_path, "lonely", faults=faults, nodes=1)
        assert err.value.node == 0
        assert err.value.lost_blocks == 16
        assert "node 0" in str(err.value)
        # Never reported as a generic stall/timeout: the corpse is named.
        assert isinstance(err.value, StallError)  # old catch sites still work

    def test_vanished_node_is_named_without_waiting(self, tmp_path):
        # Once the last heartbeat stream has closed, no beat can arrive:
        # the detector's clock is run forward instead of slept through
        # (dead_after_s=3.0 used to cost 3 s of wall).
        eng = DOoCEngine(
            n_nodes=1, scratch_dir=tmp_path,
            faults=FaultPlan(node_kill=((0, 1),)),
            membership=MembershipConfig(heartbeat_s=0.05,
                                        suspect_after_s=0.5,
                                        dead_after_s=3.0))
        t0 = time.monotonic()
        try:
            with pytest.raises(NodeLostError) as err:
                eng.run(chain_program(nodes=1), timeout=60.0)
        finally:
            eng.cleanup()
        assert time.monotonic() - t0 < 1.0
        assert err.value.node == 0

    def test_recovery_is_traced_and_counted(self, tmp_path):
        eng = DOoCEngine(
            n_nodes=3, scratch_dir=tmp_path, trace=True,
            faults=FaultPlan(node_kill=((1, 1),)), membership=FAST_DETECT,
        )
        try:
            report = eng.run(chain_program(), timeout=60.0)
        finally:
            eng.cleanup()
        names = {e.name for e in report.trace_events if e.cat == "recovery"}
        assert {"node_suspect", "node_dead", "node_evict",
                "reconstruct"} <= names
        engine = report.metrics.get(-1, {})
        assert engine.get("blocks_lost", 0) > 0
        assert engine.get("arrays_reseeded", 0) >= 1


# -- resumed solver drives ---------------------------------------------------


class DenseOperator:
    """In-core adapter so resume semantics are tested without the engine."""

    def __init__(self, m):
        self.m = np.asarray(m, dtype=np.float64)
        self.n = self.m.shape[0]

    def matvec(self, x):
        return self.m @ x

    def diagonal(self):
        return np.diag(self.m).copy()


def spd_matrix(n=48, seed=0, shift=30.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2 + shift * np.eye(n)


def manifests(directory):
    """``{step: (array names, extra)}`` of a checkpoint directory, read
    as the plain JSON it is — the on-disk format, not the loader's view."""
    out = {}
    for path in sorted(Path(directory).glob("ckpt-*.ckpt")):
        manifest = json.loads(path.read_text())
        out[manifest["step"]] = (sorted(manifest["blocks"]),
                                 manifest["extra"])
    return out


def ooc_system(scratch, n=48, k=2, shift=60.0, seed=0):
    """An out-of-core SPD, diagonally dominant system on two nodes."""
    from repro.spmv.csr import CSRBlock
    from repro.spmv.ooc_operator import OutOfCoreMatrix
    from repro.spmv.partition import GridPartition
    import scipy.sparse as sp
    m = sp.csr_matrix(spd_matrix(n, seed, shift))
    blocks = GridPartition(n, k).split_matrix(CSRBlock.from_scipy(m))
    return OutOfCoreMatrix(blocks, n_nodes=2, scratch_dir=scratch)


class TestDriveCheckpointFormat:
    """Array names, ``extra`` keys and step numbering of all five drives,
    literally: a resumed job reads what an older build wrote."""

    @pytest.mark.parametrize("mode", ["sync", "incremental", "async"])
    def test_jacobi(self, tmp_path, mode):
        from repro.solvers import jacobi_solve
        op = ooc_system(tmp_path / "scratch")
        b = np.random.default_rng(2).standard_normal(48)
        try:
            jacobi_solve(op, b, tol=1e-30, max_iterations=7, mode=mode,
                         checkpoint_dir=tmp_path / "c", checkpoint_every=3)
        finally:
            op.engine.cleanup()
        assert manifests(tmp_path / "c") == {
            3: (["history", "x"], {"iteration": 3}),
            6: (["history", "x"], {"iteration": 6})}

    def test_cg(self, tmp_path):
        from repro.solvers import conjugate_gradient_solve
        b = np.random.default_rng(1).standard_normal(48)
        conjugate_gradient_solve(
            DenseOperator(spd_matrix()), b, tol=1e-30, max_iterations=7,
            checkpoint_dir=tmp_path, checkpoint_every=3)
        names = ["history", "p", "r", "rr", "x"]
        assert manifests(tmp_path) == {3: (names, {"iteration": 3}),
                                       6: (names, {"iteration": 6})}

    def test_lanczos(self, tmp_path):
        from repro.lanczos import lanczos
        m = spd_matrix(n=40, seed=3)
        lanczos(lambda v: m @ v, 40, k=7, n_eigenvalues=3, tol=0.0,
                rng=np.random.default_rng(4),
                checkpoint_dir=tmp_path, checkpoint_every=3)
        names = ["alphas", "betas", "v_curr", "v_prev"]
        assert manifests(tmp_path) == {
            3: (names, {"step": 3, "basis_count": 4}),
            6: (names, {"step": 6, "basis_count": 7})}

    @pytest.mark.parametrize("incremental", [False, True])
    def test_iterated_spmv(self, tmp_path, incremental):
        from repro.spmv.program import run_iterated_spmv
        blocks, x0 = spmv_problem()
        run = run_iterated_spmv(
            blocks, x0, 5, n_nodes=2, policy="interleaved",
            incremental=incremental,
            checkpoint_dir=tmp_path, checkpoint_every=2)
        # written at 2, 4 and the final step 5; the manager keeps two
        assert run.checkpoint_writes == 3
        assert manifests(tmp_path) == {
            4: (["x0", "x1"], {"iterations": 4, "policy": "interleaved"}),
            5: (["x0", "x1"], {"iterations": 5, "policy": "interleaved"})}

    def test_incremental_drive_ends_on_a_boundary_once(self, tmp_path):
        """Its final save and the cadence's save of the same step are one
        write."""
        from repro.spmv.program import run_iterated_spmv
        blocks, x0 = spmv_problem()
        run = run_iterated_spmv(blocks, x0, 4, n_nodes=2, incremental=True,
                                checkpoint_dir=tmp_path, checkpoint_every=2)
        assert run.checkpoint_writes == 2
        assert sorted(manifests(tmp_path)) == [2, 4]

    def test_every_drive_refuses_a_cadence_below_one(self, tmp_path):
        from repro.lanczos import lanczos
        from repro.solvers import conjugate_gradient_solve, jacobi_solve
        from repro.spmv.program import run_iterated_spmv
        m = spd_matrix()
        b = np.ones(48)
        blocks, x0 = spmv_problem()
        drives = [
            lambda: jacobi_solve(DenseOperator(m), b, checkpoint_every=0),
            lambda: conjugate_gradient_solve(DenseOperator(m), b,
                                             checkpoint_every=0),
            lambda: lanczos(lambda v: m @ v, 48, checkpoint_every=0),
            lambda: run_iterated_spmv(blocks, x0, 2, checkpoint_every=0),
            lambda: run_iterated_spmv(blocks, x0, 2, checkpoint_every=0,
                                      incremental=True),
        ]
        for drive in drives:
            with pytest.raises(ValueError,
                               match="^checkpoint_every must be >= 1$"):
                drive()


def spmv_problem(n=256, k=2, seed=6):
    from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
    from repro.spmv.partition import GridPartition
    rng = np.random.default_rng(seed)
    p = GridPartition(n, k)
    blocks = p.split_matrix(
        gap_uniform_csr(n, n, choose_gap_parameter(n, 6.0), rng))
    return blocks, p.split_vector(rng.standard_normal(n))


class TestSolverResume:
    def test_cg_resume_is_bit_identical(self, tmp_path):
        from repro.solvers import conjugate_gradient_solve
        m = spd_matrix()
        b = np.random.default_rng(1).standard_normal(48)
        straight = conjugate_gradient_solve(
            DenseOperator(m), b, tol=1e-30, max_iterations=30)
        conjugate_gradient_solve(
            DenseOperator(m), b, tol=1e-30, max_iterations=12,
            checkpoint_dir=tmp_path, checkpoint_every=4)
        resumed = conjugate_gradient_solve(
            DenseOperator(m), b, tol=1e-30, max_iterations=30,
            checkpoint_dir=tmp_path, resume=True)
        assert resumed.x.tobytes() == straight.x.tobytes()
        assert resumed.residual_history[-1] == straight.residual_history[-1]

    def test_jacobi_resume_is_bit_identical(self, tmp_path):
        from repro.solvers import jacobi_solve
        m = spd_matrix(shift=60.0)
        b = np.random.default_rng(2).standard_normal(48)
        straight = jacobi_solve(DenseOperator(m), b, tol=1e-30,
                                max_iterations=25)
        jacobi_solve(DenseOperator(m), b, tol=1e-30, max_iterations=11,
                     checkpoint_dir=tmp_path, checkpoint_every=5)
        resumed = jacobi_solve(DenseOperator(m), b, tol=1e-30,
                               max_iterations=25,
                               checkpoint_dir=tmp_path, resume=True)
        assert resumed.x.tobytes() == straight.x.tobytes()

    def test_lanczos_resume_with_disk_basis_is_bit_identical(self, tmp_path):
        from repro.lanczos import lanczos
        from repro.lanczos.basis import DiskBasis
        m = spd_matrix(n=40, seed=3)
        rng_seed = 4
        # The baseline must also stream through a DiskBasis: the two basis
        # stores orthogonalize with different summation orders.
        straight = lanczos(
            lambda v: m @ v, 40, k=20, n_eigenvalues=3, tol=0.0,
            rng=np.random.default_rng(rng_seed),
            basis=DiskBasis(40, scratch_dir=tmp_path / "straight"))
        lanczos(
            lambda v: m @ v, 40, k=8, n_eigenvalues=3, tol=0.0,
            rng=np.random.default_rng(rng_seed),
            basis=DiskBasis(40, scratch_dir=tmp_path / "resumable"),
            checkpoint_dir=tmp_path / "ckpt", checkpoint_every=4)
        resumed = lanczos(
            lambda v: m @ v, 40, k=20, n_eigenvalues=3, tol=0.0,
            basis=DiskBasis(40, scratch_dir=tmp_path / "resumable"),
            checkpoint_dir=tmp_path / "ckpt", resume=True)
        np.testing.assert_array_equal(resumed.eigenvalues,
                                      straight.eigenvalues)
        np.testing.assert_array_equal(resumed.alphas, straight.alphas)
        np.testing.assert_array_equal(resumed.betas, straight.betas)

    def test_lanczos_resume_needs_reattachable_basis(self, tmp_path):
        from repro.lanczos import lanczos
        from repro.lanczos.basis import DiskBasis
        m = spd_matrix(n=16, seed=5)
        lanczos(lambda v: m @ v, 16, k=6, n_eigenvalues=2, tol=0.0,
                rng=np.random.default_rng(0),
                basis=DiskBasis(16, scratch_dir=tmp_path / "b"),
                checkpoint_dir=tmp_path / "ckpt", checkpoint_every=3)
        with pytest.raises(RecoveryError, match="reattach"):
            lanczos(lambda v: m @ v, 16, k=8, n_eigenvalues=2,
                    checkpoint_dir=tmp_path / "ckpt", resume=True)

    def test_iterated_spmv_resume_is_bit_identical(self, tmp_path):
        self.spmv_resume(tmp_path, incremental=False)

    def test_incremental_spmv_resume_is_bit_identical(self, tmp_path):
        self.spmv_resume(tmp_path, incremental=True)

    def spmv_resume(self, tmp_path, incremental):
        from repro.spmv.program import run_iterated_spmv
        blocks, x0 = spmv_problem()
        straight = run_iterated_spmv(blocks, x0, 6, n_nodes=2,
                                     policy="interleaved")
        run_iterated_spmv(blocks, x0, 3, n_nodes=2, policy="interleaved",
                          checkpoint_dir=tmp_path, checkpoint_every=3,
                          incremental=incremental)
        resumed = run_iterated_spmv(blocks, x0, 6, n_nodes=2,
                                    policy="interleaved",
                                    checkpoint_dir=tmp_path,
                                    checkpoint_every=3, resume=True,
                                    incremental=incremental)
        assert resumed.restored_from == 3
        assert resumed.join().tobytes() == straight.join().tobytes()

    def test_incremental_jacobi_resume_is_bit_identical(self, tmp_path):
        from repro.solvers import jacobi_solve
        b = np.random.default_rng(2).standard_normal(48)
        op = ooc_system(tmp_path / "scratch")
        try:
            straight = jacobi_solve(op, b, tol=1e-30, max_iterations=25)
            jacobi_solve(op, b, tol=1e-30, max_iterations=11,
                         mode="incremental", checkpoint_dir=tmp_path / "c",
                         checkpoint_every=5)
            resumed = jacobi_solve(op, b, tol=1e-30, max_iterations=25,
                                   mode="incremental", resume=True,
                                   checkpoint_dir=tmp_path / "c")
        finally:
            op.engine.cleanup()
        assert resumed.x.tobytes() == straight.x.tobytes()
        assert resumed.residual_history == straight.residual_history


class TestKillThenResume:
    def test_process_killed_mid_solve_resumes_bit_identically(self, tmp_path):
        """The full restart story: a child process dies (os._exit — no
        cleanup, no atexit) mid-solve, and a fresh process finishes the
        solve from the newest intact checkpoint, matching an uninterrupted
        run byte for byte."""
        repo_src = Path(__file__).resolve().parent.parent / "src"
        script = textwrap.dedent("""
            import os, sys
            import numpy as np
            from repro.solvers import jacobi_solve

            class Op:
                def __init__(self, m):
                    self.m = m
                    self.n = m.shape[0]
                def matvec(self, x):
                    return self.m @ x
                def diagonal(self):
                    return np.diag(self.m).copy()

            rng = np.random.default_rng(0)
            a = rng.standard_normal((48, 48))
            m = (a + a.T) / 2 + 60.0 * np.eye(48)
            b = np.random.default_rng(2).standard_normal(48)

            def die_at(it, res):
                if it == 12:
                    os._exit(17)  # simulated power loss: no cleanup at all

            jacobi_solve(Op(m), b, tol=1e-30, max_iterations=25,
                         checkpoint_dir=sys.argv[1], checkpoint_every=5,
                         callback=die_at)
            os._exit(0)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(repo_src)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 17, proc.stderr

        from repro.solvers import jacobi_solve
        m = spd_matrix(shift=60.0)
        b = np.random.default_rng(2).standard_normal(48)
        straight = jacobi_solve(DenseOperator(m), b, tol=1e-30,
                                max_iterations=25)
        resumed = jacobi_solve(DenseOperator(m), b, tol=1e-30,
                               max_iterations=25, checkpoint_dir=tmp_path,
                               resume=True)
        assert resumed.x.tobytes() == straight.x.tobytes()


    def killed_child(self, tmp_path, solve):
        """Run ``solve`` (source text; has ``m``, ``b``, ``ckpt``,
        ``scratch`` and ``die_at``) in a child that loses power in its
        12th iteration."""
        repo_src = Path(__file__).resolve().parent.parent / "src"
        prelude = textwrap.dedent(f"""
            import os, sys
            import numpy as np
            sys.path.insert(0, {str(Path(__file__).parent)!r})
            from test_recovery import DenseOperator, ooc_system, spd_matrix

            m = spd_matrix(shift=60.0)
            b = np.random.default_rng(2).standard_normal(48)
            ckpt, scratch = sys.argv[1], sys.argv[2]

            def die_at(it, res):
                if it == 12:
                    os._exit(17)  # simulated power loss: no cleanup at all
        """)
        script = prelude + textwrap.dedent(solve) + "\nos._exit(0)\n"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "c"),
             str(tmp_path / "child-scratch")],
            env={**os.environ, "PYTHONPATH": str(repo_src)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 17, proc.stderr

    def test_killed_cg_resumes_bit_identically(self, tmp_path):
        from repro.solvers import conjugate_gradient_solve
        self.killed_child(tmp_path, """
            from repro.solvers import conjugate_gradient_solve
            conjugate_gradient_solve(
                DenseOperator(m), b, tol=1e-30, max_iterations=25,
                checkpoint_dir=ckpt, checkpoint_every=5, callback=die_at)
        """)
        names = ["history", "p", "r", "rr", "x"]
        assert manifests(tmp_path / "c") == {5: (names, {"iteration": 5}),
                                             10: (names, {"iteration": 10})}
        m = spd_matrix(shift=60.0)
        b = np.random.default_rng(2).standard_normal(48)
        straight = conjugate_gradient_solve(DenseOperator(m), b, tol=1e-30,
                                            max_iterations=25)
        resumed = conjugate_gradient_solve(
            DenseOperator(m), b, tol=1e-30, max_iterations=25,
            checkpoint_dir=tmp_path / "c", resume=True)
        assert resumed.x.tobytes() == straight.x.tobytes()
        assert resumed.residual_history == straight.residual_history

    def test_killed_async_jacobi_resumes_inside_the_bound(self, tmp_path):
        """An async resume restarts the staleness history from the
        checkpointed iterate: what carries over is ``(x, history)`` and
        the convergence bound, not the iterate sequence."""
        from repro.solvers import jacobi_solve
        self.killed_child(tmp_path, """
            from repro.solvers import jacobi_solve
            jacobi_solve(ooc_system(scratch, shift=480.0), b, tol=1e-6,
                         mode="async", max_iterations=120,
                         checkpoint_dir=ckpt, checkpoint_every=5,
                         callback=die_at)
        """)
        assert manifests(tmp_path / "c") == {
            5: (["history", "x"], {"iteration": 5}),
            10: (["history", "x"], {"iteration": 10})}
        b = np.random.default_rng(2).standard_normal(48)
        op = ooc_system(tmp_path / "scratch", shift=480.0)
        try:
            straight = jacobi_solve(op, b, tol=1e-6, mode="async",
                                    max_iterations=120)
            resumed = jacobi_solve(op, b, tol=1e-6, mode="async",
                                   max_iterations=120, resume=True,
                                   checkpoint_dir=tmp_path / "c")
            residual = np.linalg.norm(b - op.matvec(resumed.x))
        finally:
            op.engine.cleanup()
        assert resumed.residual_history[:10] == straight.residual_history[:10]
        assert resumed.converged and 10 < resumed.iterations <= 120
        assert residual <= 1e-6 * np.linalg.norm(b)

"""Dynamic half of repro.analysis: lock order and ticket lifecycle; and
the task-graph checks every run makes, with or without the checkers."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.lockorder import LockOrderRecorder, LockOrderViolation
from repro.analysis.tickets import TicketAuditor, TicketLeakError
from repro.core.dag import TaskDAG
from repro.core.engine import DOoCEngine, Program
from repro.core.errors import SchedulingError
from repro.core.interval import Interval
from repro.core.storage import LocalStore
from repro.core.task import task
from repro.datacutter.runtime import ThreadedRuntime


# -- lock-order recorder -----------------------------------------------------


def test_nested_acquisition_in_one_order_is_fine():
    rec = LockOrderRecorder()
    a = rec.wrap(threading.Lock(), "A")
    b = rec.wrap(threading.Lock(), "B")
    for _ in range(3):
        with a, b:
            pass
    assert rec.edges() == [("A", "B")]
    rec.check()  # no cycle


def test_inverted_acquisition_across_threads_names_the_cycle():
    # Thread 1 takes A then B; thread 2 takes B then A.  The interleaving
    # chosen here never deadlocks (the threads run sequentially), but the
    # ordering cycle is still recorded — exactly the bug class the checker
    # exists to catch before the unlucky schedule does.
    rec = LockOrderRecorder()
    a = rec.wrap(threading.Lock(), "instance-A.cond")
    b = rec.wrap(threading.Lock(), "instance-B.cond")

    def forward():
        with a, b:
            pass

    def backward():
        with b, a:
            pass

    for body in (forward, backward):
        t = threading.Thread(target=body)
        t.start()
        t.join()

    with pytest.raises(LockOrderViolation) as info:
        rec.check()
    message = str(info.value)
    assert "instance-A.cond" in message and "instance-B.cond" in message
    assert "held while taking" in message
    # the cycle itself is machine-readable on the exception
    assert set(info.value.cycle) == {"instance-A.cond", "instance-B.cond"}


def test_condition_wrapping_supports_wait_and_notify():
    rec = LockOrderRecorder()
    cond = rec.wrap_condition(threading.Condition(), "C")
    ready = []

    def waiter():
        with cond:
            while not ready:
                cond.wait(0.05)

    t = threading.Thread(target=waiter)
    t.start()
    with cond:
        ready.append(True)
        cond.notify_all()
    t.join(5)
    assert not t.is_alive()
    rec.check()


def test_runtime_wraps_instance_conditions_when_recorder_given():
    from repro.datacutter.filters import Filter
    from repro.datacutter.layout import Layout

    class Src(Filter):
        outputs = ("out",)

        def process(self, ctx):
            pass

    class Sink(Filter):
        inputs = ("in",)

        def process(self, ctx):
            from repro.datacutter.buffers import END_OF_STREAM

            while ctx.read("in") is not END_OF_STREAM:
                pass

    layout = Layout("wrap-test")
    layout.add_filter("src", Src)
    layout.add_filter("sink", Sink)
    layout.connect("src", "out", "sink", "in")
    rec = LockOrderRecorder()
    runtime = ThreadedRuntime(layout, lock_recorder=rec)
    names = {inst.cond.name
             for insts in runtime.instances.values() for inst in insts}
    assert names == {"src#0.cond", "sink#0.cond"}
    runtime.run(timeout=30)
    rec.check()  # single-lock protocol: the graph must stay edge-free
    assert rec.edges() == []


# -- ticket auditor ----------------------------------------------------------


def _store_with_written_block(nbytes=1 << 16):
    from repro.core.array import ArrayDesc

    store = LocalStore(0, nbytes)
    desc = ArrayDesc("x", length=8, dtype="float64", block_elems=8)
    store.create_array(desc)
    return store, desc


def test_auditor_names_leaked_ticket():
    store, desc = _store_with_written_block()
    auditor = TicketAuditor()
    store.auditor = auditor
    ticket, effects = store.request_write(Interval("x", 0, 0, 8))
    assert ticket.granted
    with pytest.raises(TicketLeakError) as info:
        auditor.assert_clean()
    message = str(info.value)
    assert f"ticket {ticket.tid}" in message
    assert "write x[0:8]" in message
    assert info.value.leaked == [ticket]


def test_auditor_clean_after_release():
    store, desc = _store_with_written_block()
    auditor = TicketAuditor()
    store.auditor = auditor
    ticket, _ = store.request_write(Interval("x", 0, 0, 8))
    ticket.data[:] = 1.0
    store.release(ticket)
    auditor.assert_clean()
    assert auditor.granted_total == auditor.released_total == 1


def test_auditor_counts_abandonment_as_release():
    store, desc = _store_with_written_block()
    auditor = TicketAuditor()
    store.auditor = auditor
    ticket, _ = store.request_write(Interval("x", 0, 0, 8))
    store.abandon_write(ticket)
    auditor.assert_clean()


# -- DAG validation: TaskDAG, on every run ----------------------------------


def test_validate_tasks_accepts_a_clean_chain():
    TaskDAG(
        [task("a", None, ["x"], ["y"]), task("b", None, ["y"], ["z"])],
        initial_arrays={"x"},
    )


def test_validate_tasks_names_the_cycle_path():
    tasks = [
        task("t1", None, ["c"], ["a"]),
        task("t2", None, ["a"], ["b"]),
        task("t3", None, ["b"], ["c"]),
    ]
    with pytest.raises(SchedulingError, match=r"t1 -> t2 -> t3 -> t1"):
        TaskDAG(tasks, initial_arrays=set())


def test_validate_tasks_names_a_self_loop():
    # TaskSpec refuses a task that reads its own output, so only a spec
    # built around it can make one; TaskDAG still names it.
    looped = SimpleNamespace(name="t", inputs=("x",), outputs=("x",))
    with pytest.raises(SchedulingError, match=r"cycle: t -> t;"):
        TaskDAG([looped], initial_arrays=set())


def test_validate_tasks_rejects_double_writer():
    tasks = [
        task("t1", None, ["x"], ["y"]),
        task("t2", None, ["x"], ["y"]),
    ]
    with pytest.raises(SchedulingError, match="write-once"):
        TaskDAG(tasks, initial_arrays={"x"})


def test_validate_tasks_rejects_read_of_never_written_array():
    with pytest.raises(SchedulingError, match="never be satisfied"):
        TaskDAG([task("t", None, ["ghost"], ["y"])], initial_arrays=set())


def test_validate_tasks_rejects_duplicate_names():
    tasks = [task("t", None, ["x"], ["y"]), task("t", None, ["x"], ["z"])]
    with pytest.raises(SchedulingError, match="duplicate task name"):
        TaskDAG(tasks, initial_arrays={"x"})


def test_taskdag_cycle_message_names_the_path():
    tasks = [task("t1", None, ["b"], ["a"]), task("t2", None, ["a"], ["b"])]
    with pytest.raises(SchedulingError, match=r"t1 -> t2 -> t1"):
        TaskDAG(tasks, initial_arrays=set())


# -- engine integration ------------------------------------------------------


def _square_program():
    p = Program("checkers-smoke")
    x = np.arange(64, dtype=np.float64)
    p.initial_array("x", x, home=0)
    p.array("y", 64)

    def square(inputs, outputs, *rest):
        outputs["y"][:] = inputs["x"] ** 2

    p.add_task("square", square, ["x"], ["y"])
    return p, x


def test_engine_run_is_green_under_checkers(protocol_checkers):
    p, x = _square_program()
    engine = DOoCEngine(n_nodes=2, workers=2)
    assert engine.protocol_checkers
    engine.run(p, timeout=60)
    assert np.allclose(engine.fetch("y"), x**2)
    for store in engine.stores.values():
        assert store.auditor is not None
        store.auditor.assert_clean()


def test_engine_validates_dag_before_threads_start():
    p = Program("cyclic")
    p.array("a", 8)
    p.array("b", 8)
    p.add_task("t1", None, ["b"], ["a"])
    p.add_task("t2", None, ["a"], ["b"])
    engine = DOoCEngine(n_nodes=1)
    with pytest.raises(SchedulingError, match=r"t1 -> t2 -> t1"):
        engine.run(p, timeout=5)
    assert engine.stores == {}  # failed before any store was built


def _malformed(defect):
    """A program with one structural ``defect``."""
    p = Program(defect)
    p.initial_array("x", np.zeros(8))
    for name in ("a", "b", "y"):
        p.array(name, 8)
    tasks = {
        "duplicate": [("t", ["x"], ["a"]), ("t", ["x"], ["b"])],
        "double_writer": [("t1", ["x"], ["a"]), ("t2", ["x"], ["a"])],
        "writes_initial": [("t", [], ["x"])],
        "unproduced_read": [("t", ["y"], ["a"])],
        "cycle": [("t1", ["b"], ["a"]), ("t2", ["a"], ["b"])],
    }[defect]
    for name, ins, outs in tasks:
        p.add_task(name, None, ins, outs)
    return p


@pytest.mark.parametrize("defect", ["duplicate", "double_writer",
                                    "writes_initial", "unproduced_read",
                                    "cycle"])
def test_a_malformed_program_fails_alike_with_or_without_checkers(defect):
    messages = []
    for checkers in (False, True):
        engine = DOoCEngine(n_nodes=1, protocol_checkers=checkers)
        with pytest.raises(SchedulingError) as info:
            engine.run(_malformed(defect), timeout=5)
        assert type(info.value) is SchedulingError
        assert engine.stores == {}
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_engine_checkers_off_by_default(monkeypatch):
    monkeypatch.delenv("DOOC_CHECKERS", raising=False)
    engine = DOoCEngine(n_nodes=1)
    assert not engine.protocol_checkers
    p, x = _square_program()
    engine.run(p, timeout=60)
    for store in engine.stores.values():
        assert store.auditor is None


def test_engine_explicit_opt_in_overrides_env(monkeypatch):
    monkeypatch.delenv("DOOC_CHECKERS", raising=False)
    engine = DOoCEngine(n_nodes=1, protocol_checkers=True)
    assert engine.protocol_checkers
    p, x = _square_program()
    engine.run(p, timeout=60)
    for store in engine.stores.values():
        store.auditor.assert_clean()

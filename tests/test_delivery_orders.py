"""Every delivery order of a small two-node run, within a bound.

The engine's filters are step functions (``Filter.on``), so one thread
can hold all of them and decide which stream delivers next.
:class:`OneThreadRuntime` does that for the two-node
``two_node_program`` run of ``tests/test_session.py``: one FIFO per
stream, and by default the buffer written first is delivered first.  A
schedule deviates from that order at chosen steps, at most twice:

* ``postpone`` holds the buffer due next back until nothing else can be
  delivered (a slow stream);
* ``kill`` makes node 1 die there: its local scheduler falls silent and,
  once its in-flight task is done, tells its storage to die;
* ``declare`` has the failure detector declare node 1 dead there (by
  default it does so once nothing else can happen).

After each schedule the run's output is bit-identical, or its error is a
named one, and the ticket audit is clean; a failure prints the schedule
and the delivery order that broke it.  The out-of-core variant runs
``ooc_program`` instead: node 0's prefetches find no headroom there, so
the store's ``declined`` and ``dropped`` notes decide what it does.  Run
the file alone with
``PYTHONPATH=src python -m pytest tests/test_delivery_orders.py``.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.core import DOoCEngine, Program
from repro.core.errors import NodeLostError
from repro.datacutter import END_OF_STREAM, ThreadedRuntime
from repro.datacutter.filters import FilterContext
from repro.recovery import MembershipConfig
from repro.spmv.csrfile import serialize_csr
from repro.spmv.program import build_iterated_spmv
from tests.test_session import TOTAL, scale_fn, two_node_program
from tests.test_spmv_engine import make_problem

#: thresholds never reached: the runtime below declares node 1 dead itself
MEMBERSHIP = MembershipConfig(heartbeat_s=60.0, suspect_after_s=120.0,
                              dead_after_s=180.0)


#: room for three 512-byte blocks a node: ``ooc_program``'s third input
#: is declined, and its task is forced once a drop re-arms it in vain
OOC_BUDGET = 3 * 512


def ooc_program(name, n=64):
    """``d_i = 2 c_i`` for three inputs, all on node 0."""
    prog = Program(name, default_block_elems=n)
    for i in range(3):
        prog.initial_array(f"c{i}", np.arange(n, dtype=float) + i, home=0)
        prog.array(f"d{i}", n)
        prog.add_task(f"scale{i}", scale_fn, [f"c{i}"], [f"d{i}"],
                      src=f"c{i}", out=f"d{i}")
    return prog


OOC_WANT = {f"d{i}": 2.0 * (np.arange(64, dtype=float) + i) for i in range(3)}


class RecordingContext(FilterContext):
    """The tests' one fake :class:`FilterContext`.

    What a filter writes is recorded in ``writes`` as ``(port,
    payload)``; under :class:`OneThreadRuntime` it also goes down the
    stream (``inst`` is the instance's runtime, ``on_write`` sees each
    buffer first).  A read fails: a step filter is handed its buffers.
    """

    def __init__(self, inst=None, on_write=None):
        super().__init__(inst)
        self.on_write = on_write
        self.writes: list[tuple[str, object]] = []

    @property
    def instance(self) -> int:
        return 0 if self._rt is None else self._rt.instance

    def write(self, port, buffer) -> None:
        self.writes.append((port, buffer.payload))
        if self._rt is not None:
            self.on_write(buffer)
            self._rt.write(port, buffer)

    def read_any(self, ports, timeout=None):
        raise AssertionError(f"a step filter read {list(ports)}: its "
                             "buffers are handed to on()")

    def read(self, port, timeout=None):
        return self.read_any([port], timeout)

    def close(self, port) -> None:
        if self._rt is not None:
            self._rt.close_output(port)

    def end_run(self) -> None:
        if self._rt is not None:
            super().end_run()


class DeliveryStall(AssertionError):
    """Nothing can be delivered, and the run has not ended."""


def describe(payload) -> str:
    """A message in a few words: its op, and what it is about."""
    if not isinstance(payload, dict):
        return repr(payload)
    about = [str(payload[k]) for k in ("node", "array", "block")
             if k in payload]
    if "task" in payload:
        task = payload["task"]
        about.insert(0, getattr(task, "name", task))
    if payload.get("op") == "tasks":
        about.append(",".join(t.name for t in payload["tasks"]))
    if payload.get("op") == "release":
        about.append(f"{len(payload['tickets'])} tickets")
    return " ".join([str(payload.get("op"))] + about)


class OneThreadRuntime(ThreadedRuntime):
    """:class:`ThreadedRuntime`'s surface, with every filter on the
    calling thread.  ``wait_run`` delivers one buffer at a time, in the
    order ``schedule`` (``{step: {"postpone", "kill", "declare"}}``) makes
    of the default, written-first order; ``order`` records what it did."""

    def __init__(self, layout, *, lock_recorder=None, schedule=None):
        super().__init__(layout, lock_recorder=lock_recorder)
        self.schedule = schedule or {}
        self.order: list[str] = []
        self._seq = itertools.count()
        self._written: dict[int, tuple[int, object]] = {}
        self._postponed: set[int] = set()
        self._finished: set[int] = set()
        self.killed = self.declared = False
        self._insts = [inst for insts in self.instances.values()
                       for inst in insts]
        self._ctx = {id(inst): RecordingContext(inst, self._sent)
                     for inst in self._insts}

    def _sent(self, buffer) -> None:
        # the buffer itself is kept, so its id is not reused
        self._written.setdefault(id(buffer), (next(self._seq), buffer))

    def post(self, name, port, buffer) -> None:
        self._sent(buffer)
        super().post(name, port, buffer)

    def start(self) -> None:
        self._run_open = True
        for inst in self._insts:
            self._call(inst, inst.filter.init)

    def _call(self, inst, step) -> None:
        """Run one step of ``inst``'s filter as its thread would: an
        exception fails the graph; True ends the instance."""
        ctx = self._ctx[id(inst)]
        try:
            finished = step(ctx)
        except BaseException as exc:
            raise self._fail(inst, exc) from exc
        if finished:
            self._finished.add(id(inst))
            inst.filter.finalize(ctx)
            inst.close_all_outputs()

    def _heads(self):
        """(seq, instance, channel) of every FIFO head a filter listens
        to, written first first; and the filters whose listened ports
        have all drained."""
        heads, drained = [], []
        for inst in self._insts:
            if id(inst) in self._finished:
                continue
            channels = [ch for port in inst.filter.listening()
                        for ch in inst.in_channels.get(port, [])]
            heads += [(self._written[id(ch.items[0])][0], inst, ch)
                      for ch in channels if ch.items]
            if all(ch.at_eos for ch in channels):
                drained.append(inst)
        heads.sort(key=lambda head: head[0])
        return heads, drained

    def _deliver(self, inst, channel) -> None:
        buf = channel.items.popleft()
        port = channel.stream.dst_port
        self.order.append(f"{channel.stream.name}: {describe(buf.payload)}")
        self._call(inst, lambda ctx: inst.filter.on(ctx, port, buf))

    def _kill(self) -> None:
        """Node 1 dies here: silent from now on, and gone once its
        in-flight task is done."""
        self.killed = True
        self.order.append("node 1 dies")
        inst = self.instances["lsched@1"][0]
        lsched = inst.filter
        if id(inst) in self._finished or lsched._dead:
            return
        lsched._kill_after = lsched._completions
        if not lsched._inflight:
            self._call(inst, lsched._die)

    def _may_declare(self) -> bool:
        """Node 1 is dead and undeclared, and a run is open: the detector
        is armed only then."""
        return (self.killed and not self.declared
                and self.instances["gsched"][0].filter._open)

    def _declare(self) -> None:
        """The failure detector declares node 1 dead: node 0 beat just
        now, node 1 has been silent past every threshold."""
        self.declared = True
        self.order.append("the detector declares node 1 dead")
        inst = self.instances["gsched"][0]
        gsched = inst.filter
        now = time.monotonic() + 10 * MEMBERSHIP.dead_after_s
        gsched.membership.beat(0, now)

        def check(ctx):
            gsched._check_membership(ctx, now)
            return gsched._advance(ctx)

        self._call(inst, check)

    def _step(self) -> None:
        events = self.schedule.get(len(self.order), ())
        if "kill" in events and not self.killed:
            self._kill()
        if "declare" in events and self._may_declare():
            self._declare()
        heads, drained = self._heads()
        fresh = [h for h in heads if id(h[2].items[0]) not in self._postponed]
        if "postpone" in events and fresh:
            self._postponed.add(id(fresh.pop(0)[2].items[0]))
            self.order.append("(postponed the next one)")
        if fresh:
            self._deliver(*fresh[0][1:])
        elif drained:
            inst = drained[0]
            self.order.append(f"{inst.spec.name}#{inst.instance}: "
                              "end of stream")
            self._call(inst, lambda ctx: inst.filter.on(
                ctx, None, END_OF_STREAM))
        elif heads:
            self._postponed.clear()  # nothing else can move: let them go
            self._deliver(*heads[0][1:])
        elif self._may_declare():
            self._declare()
        else:
            raise DeliveryStall("no stream can deliver, and the run has "
                                "not ended")

    def wait_run(self, deadline=None, *, wake=None) -> bool:
        while self._run_open and len(self._finished) < len(self._insts):
            self._step()
        return True


def run_schedule(scratch, schedule, *, death, ooc=False):
    """One run of the two-node program (``ooc``: of ``ooc_program`` in
    ``OOC_BUDGET``) under ``schedule``; returns the runtime, and the
    error it raised (None: the output was checked)."""
    graphs = []
    program, want = ((ooc_program("orders"), OOC_WANT) if ooc else
                     (two_node_program("orders"), {"total": TOTAL}))

    def runtime(*args, **kwargs):
        graphs.append(OneThreadRuntime(*args, schedule=schedule, **kwargs))
        return graphs[-1]

    eng = DOoCEngine(n_nodes=2, workers=1, scratch_dir=scratch,
                     watchdog_quiet_s=None,
                     membership=MEMBERSHIP if death else None,
                     **({"memory_budget_per_node": OOC_BUDGET} if ooc else {}))
    error = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "ThreadedRuntime", runtime)
        try:
            try:
                eng.run(program, timeout=60)
                for name, value in want.items():
                    assert np.array_equal(eng.fetch(name), value), \
                        f"wrong {name}"
            except NodeLostError as exc:  # named: which node, what it held
                error = exc
            for store in eng.stores.values():
                store.auditor.assert_clean()
        except Exception as exc:  # noqa: BLE001 - reported with the order
            error = exc
        finally:
            eng.cleanup()
    return graphs[0], error


def explore(scratch, first, second, *, death, window, ooc=False):
    """The default order; each schedule of one deviation of a kind in
    ``first``, at any step; and each of those with one of a kind in
    ``second`` added at most ``window`` steps later.  Yields (schedule,
    runtime, error)."""
    graph, error = run_schedule(scratch, {}, death=death, ooc=ooc)
    yield {}, graph, error
    for i, kind in itertools.product(range(len(graph.order)), first):
        graph, error = run_schedule(scratch, {i: {kind}}, death=death, ooc=ooc)
        yield {i: {kind}}, graph, error
        later = range(i + 1, min(i + 1 + window, len(graph.order)))
        for j, other in itertools.product(later, second):
            schedule = {i: {kind}, j: {other}}
            yield (schedule,
                   *run_schedule(scratch, schedule, death=death, ooc=ooc))


def failures(runs):
    """Each failed schedule, with the delivery order that broke it."""
    for schedule, graph, error in runs:
        if error is None or (isinstance(error, NodeLostError)
                             and error.node == 1):
            continue
        order = "\n".join(f"  {n:3d}  {line}"
                          for n, line in enumerate(graph.order))
        yield (f"schedule {schedule}: {type(error).__name__}: "
               f"{str(error)[:300]}\n{order}")


class TestDeliveryOrders:
    def test_every_order_with_two_slow_streams(self, tmp_path,
                                               protocol_checkers):
        """No death: each buffer of the run in turn is delivered last, and
        so is one more of the few written after it."""
        runs = list(explore(tmp_path, ["postpone"], ["postpone"],
                            death=False, window=6))
        assert len(runs) > 300
        bad = list(failures(runs))
        assert not bad, "\n\n".join(bad[:1])

    def test_every_death_of_node_1(self, tmp_path, protocol_checkers):
        """Node 1 dies at each step of the run; then, at one of the few
        steps that follow, one more buffer is held back or the detector
        declares the death."""
        runs = list(explore(tmp_path, ["kill"], ["postpone", "declare"],
                            death=True, window=6))
        assert len(runs) > 600
        bad = list(failures(runs))
        assert not bad, "\n\n".join(bad[:1])

    def test_every_order_out_of_core(self, tmp_path, protocol_checkers):
        """No death, and node 0 short of memory: prefetches are declined
        and re-armed by drops, a task is forced, an output spilled.  Each
        buffer in turn is delivered last, and so is one more of the few
        written after it."""
        runs = list(explore(tmp_path, ["postpone"], ["postpone"],
                            death=False, window=6, ooc=True))
        bad = list(failures(runs))
        assert not bad, "\n\n".join(bad[:1])
        assert len(runs) > 300


def one_thread_spmv(scratch) -> dict:
    """Three interleaved SpMV iterations on one node, a quarter of A in
    memory, run by :class:`OneThreadRuntime` in its default order: the
    delivery order, and the node's load and spill counts."""
    _, p, blocks, x0 = make_problem(n=768, k=3, density_per_row=192)
    result = build_iterated_spmv(blocks, p.split_vector(x0), iterations=3,
                                 n_nodes=1, policy="interleaved")
    budget = sum(len(serialize_csr(b)) for b in blocks.values()) // 4
    graphs = []

    def runtime(*args, **kwargs):
        graphs.append(OneThreadRuntime(*args, **kwargs))
        return graphs[-1]

    eng = DOoCEngine(n_nodes=1, workers=1, scratch_dir=scratch,
                     memory_budget_per_node=budget, watchdog_quiet_s=None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "ThreadedRuntime", runtime)
        try:
            metrics = eng.run(result.program, timeout=60).metrics[0]
        finally:
            eng.cleanup()
    return {"order": graphs[0].order, "loads": metrics.get("loads", 0),
            "spills": metrics.get("spills", 0)}


class TestOrderIsNotAFunctionOfTheHashSeed:
    def test_one_order_for_every_hash_seed(self, tmp_path):
        """What becomes ready, and in which order, follows the program's
        declarations, never ``PYTHONHASHSEED``: four interpreters with
        four hash seeds deliver the same buffers in the same order, and
        load and spill alike."""
        root = Path(__file__).resolve().parent.parent
        script = ("import json, sys; from tests.test_delivery_orders import "
                  "one_thread_spmv; print(json.dumps(one_thread_spmv(sys.argv[1])))")
        runs = []
        for seed in range(4):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / str(seed))],
                cwd=root, capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONHASHSEED": str(seed),
                     "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                    str(root)])})
            assert proc.returncode == 0, proc.stderr[-2000:]
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        assert runs[0]["loads"] > 0
        for seed, run in enumerate(runs[1:], 1):
            assert (run["loads"], run["spills"]) == (runs[0]["loads"],
                                                     runs[0]["spills"]), seed
            first = next((i for i, (a, b) in enumerate(zip(
                run["order"], runs[0]["order"])) if a != b), None)
            assert run["order"] == runs[0]["order"], (
                f"hash seed {seed} parts from seed 0 at delivery {first}")

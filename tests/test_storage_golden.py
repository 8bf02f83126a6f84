"""The store's decisions, pinned across its rewrite as a transition table.

``run_script(seed)`` drives a ``LocalStore`` through a seeded script of
calls (whole and partial writes, reads, prefetches, releases, abandons,
``mark_on_disk``, deletes, ``retain`` and rehomes) with a synchronous FIFO
driver that completes or fails the oldest load, spill or remote fetch when
the script says so.  Each step logs what the store answered: every
effect's kind, array, block and ticket id, or the class of the error it
raised, then ``in_use`` and the allocation-queue depth.  The run ends with
the metric counters.  ``tests/data/storage_golden.json`` was recorded at
the commit before the table and must be reproduced exactly.  A spill that
fails is the one transition left out: that cell changed on purpose
(``test_fault_tolerance.py::TestPermanentIOFaults`` and
``test_core_storage.py::TestFailedSpill``).

Regenerate only for a deliberate change of a decision, with the reason in
CHANGES.md: ``PYTHONPATH=src python tests/test_storage_golden.py``.
"""

from __future__ import annotations

import json
import random
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from repro.core.array import ArrayDesc
from repro.core.errors import StorageError
from repro.core.interval import Interval
from repro.core.storage import Effect, LocalStore

GOLDEN = Path(__file__).parent / "data" / "storage_golden.json"
SEEDS = (1, 2, 3, 4)
STEPS = 300
BLOCK = 10
#: name -> (length, how it is registered at the start)
ARRAYS = {"w0": (40, "local"), "w1": (25, "local"), "d0": (30, "disk"),
          "d1": (20, "disk"), "r0": (20, "remote")}
BUDGET = 4 * BLOCK * 8  # four full blocks of 14: reclaim, spill and queue
OPS = {"write": 6, "read": 5, "prefetch": 2, "release": 6, "abandon": 1,
       "io": 7, "fail": 1, "stale": 1, "mark": 1, "delete": 0.5,
       "retain": 0.5, "rehome": 1}


class Driver:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.store = LocalStore(0, BUDGET)
        self.descs = {name: ArrayDesc(name, length, block_elems=BLOCK)
                      for name, (length, _) in ARRAYS.items()}
        self.kind = {name: kind for name, (_, kind) in ARRAYS.items()}
        #: load / spill / fetch_remote effects not yet answered, oldest first
        self.pending: deque[Effect] = deque()
        #: tid -> ticket requested and not yet released, abandoned or denied
        self.open: dict = {}
        for name in self.descs:
            self._register(name)

    def _register(self, name: str) -> None:
        register = {"local": self.store.create_array,
                    "disk": self.store.register_on_disk,
                    "remote": self.store.register_remote}[self.kind[name]]
        register(self.descs[name])

    def _absorb(self, effects: list[Effect]) -> list[str]:
        out = []
        for e in effects:
            tid = f" #{e.ticket.tid}" if e.ticket is not None else ""
            out.append(f"{e.kind} {e.array}[{e.block}]{tid}")
            if e.kind in ("load", "spill", "fetch_remote"):
                self.pending.append(e)
            elif e.kind == "grant_write":
                e.ticket.data[:] = e.ticket.tid
            elif e.kind == "deny":
                del self.open[e.ticket.tid]
        return out

    def _forget(self, name: str) -> None:
        """The store forgot ``name``: so does the driver, and the array
        is registered again the way it was."""
        self.pending = deque(e for e in self.pending if e.array != name)
        self.open = {tid: t for tid, t in self.open.items()
                     if t.interval.array != name}
        self._register(name)

    def _busy(self, name: str) -> bool:
        return (any(t.interval.array == name for t in self.open.values())
                or any(e.array == name for e in self.pending))

    def _interval(self) -> Interval:
        name = self.rng.choice(sorted(self.descs))
        desc = self.descs[name]
        block = self.rng.randrange(desc.n_blocks)
        lo, hi = desc.block_bounds(block)
        if self.rng.random() < 0.5:  # a piece; pieces meet at a third
            cut = lo + (hi - lo) // 3 * self.rng.randrange(1, 3)
            lo, hi = self.rng.choice([(lo, cut), (cut, hi)])
        return Interval(name, block, lo, hi)

    # -- the script's operations: each returns (what, call) --------------------

    def op_write(self):
        iv = self._interval()
        return f"write {iv.array}[{iv.block}] {iv.lo}:{iv.hi}", \
            lambda: self._request(self.store.request_write, iv)

    def op_read(self):
        iv = self._interval()
        return f"read {iv.array}[{iv.block}] {iv.lo}:{iv.hi}", \
            lambda: self._request(self.store.request_read, iv)

    def _request(self, request, iv):
        ticket, effects = request(iv)
        self.open[ticket.tid] = ticket
        return effects

    def op_prefetch(self):
        iv = self._interval()
        lo, hi = self.descs[iv.array].block_bounds(iv.block)
        return f"prefetch {iv.array}[{iv.block}]", \
            lambda: self.store.prefetch(Interval(iv.array, iv.block, lo, hi))

    def _granted(self, write_only: bool = False):
        held = [t for tid, t in sorted(self.open.items()) if t.granted
                and (not write_only or t.permission.name == "WRITE")]
        if not held:
            return None
        ticket = self.rng.choice(held)
        del self.open[ticket.tid]
        return ticket

    def op_release(self):
        ticket = self._granted()
        if ticket is None:
            return "release -", list
        return f"release #{ticket.tid}", lambda: self.store.release(ticket)

    def op_abandon(self):
        ticket = self._granted(write_only=True)
        if ticket is None:
            return "abandon -", list
        return f"abandon #{ticket.tid}", lambda: self.store.abandon_write(ticket)

    def op_io(self, fail: bool = False):
        if not self.pending:
            return "io -", list
        e = self.pending.popleft()
        data = np.full(self.descs[e.array].block_length(e.block), e.block,
                       dtype=np.float64)
        what = f"{'fail' if fail else 'done'} {e.kind} {e.array}[{e.block}]"
        if e.kind == "spill":  # a failed spill is not in the script
            return what, lambda: self.store.on_spilled(e.array, e.block)
        if e.kind == "load":
            if fail:
                return what, lambda: self.store.on_load_failed(
                    e.array, e.block, "injected")
            return what, lambda: self.store.on_loaded(e.array, e.block, data)
        if fail:
            return what, lambda: self.store.on_fetch_failed(
                e.array, e.block, "injected")
        return what, lambda: self.store.on_remote_data(e.array, e.block, data)

    def op_fail(self):
        return self.op_io(fail=True)

    def op_stale(self):
        """A fetch answer for a block no fetch is waiting on: the storage
        filter retransmits, so replies and failure notices can repeat."""
        iv = self._interval()
        if any((e.array, e.block) == (iv.array, iv.block)
               for e in self.pending):
            return "stale -", list
        if self.rng.random() < 0.5:
            data = np.zeros(self.descs[iv.array].block_length(iv.block))
            return f"stale data {iv.array}[{iv.block}]", \
                lambda: self.store.on_remote_data(iv.array, iv.block, data)
        return f"stale failure {iv.array}[{iv.block}]", \
            lambda: self.store.on_fetch_failed(iv.array, iv.block, "late")

    def op_mark(self):
        name = self.rng.choice(sorted(self.descs))

        def call():
            self.store.mark_on_disk(name)
            return []
        return f"mark {name}", call

    def op_delete(self):
        name = self.rng.choice(sorted(self.descs))

        def call():
            effects = self.store.delete_array(name)
            self._forget(name)
            return effects
        return f"delete {name}", call

    def op_retain(self):
        keep = {n for n in sorted(self.descs) if self.rng.random() < 0.6}

        def call():
            effects = self.store.retain(keep)
            for name in sorted(self.descs):
                if not self.store.has_array(name):
                    self._forget(name)
            return effects
        return f"retain {','.join(sorted(keep))}", call

    def op_rehome(self):
        """Rehome an array nothing holds (a busy rehome is parked by the
        storage filter, not attempted)."""
        name = self.rng.choice(["d0", "d1", "r0", "w1"])
        if self._busy(name):
            return f"rehome {name} busy", list
        desc = self.descs[name]
        if self.kind[name] == "remote" and self.rng.random() < 0.25:
            return f"recover_remote {name} (remote)", \
                lambda: self.store.recover_remote(desc)
        if self.kind[name] == "remote":
            on_disk = self.rng.random() < 0.5
            self.kind[name] = "disk" if on_disk else "local"
            return f"rehome_local {name} on_disk={on_disk}", \
                lambda: self.store.rehome_local(desc, on_disk=on_disk)
        self.kind[name] = "remote"
        if self.rng.random() < 0.5:
            return f"rehome_remote {name}", \
                lambda: self.store.rehome_remote(name)
        return f"recover_remote {name}", \
            lambda: self.store.recover_remote(desc)

    def step(self) -> str:
        op = self.rng.choices(list(OPS), weights=list(OPS.values()))[0]
        what, call = getattr(self, f"op_{op}")()
        try:
            answer = self._absorb(call())
        except StorageError as exc:
            answer = [f"!{type(exc).__name__}"]
        loading = ",".join(sorted(self.store.loading_arrays()))
        return (f"{what} -> {' '.join(answer)} | in_use={self.store.in_use}"
                f" queue={self.store.alloc_queue_depth} loading={loading}")


def run_script(seed: int) -> dict:
    driver = Driver(seed)
    log = [driver.step() for _ in range(STEPS)]
    return {"log": log, "metrics": driver.store.metrics.as_dict()}


def record() -> dict:
    return {str(seed): run_script(seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_the_store_reproduces_the_golden_effect_log(seed):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[str(seed)]
    got = run_script(seed)
    for i, (w, g) in enumerate(zip(want["log"], got["log"])):
        assert g == w, f"seed {seed}, step {i}: the decision changed"
    assert got == want


def test_the_script_reaches_every_kind_of_answer():
    """The log is worth pinning only if the script exercises the store:
    every effect kind and the refusals appear."""
    text = "\n".join(line for entry in json.loads(
        GOLDEN.read_text(encoding="utf-8")).values() for line in entry["log"])
    for answer in ("load ", "spill ", "drop ", "fetch_remote ", "grant_read ",
                   "grant_write ", "deny ", "!ImmutabilityError",
                   "!StorageError", "done spill", "fail load", "fail fetch",
                   "stale data", "stale failure", "rehome_local",
                   "rehome_remote", "recover_remote", "retain", "mark",
                   "abandon #", "delete"):
        assert answer in text, answer


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")

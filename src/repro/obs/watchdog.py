"""Deadlock/stall watchdog.

``DOoCEngine.run(timeout=...)`` used to die with a bare ``TimeoutError``
when a run wedged — no indication of *what* was stuck.  The watchdog
reads the tracer's heartbeat (every traced event updates
``Tracer.last_activity``, even with recording disabled); when no event has
landed for a configurable quiet period mid-run it assembles a
:class:`Diagnosis` from the live runtime state: blocked read waiters,
outstanding write tickets, queued allocations and memory pressure per
store, plus each node's scheduler ready pool.  The diagnosis is delivered
to a callback (the engine logs it and attaches it to the eventual timeout
error) rather than raising — a stall may still resolve.

It owns no thread and no clock: whoever waits for the run asks it for
:meth:`StallWatchdog.next_deadline`, waits until then (or until the run
ends), and calls :meth:`StallWatchdog.check`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.obs.tracer import Tracer

__all__ = ["Diagnosis", "StallWatchdog"]


@dataclass
class Diagnosis:
    """Snapshot of why a run appears stuck."""

    at: float                 # tracer time of the diagnosis
    quiet_s: float            # silence that triggered it
    nodes: list[dict] = field(default_factory=list)
    #: node -> {"state": alive|suspect|dead, "silent_s": ...} from the
    #: failure detector, when membership tracking is on
    membership: dict[int, dict] | None = None

    @property
    def blocked_tickets(self) -> list[int]:
        """Ticket ids of every blocked read waiter, across nodes."""
        return [
            w["ticket"]
            for node in self.nodes
            for w in node.get("blocked_reads", [])
        ]

    def render(self) -> str:
        lines = [
            f"stall watchdog: no runtime event for {self.quiet_s:.2f}s "
            f"(t={self.at:.2f}s); per-node state:"
        ]
        if self.membership:
            # Lead with liveness: a DEAD node reframes every blocked-ticket
            # line below as "waiting on a corpse", not as a protocol bug.
            gone = {n: m for n, m in self.membership.items()
                    if m.get("state") != "alive"}
            for n, m in sorted(gone.items()):
                state = str(m.get("state", "?")).upper()
                lines.append(
                    f"  node {n} membership: {state} "
                    f"(silent {m.get('silent_s', '?')}s)"
                )
            if not gone:
                lines.append(
                    "  membership: all nodes heartbeating (stall is not a "
                    "node loss)"
                )
        for node in self.nodes:
            n = node.get("node", "?")
            lines.append(
                f"  node {n}: memory {node.get('in_use', '?')}/"
                f"{node.get('budget', '?')} bytes"
            )
            reads = node.get("blocked_reads", [])
            if reads:
                lines.append(f"    blocked read waiters ({len(reads)}):")
                for w in reads:
                    lines.append(
                        f"      ticket {w['ticket']} awaiting "
                        f"{w['array']}[{w['block']}] "
                        f"[{w['lo']}, {w['hi']}) — {w['why']}"
                    )
            writes = node.get("write_tickets", [])
            if writes:
                lines.append(f"    outstanding write tickets ({len(writes)}):")
                for w in writes:
                    state = "granted" if w["granted"] else "awaiting grant"
                    lines.append(
                        f"      ticket {w['ticket']} on "
                        f"{w['array']}[{w['block']}] ({state})"
                    )
            queue = node.get("alloc_queue", [])
            if queue:
                total = sum(q["bytes"] for q in queue)
                lines.append(
                    f"    queued allocations: {len(queue)} "
                    f"({total} bytes waiting for headroom)"
                )
            ready = node.get("ready_tasks", [])
            if ready:
                lines.append(
                    f"    scheduler ready pool ({len(ready)}): "
                    + ", ".join(ready[:8])
                    + (" ..." if len(ready) > 8 else "")
                )
            if node.get("inflight") is not None:
                lines.append(
                    f"    tasks in flight: {node['inflight']}, "
                    f"idle workers: {node.get('idle_workers', '?')}"
                )
            if node.get("loading"):
                lines.append("    scheduler waits for loads of: "
                             + ", ".join(node["loading"][:8]))
            if node.get("syncing"):
                lines.append("    scheduler waits for the global scheduler's "
                             "sync reply")
            recovery = node.get("recovery")
            if recovery:
                lines.append(
                    "    recovery activity (node is retrying, not dead): "
                    + ", ".join(f"{k}={v}" for k, v in sorted(recovery.items()))
                )
        if len(lines) == 1:
            lines.append("  (no per-node state registered)")
        return "\n".join(lines)


class StallWatchdog:
    """Turns silence into a diagnosis, when asked.

    ``watch_store``/``watch_scheduler`` register best-effort snapshot
    sources: the runtime mutates them concurrently, so snapshot failures
    are tolerated (a torn read beats a silent timeout).  Times are on the
    tracer's clock.
    """

    def __init__(self, tracer: Tracer, *, quiet_s: float = 10.0,
                 on_stall: Callable[[Diagnosis], None] | None = None,
                 log: bool = True):
        if quiet_s <= 0:
            raise ValueError("quiet_s must be positive")
        self.tracer = tracer
        self.quiet_s = quiet_s
        self.on_stall = on_stall
        self.log = log
        self.last_diagnosis: Diagnosis | None = None
        self._stores: dict[int, object] = {}
        self._schedulers: dict[int, Callable[[], dict]] = {}
        self._membership: Callable[[], dict] | None = None
        #: the ``last_activity`` already diagnosed: one report per stall
        self._reported_at: float | None = None

    # -- registration ---------------------------------------------------------

    def watch_store(self, node: int, store: object) -> None:
        """Register a store exposing ``debug_snapshot() -> dict``."""
        self._stores[node] = store

    def watch_scheduler(self, node: int,
                        snapshot: Callable[[], dict]) -> None:
        """Register a per-node scheduler snapshot callable."""
        self._schedulers[node] = snapshot

    def watch_membership(self, snapshot: Callable[[], dict]) -> None:
        """Register the failure detector's per-node liveness snapshot.

        With this registered, a diagnosis separates "node 1 is DEAD, the
        cluster is reconstructing its blocks" from retry churn on a node
        that is slow but still heartbeating.
        """
        self._membership = snapshot

    # -- diagnosis ------------------------------------------------------------

    def diagnose(self) -> Diagnosis:
        """Assemble a diagnosis from the registered sources right now."""
        diag = Diagnosis(at=self.tracer.now(), quiet_s=self.quiet_s)
        if self._membership is not None:
            try:
                diag.membership = dict(self._membership())
            except Exception as exc:  # noqa: BLE001 - concurrent mutation
                diag.membership = {-1: {"state": f"error: {exc!r}"}}
        for node in sorted(set(self._stores) | set(self._schedulers)):
            entry: dict = {"node": node}
            store = self._stores.get(node)
            if store is not None:
                try:
                    entry.update(store.debug_snapshot())  # type: ignore[attr-defined]
                except Exception as exc:  # noqa: BLE001 - concurrent mutation
                    entry["store_error"] = repr(exc)
            snapshot = self._schedulers.get(node)
            if snapshot is not None:
                try:
                    entry.update(snapshot())
                except Exception as exc:  # noqa: BLE001
                    entry["scheduler_error"] = repr(exc)
            diag.nodes.append(entry)
        self.last_diagnosis = diag
        return diag

    # -- what the waiter calls -----------------------------------------------

    def next_deadline(self) -> float:
        """The earliest time :meth:`check` could find a stall not yet
        reported: ``quiet_s`` after the last event, or — that silence
        being reported already — ``quiet_s`` from now."""
        last = self.tracer.last_activity
        if last != self._reported_at:
            return last + self.quiet_s
        return self.tracer.now() + self.quiet_s

    def check(self, now: float) -> Diagnosis | None:
        """Diagnose, log and report the stall ``now`` falls in, once."""
        last = self.tracer.last_activity
        if now - last < self.quiet_s or last == self._reported_at:
            return None
        self._reported_at = last
        diag = self.diagnose()
        if self.log:
            print(diag.render(), file=sys.stderr)
        if self.on_stall is not None:
            try:
                self.on_stall(diag)
            except Exception:  # noqa: BLE001 - a callback must not end the wait
                pass
        return diag

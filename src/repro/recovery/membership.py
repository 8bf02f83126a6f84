"""Heartbeat-driven membership: the alive → suspect → dead state machine.

Each local scheduler piggybacks a periodic ``{"op": "heartbeat"}`` message
on its existing control stream to the global scheduler, which feeds the
beats into a :class:`MembershipTracker`.  A node that misses beats long
enough is *quarantined* as a suspect; one that stays silent past the dead
threshold is *declared dead* and evicted cluster-wide.

The crucial distinction from the stall watchdog: a node that is merely
*slow* — churning through I/O retries, re-executing a crashed task — keeps
heartbeating, because the beacon comes from the scheduler loop, not from
task progress.  Only genuine silence (a dead filter stack) escalates, so
retry churn is never misdiagnosed as death and a corpse is never
misdiagnosed as retry churn.

The tracker is pure state + explicit clocks (``now`` is always passed in),
so the escalation logic is unit-testable without threads or sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ALIVE", "SUSPECT", "DEAD", "MembershipConfig",
           "MembershipTracker"]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


@dataclass(frozen=True)
class MembershipConfig:
    """Failure-detector tuning knobs (see docs/RECOVERY.md).

    ``heartbeat_s`` is the beacon period; ``suspect_after_s`` /
    ``dead_after_s`` are silence thresholds.  The defaults tolerate a few
    missed beats before quarantine and several more before eviction —
    tighten for tests, loosen for heavily oversubscribed hosts.
    """

    heartbeat_s: float = 0.05
    suspect_after_s: float = 0.4
    dead_after_s: float = 1.2

    def __post_init__(self) -> None:
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if not self.heartbeat_s < self.suspect_after_s < self.dead_after_s:
            raise ValueError(
                "thresholds must satisfy "
                "heartbeat_s < suspect_after_s < dead_after_s")


class MembershipTracker:
    """Tracks per-node liveness from timestamped heartbeats.

    Drive it with :meth:`beat` (a heartbeat arrived) and :meth:`check`
    (time passed; returns newly fired transitions); :meth:`next_deadline`
    says when the next ``check`` can fire anything.  ``DEAD`` is
    absorbing: a zombie's late beat is ignored, because eviction and
    re-homing have already been broadcast in its name.
    """

    def __init__(self, nodes: int, config: MembershipConfig | None = None):
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        self.config = config or MembershipConfig()
        self._state: dict[int, str] = {n: ALIVE for n in range(nodes)}
        self._last_beat: dict[int, float] | None = None  # set on first event
        #: nodes owing no beat until their next one (see :meth:`quiet`)
        self._quiet: set[int] = set()

    def _beats(self, now: float) -> dict[int, float]:
        """Last beat per node; the clock starts at the first event."""
        if self._last_beat is None:
            self._last_beat = {n: now for n in self._state}
        return self._last_beat

    def beat(self, node: int, now: float) -> str | None:
        """Record a heartbeat; returns ``"alive"`` if a suspect recovered."""
        if node not in self._state:
            raise ValueError(f"unknown node {node}")
        beats = self._beats(now)
        if self._state[node] == DEAD:
            return None  # too late: the cluster already moved on
        beats[node] = now
        self._quiet.discard(node)
        if self._state[node] == SUSPECT:
            self._state[node] = ALIVE
            return ALIVE
        return None

    def quiet(self, node: int) -> None:
        """``node`` has said all it will say for now (it answered the end
        of a run): its silence escalates nothing until it beats again."""
        self._quiet.add(node)

    def _due(self, node: int, beats: dict[int, float]) -> float | None:
        """When ``node``'s next transition fires (None: it is dead, or
        quiet)."""
        if node in self._quiet:
            return None
        after = {ALIVE: self.config.suspect_after_s,
                 SUSPECT: self.config.dead_after_s}.get(self._state[node])
        return None if after is None else beats[node] + after

    def check(self, now: float) -> list[tuple[int, str]]:
        """Escalate silent nodes; returns ``[(node, new_state), ...]``.

        A node silent past ``dead_after_s`` yields both transitions in
        order (suspect, then dead) if the suspect phase was never observed
        by a check.
        """
        beats = self._beats(now)
        transitions: list[tuple[int, str]] = []
        for node in sorted(self._state):
            while (due := self._due(node, beats)) is not None and now >= due:
                self._state[node] = (SUSPECT if self._state[node] == ALIVE
                                     else DEAD)
                transitions.append((node, self._state[node]))
        return transitions

    def next_deadline(self) -> float | None:
        """The earliest time at which :meth:`check` fires a transition;
        None if none can (every node is dead, or nothing was seen yet)."""
        beats = self._last_beat or {}
        return min((d for n in beats if (d := self._due(n, beats)) is not None),
                   default=None)

    # -- introspection ------------------------------------------------------

    def state(self, node: int) -> str:
        return self._state[node]

    def dead_nodes(self) -> list[int]:
        return sorted(n for n, s in self._state.items() if s == DEAD)

    def quarantined(self) -> list[int]:
        """Nodes currently under suspicion or declared dead."""
        return sorted(n for n, s in self._state.items() if s != ALIVE)

    def snapshot(self, now: float) -> dict[int, dict]:
        """Per-node ``{"state": ..., "silent_s": ...}`` for diagnoses."""
        beats = self._beats(now)
        return {
            n: {"state": self._state[n], "silent_s": round(now - beats[n], 3)}
            for n in sorted(self._state)
        }

"""Capacity and synchronization primitives for the DES kernel: a counted
resource (cores, I/O slots) and a reusable barrier (global syncs).

Both are strictly FIFO so simulations are deterministic and fair,
matching the paper's assumption that storage/scheduler queues serve requests
in arrival order.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Deque

from repro.sim.kernel import Environment, Event, SimulationError

__all__ = ["Resource", "Barrier"]


class _Request(Event):
    """Event handed to a resource acquirer; usable as a release token."""

    __slots__ = ("resource", "amount")

    def __init__(self, env: Environment, resource: Resource, amount: int):
        super().__init__(env)
        self.resource = resource
        self.amount = amount

    def release(self) -> None:
        self.resource.release(self)

    # Allow ``with (yield res.request()) ...``-free manual style while still
    # supporting context-manager use inside generators.
    def __enter__(self) -> _Request:
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class Resource:
    """A counted resource with FIFO admission (e.g. CPU cores, I/O slots)."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiting: Deque[_Request] = deque()
        self._granted: set[int] = set()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, amount: int = 1) -> _Request:
        """Return an event that fires when ``amount`` units are granted."""
        if amount < 1 or amount > self.capacity:
            raise ValueError(f"request of {amount} on capacity {self.capacity}")
        req = _Request(self.env, self, amount)
        self._waiting.append(req)
        self._grant()
        return req

    def release(self, request: _Request) -> None:
        """Return units previously granted to ``request``."""
        if id(request) not in self._granted:
            raise SimulationError("release of a request that was never granted")
        self._granted.discard(id(request))
        self.in_use -= request.amount
        self._grant()

    def _grant(self) -> None:
        # Strict FIFO: never lets a small request jump a blocked large one.
        while self._waiting and self._waiting[0].amount <= self.available:
            req = self._waiting.popleft()
            self.in_use += req.amount
            self._granted.add(id(req))
            req.succeed(req)


class Barrier:
    """A reusable N-party barrier (models the paper's global syncs)."""

    def __init__(self, env: Environment, parties: int,
                 on_release: Callable[[int], None] | None = None):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.env = env
        self.parties = parties
        self.generation = 0
        self._arrived: list[Event] = []
        self._on_release = on_release

    @property
    def waiting(self) -> int:
        return len(self._arrived)

    def wait(self) -> Event:
        """Event that fires (with the generation number) when all arrive."""
        ev = Event(self.env)
        self._arrived.append(ev)
        if len(self._arrived) == self.parties:
            generation, self.generation = self.generation, self.generation + 1
            arrived, self._arrived = self._arrived, []
            if self._on_release is not None:
                self._on_release(generation)
            for waiter in arrived:
                waiter.succeed(generation)
        return ev

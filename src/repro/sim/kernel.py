"""Generator-based discrete-event simulation kernel.

Processes are plain Python generators that ``yield`` events; the environment
resumes a process when the event it waits on fires.  The design follows the
classic SimPy architecture but is intentionally small, fully deterministic,
and tuned for the access patterns of this library (many short-lived events,
tie-heavy schedules from synchronized I/O completions).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterable
from typing import Any

__all__ = [
    "SimulationError",
    "Event",
    "Timeout",
    "Process",
    "Environment",
    "AllOf",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, running a dead env, ...)."""


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled, not yet processed
_PROCESSED = 2


class Event:
    """A one-shot occurrence with a value and callbacks.

    Events start *pending*; :meth:`succeed` or :meth:`fail` schedules them on
    the environment's queue, and once the environment processes them their
    callbacks run exactly once.
    """

    __slots__ = ("env", "callbacks", "_value", "_state", "_ok", "_defused")

    def __init__(self, env: Environment):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = None
        self._state = _PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None, *, delay: float = 0.0, priority: int = 0) -> Event:
        """Trigger successfully, scheduling callbacks after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._state = _TRIGGERED
        self._ok = True
        self._value = value
        self.env._schedule(self, delay=delay, priority=priority)
        return self

    def fail(self, exception: BaseException, *, delay: float = 0.0) -> Event:
        """Trigger as failed; waiting processes receive ``exception``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._state = _TRIGGERED
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay=delay)
        return self

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:  # type: ignore[union-attr]
            cb(self)
        if not self._ok and not self._defused:
            raise self._value  # unhandled failure crashes the simulation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]}>"


class Timeout(Event):
    """An event that fires after a fixed virtual delay."""

    __slots__ = ("delay",)

    def __init__(self, env: Environment, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._state = _TRIGGERED
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class Process(Event):
    """Wraps a generator; finishes (as an event) when the generator returns.

    Inside the generator, ``yield event`` suspends until the event fires;
    the yield expression evaluates to the event's value.  A failed event
    raises its exception inside the generator (which may catch it).
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: Environment, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"Process needs a generator, got {type(generator).__name__}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        init = Event(env)
        init.succeed()
        init.callbacks.append(self._resume)  # type: ignore[union-attr]

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            if self._state == _PENDING:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            if self._state == _PENDING:
                self.fail(exc)
                return
            raise
        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_event!r}; processes must yield Events"
            )
        if next_event.env is not self.env:
            raise SimulationError("cannot wait on an event from another environment")
        if next_event.callbacks is None:
            # Already processed: resume immediately (same timestep).
            resume = Event(self.env)
            resume._ok = next_event._ok
            resume._value = next_event._value
            resume._defused = True
            resume._state = _TRIGGERED
            self.env._schedule(resume)
            resume.callbacks.append(self._resume)  # type: ignore[union-attr]
        else:
            next_event.callbacks.append(self._resume)


class AllOf(Event):
    """Fires when every component event has fired; value is the value list."""

    __slots__ = ("events",)

    def __init__(self, env: Environment, events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("all condition events must share one environment")
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self.events and self._state == _PENDING:
            self.succeed([])

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        if all(ev.processed or ev is event for ev in self.events):
            self.succeed([ev._value for ev in self.events])


class Environment:
    """The event loop: schedules events and advances virtual time."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def _schedule(self, event: Event, *, delay: float = 0.0, priority: int = 0) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    # -- public factory helpers -------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        self._now, _, _, event = heapq.heappop(self._queue)
        event._run_callbacks()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        With an :class:`Event` argument, returns that event's value when it
        fires (raising if it failed).
        """
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._queue:
                    raise SimulationError(
                        "simulation ran dry before the awaited event fired (deadlock?)"
                    )
                self.step()
            if not stop._ok:
                raise stop._value
            return stop._value
        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise ValueError(f"run(until={deadline}) is in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        if deadline != float("inf"):
            self._now = deadline
        return None

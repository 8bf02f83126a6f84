"""Filter base class and the execution context handed to instances.

Writing an application means subclassing :class:`Filter`, declaring input
and output port names, and implementing the step function
:meth:`Filter.on` (or a whole :meth:`Filter.process`) — "the key job left
to application developers is writing the filter functions and determining
the filter and stream layout".
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.datacutter.buffers import DataBuffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacutter.runtime import _InstanceRuntime


class FilterContext:
    """The runtime services visible to one filter instance."""

    def __init__(self, runtime: _InstanceRuntime):
        self._rt = runtime

    @property
    def name(self) -> str:
        """Filter name from the layout."""
        return self._rt.spec.name

    @property
    def instance(self) -> int:
        """This copy's index in [0, instances)."""
        return self._rt.instance

    @property
    def instances(self) -> int:
        return self._rt.spec.instances

    def read(self, port: str, timeout: float | None = None):
        """Next buffer on ``port`` (blocking); END_OF_STREAM when drained."""
        return self._rt.read_any([port], timeout)[1]

    def read_any(self, ports: Sequence[str], timeout: float | None = None):
        """Wait for a buffer on any of ``ports``.

        Returns ``(port, buffer)``; ``(None, END_OF_STREAM)`` once every
        listed port has drained.  This is how service filters (the DOoC
        storage filter) multiplex many bidirectional links.
        """
        return self._rt.read_any(ports, timeout)

    def write(self, port: str, buffer: DataBuffer) -> None:
        """Emit a buffer downstream; blocks on backpressure."""
        self._rt.write(port, buffer)

    def close(self, port: str) -> None:
        """Signal that this instance will write no more on ``port``."""
        self._rt.close_output(port)

    def end_run(self) -> None:
        """Mark the end of the current run of a graph that outlives it:
        whoever waits in ``ThreadedRuntime.wait_run`` returns."""
        self._rt.runtime._end_run()


class Filter:
    """Base class for application components.

    Subclasses set ``inputs`` / ``outputs`` (tuples of port names) and
    implement the step function :meth:`on`, which the one read loop,
    :meth:`process`, calls with each buffer; or they override
    :meth:`process` itself.  A filter waiting for one reply names only
    its port in :meth:`listening`; one that wakes on the clock returns an
    instant from :meth:`deadline`.  ``init`` and ``finalize`` bracket the
    instance's lifetime.  Each copy of a filter is its own instance; a
    producer addresses one by ``meta["__dest__"]``.
    """

    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    def init(self, ctx: FilterContext) -> None:
        """One-time setup before processing starts."""

    def listening(self) -> Sequence[str]:
        """The ports the next read waits on (default: every input)."""
        return self.inputs

    def deadline(self) -> float | None:
        """A ``time.monotonic()`` instant at which :meth:`on_deadline`
        runs unless a buffer comes first; None waits untimed."""
        return None

    def on(self, ctx: FilterContext, port: str | None, buf) -> bool | None:
        """Handle one buffer from ``port`` (``None, END_OF_STREAM`` once
        every listened port has drained); True ends the instance."""
        raise NotImplementedError

    def on_deadline(self, ctx: FilterContext) -> bool | None:
        """The :meth:`deadline` passed first; True ends the instance."""

    def process(self, ctx: FilterContext) -> None:
        """The read loop.  Returning ends the instance; its remaining open
        output ports are closed automatically."""
        while True:
            due = self.deadline()
            if due is not None and time.monotonic() >= due:
                if self.on_deadline(ctx):  # traffic must not starve it
                    return
                continue
            # Waiting, perhaps parked between runs, the thread holds no
            # buffer: a block the store has dropped must not stay resident.
            port = buf = None
            try:
                port, buf = ctx.read_any(self.listening(), None if due is None
                                         else max(due - time.monotonic(), 0.0))
            except TimeoutError:
                continue
            if self.on(ctx, port, buf):
                return

    def finalize(self, ctx: FilterContext) -> None:
        """One-time teardown after process() returns (even on error)."""


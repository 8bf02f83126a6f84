"""Filter base class and the execution context handed to instances.

Writing an application means subclassing :class:`Filter`, declaring input
and output port names, and implementing :meth:`Filter.process` — "the key
job left to application developers is writing the filter functions and
determining the filter and stream layout".
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.datacutter.buffers import END_OF_STREAM, DataBuffer

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

    @property
    def node(self) -> int:
        """Logical node this instance is placed on."""
        return self._rt.spec.node_of(self._rt.instance)

    def read(self, port: str, timeout: float | None = None):
        """Next buffer on ``port`` (blocking); END_OF_STREAM when drained."""
        return self._rt.read(port, timeout)

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

    @property
    def stop_requested(self) -> bool:
        """True once the runtime asked filters to wind down."""
        return self._rt.stop_requested()


class Filter:
    """Base class for application components.

    Subclasses set ``inputs`` / ``outputs`` (tuples of port names) and
    implement :meth:`process`.  ``init`` and ``finalize`` bracket the
    instance's lifetime.  A filter is *stateless* (safe to replicate) only
    if the author marks it so in the layout.
    """

    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    def init(self, ctx: FilterContext) -> None:
        """One-time setup before processing starts."""

    def process(self, ctx: FilterContext) -> None:
        """Main body: read buffers, compute, write buffers.

        Returning ends the instance; its remaining open output ports are
        closed automatically.
        """
        raise NotImplementedError

    def finalize(self, ctx: FilterContext) -> None:
        """One-time teardown after process() returns (even on error)."""


class FunctionFilter(Filter):
    """Adapter turning a per-buffer function into a 1-in/1-out filter.

    The function receives each payload from ``in`` and its return value is
    forwarded on ``out`` (None return values are dropped).
    """

    inputs = ("in",)
    outputs = ("out",)

    def __init__(self, fn, *, meta_through: bool = True):
        self.fn = fn
        self.meta_through = meta_through

    def process(self, ctx: FilterContext) -> None:
        while True:
            buf = ctx.read("in")
            if buf is END_OF_STREAM:
                return
            result = self.fn(buf.payload)
            if result is None:
                continue
            meta = buf.meta if self.meta_through else {}
            ctx.write("out", DataBuffer(result, meta))

"""DataCutter-style filter-stream dataflow middleware.

Computations are *filters* (components) exchanging untyped *data buffers*
over unidirectional logical *streams*; a *layout* is the filter ontology
describing filters, how many copies of each, and stream connections.  A
filter with several copies gets data parallelism: a producer addresses
each buffer to one copy (``meta["__dest__"]``), as DOoC's local scheduler
hands each batch to the worker it knows is idle; pipelined- and
task-parallelism fall out of running filters concurrently.

This reproduction executes layouts with real OS threads
(:class:`~repro.datacutter.runtime.ThreadedRuntime`): every filter instance
is a thread, every stream edge a bounded queue with end-of-stream tracking.
The DOoC engine (:mod:`repro.core`) builds its storage and scheduler
services as filters on top of this substrate, exactly as the paper layers
DOoC on DataCutter.
"""

from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
from repro.datacutter.errors import (
    DataCutterError,
    FilterError,
    LayoutError,
    StreamClosedError,
)
from repro.datacutter.filters import Filter, FilterContext
from repro.datacutter.layout import Layout
from repro.datacutter.runtime import ThreadedRuntime

__all__ = [
    "DataBuffer",
    "END_OF_STREAM",
    "Filter",
    "FilterContext",
    "Layout",
    "ThreadedRuntime",
    "DataCutterError",
    "LayoutError",
    "FilterError",
    "StreamClosedError",
]

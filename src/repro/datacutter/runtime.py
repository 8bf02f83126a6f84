"""Threaded execution of layouts.

Each filter instance runs on its own OS thread; each (stream, consumer
instance) pair is a bounded FIFO *channel* guarded by the consumer's
condition variable.  A buffer goes to the consumer's one copy, or to the
copy its ``meta["__dest__"]`` names when there are several.  Writers block
when a channel is full (credit-based backpressure), readers block when all
their channels are empty.  A stream reaches end-of-stream at a consumer
once every producer instance has closed it and the channel has drained.

Threads suit this middleware's workload: filters spend their time in file
I/O and NumPy kernels, both of which release the GIL, so I/O genuinely
overlaps computation — the property the paper's out-of-core pipeline relies
on.

A graph may also outlive one computation: its filters loop instead of
returning, a filter marks the end of each *run* (``FilterContext.end_run``),
and between runs its owner rebinds the parked filters
(:meth:`ThreadedRuntime.begin_run`) and waits for the next end
(:meth:`ThreadedRuntime.wait_run`).  No thread starts after the first run.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Sequence

from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
from repro.datacutter.errors import FilterError, LayoutError, StreamClosedError
from repro.datacutter.filters import Filter, FilterContext
from repro.datacutter.layout import Layout, StreamSpec


class _Channel:
    """Bounded FIFO for one stream arriving at one consumer instance."""

    __slots__ = ("stream", "cond", "items", "capacity", "producers_open",
                 "buffers_in", "bytes_in")

    def __init__(self, stream: StreamSpec, cond: threading.Condition, producers: int):
        self.stream = stream
        self.cond = cond  # the consumer instance's condition
        self.items: deque[DataBuffer] = deque()
        self.capacity = stream.capacity
        self.producers_open = producers
        self.buffers_in = 0
        self.bytes_in = 0

    @property
    def at_eos(self) -> bool:
        return self.producers_open == 0 and not self.items


class _StreamWriter:
    """Producer-side handle delivering buffers to a consumer's channels:
    the one channel of a one-copy consumer, else the copy named by the
    buffer's ``meta["__dest__"]``."""

    def __init__(self, stream: StreamSpec, channels: list[_Channel], runtime: ThreadedRuntime):
        self.stream = stream
        self.channels = channels
        self.runtime = runtime

    def _target(self, buffer: DataBuffer) -> _Channel:
        n = len(self.channels)
        if n == 1:
            return self.channels[0]
        dest = buffer.meta.get("__dest__")
        if dest is None or not 0 <= int(dest) < n:
            raise StreamClosedError(
                f"stream {self.stream.name!r}: a buffer to {n} copies needs "
                f"meta '__dest__' in [0, {n}), got {dest!r}"
            )
        return self.channels[int(dest)]

    def write(self, buffer: DataBuffer) -> None:
        channel = self._target(buffer)
        with channel.cond:
            while len(channel.items) >= channel.capacity:
                if self.runtime._failed.is_set():
                    raise StreamClosedError(
                        f"runtime failed while writing {self.stream.name!r}"
                    )
                channel.cond.wait()
            channel.items.append(buffer)
            channel.buffers_in += 1
            channel.bytes_in += buffer.nbytes
            channel.cond.notify_all()

    def close(self) -> None:
        for channel in self.channels:
            with channel.cond:
                channel.producers_open -= 1
                channel.cond.notify_all()


class _InstanceRuntime:
    """Everything one filter instance's thread needs."""

    def __init__(self, runtime: ThreadedRuntime, spec, instance: int, filt: Filter):
        self.runtime = runtime
        self.spec = spec
        self.instance = instance
        self.filter = filt
        self.cond = threading.Condition()
        # port -> channels feeding it (several streams may merge on a port)
        self.in_channels: dict[str, list[_Channel]] = {}
        # port -> writers fanning out of it
        self.out_writers: dict[str, list[_StreamWriter]] = {}
        self._closed_ports: set[str] = set()
        self._read_rotation: dict[str, int] = {}
        #: blocked in an untimed read: the thread touches nothing of its
        #: filter until a buffer arrives (what ``begin_run`` waits for)
        self.idle = False

    # -- reading ------------------------------------------------------------

    def _try_pop(self, port: str) -> DataBuffer | None:
        """Pop from one of the port's channels (rotating), or None."""
        channels = self.in_channels[port]
        start = self._read_rotation.get(port, 0)
        for k in range(len(channels)):
            channel = channels[(start + k) % len(channels)]
            if channel.items:
                self._read_rotation[port] = (start + k + 1) % len(channels)
                item = channel.items.popleft()
                channel.cond.notify_all()
                return item
        return None

    def read_any(self, ports: Sequence[str], timeout: float | None = None):
        for port in ports:
            if port not in self.in_channels and port not in self.filter.inputs:
                raise LayoutError(
                    f"filter {self.spec.name!r} has no input port {port!r}"
                )
        live = [p for p in ports if p in self.in_channels]
        if not live:
            return None, END_OF_STREAM
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while True:
                for port in live:
                    item = self._try_pop(port)
                    if item is not None:
                        return port, item
                if all(ch.at_eos for p in live for ch in self.in_channels[p]):
                    return None, END_OF_STREAM
                if self.runtime._failed.is_set():
                    raise StreamClosedError("runtime failed while reading")
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(f"read_any({ports!r}) timed out")
                # An item, end-of-stream and runtime failure all notify
                # self.cond: the wait needs no slice, only the caller's
                # own deadline.
                if deadline is not None:
                    self.cond.wait(deadline - time.monotonic())
                    continue
                self.idle = True
                if self.runtime._binding:
                    self.cond.notify_all()  # begin_run waits for this
                self.cond.wait()
                self.idle = False

    # -- writing ------------------------------------------------------------

    def write(self, port: str, buffer: DataBuffer) -> None:
        if not isinstance(buffer, DataBuffer):
            raise TypeError(f"write() needs a DataBuffer, got {type(buffer).__name__}")
        if port in self._closed_ports:
            raise StreamClosedError(
                f"filter {self.spec.name!r}#{self.instance} wrote on closed "
                f"port {port!r}"
            )
        writers = self.out_writers.get(port)
        if writers is None:
            if port in self.filter.outputs:
                return  # unconnected output: discard (sink-less port)
            raise LayoutError(f"filter {self.spec.name!r} has no output port {port!r}")
        for writer in writers:
            writer.write(buffer)

    def close_output(self, port: str) -> None:
        if port in self._closed_ports:
            return
        self._closed_ports.add(port)
        for writer in self.out_writers.get(port, []):
            writer.close()

    def close_all_outputs(self) -> None:
        for port in list(self.out_writers):
            self.close_output(port)


class ThreadedRuntime:
    """Runs a :class:`~repro.datacutter.layout.Layout` on OS threads."""

    def __init__(self, layout: Layout, *, lock_recorder=None):
        self.layout = layout
        if lock_recorder is None:
            # Function-level import: repro.analysis is lazy, but its checker
            # modules reach back into repro.core, which imports this module.
            from repro.analysis import checkers_enabled
            if checkers_enabled():
                from repro.analysis.lockorder import LockOrderRecorder
                lock_recorder = LockOrderRecorder()
        self.lock_recorder = lock_recorder
        self._failed = threading.Event()
        self._errors: list[FilterError] = []
        self._errors_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        #: guards the run state below; notified at a run's end, and as
        #: each thread exits
        self._state = threading.Condition()
        self._live = 0
        self._run_open = False
        self._binding = False
        self.instances: dict[str, list[_InstanceRuntime]] = {}
        self._build()

    def _build(self) -> None:
        # 1. instantiate filters; wrap each instance's condition *before*
        #    step 2 so every channel captures the recording proxy
        for name, spec in self.layout.filters.items():
            insts = []
            for i in range(spec.instances):
                filt = spec.factory()
                if not isinstance(filt, Filter):
                    raise LayoutError(
                        f"factory of {name!r} returned {type(filt).__name__}, "
                        "not a Filter")
                insts.append(_InstanceRuntime(self, spec, i, filt))
            if self.lock_recorder is not None:
                for inst in insts:
                    inst.cond = self.lock_recorder.wrap_condition(
                        inst.cond, f"{name}#{inst.instance}.cond")
            self.instances[name] = insts
        # 2. check each stream's endpoints against the filters just built,
        #    and materialize its channels per (stream, consumer instance)
        for stream in self.layout.streams.values():
            for end in (stream.src, stream.dst):
                if end not in self.instances:
                    raise LayoutError(
                        f"stream {stream.name!r}: unknown filter {end!r}")
            if stream.src == stream.dst:
                raise LayoutError(
                    f"stream {stream.name!r} is a self-loop; split the filter "
                    "into two stages instead")
            outputs = self.instances[stream.src][0].filter.outputs
            if stream.src_port not in outputs:
                raise LayoutError(
                    f"stream {stream.name!r}: {stream.src!r} has no output "
                    f"port {stream.src_port!r} (has {outputs})")
            inputs = self.instances[stream.dst][0].filter.inputs
            if stream.dst_port not in inputs:
                raise LayoutError(
                    f"stream {stream.name!r}: {stream.dst!r} has no input "
                    f"port {stream.dst_port!r} (has {inputs})")
            producers = self.layout.filters[stream.src].instances
            consumers = self.instances[stream.dst]
            channels = []
            for consumer in consumers:
                channel = _Channel(stream, consumer.cond, producers)
                consumer.in_channels.setdefault(stream.dst_port, []).append(channel)
                channels.append(channel)
            for producer in self.instances[stream.src]:
                writer = _StreamWriter(stream, channels, self)
                producer.out_writers.setdefault(stream.src_port, []).append(writer)

    # -- execution ------------------------------------------------------------

    def _thread_body(self, inst: _InstanceRuntime) -> None:
        ctx = FilterContext(inst)
        try:
            inst.filter.init(ctx)
            inst.filter.process(ctx)
        except BaseException as exc:  # noqa: BLE001 - must not kill the runtime silently
            self._fail(inst, exc)
        finally:
            try:
                inst.filter.finalize(ctx)
            except BaseException as exc:  # noqa: BLE001
                self._fail(inst, exc)
            inst.close_all_outputs()
            self._wake_all()
            with self._state:
                self._live -= 1
                self._state.notify_all()

    def _fail(self, inst: _InstanceRuntime, exc: BaseException) -> FilterError:
        """Record ``inst``'s failure; every thread blocked on a stream wakes."""
        error = FilterError(inst.spec.name, inst.instance, exc)
        with self._errors_lock:
            self._errors.append(error)
        self.abort()
        return error

    def _wake_all(self) -> None:
        for insts in self.instances.values():
            for inst in insts:
                with inst.cond:
                    inst.cond.notify_all()

    def post(self, name: str, port: str, buffer: DataBuffer) -> None:
        """Deliver ``buffer`` to ``port`` of filter ``name`` (instance 0)
        from a thread outside the layout, never waiting on capacity."""
        inst = self.instances[name][0]
        with inst.cond:
            inst.in_channels[port][0].items.append(buffer)
            inst.cond.notify_all()

    def _end_run(self) -> None:
        with self._state:
            self._run_open = False
            self._state.notify_all()

    def start(self) -> None:
        """Start every filter's thread; this opens the first run."""
        if self._threads:
            raise RuntimeError("runtime already started")
        self._live = sum(len(insts) for insts in self.instances.values())
        self._run_open = True
        for name, insts in self.instances.items():
            for inst in insts:
                thread = threading.Thread(
                    target=self._thread_body,
                    args=(inst,),
                    name=f"dc-{name}#{inst.instance}",
                    daemon=True,
                )
                self._threads.append(thread)
        for thread in self._threads:
            thread.start()

    def join(self, timeout: float | None = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(deadline - time.monotonic(), 0.0)
            thread.join(remaining)
            if thread.is_alive():
                self.abort()
                if self.lock_recorder is not None:
                    # A recorded ordering cycle is a better diagnosis than a
                    # bare timeout: name the deadlock if we saw one.
                    self.lock_recorder.check()
                raise TimeoutError(
                    f"filter thread {thread.name} still running after "
                    f"{timeout} s (possible stream deadlock)"
                )
        if self._errors:
            raise self._errors[0]
        if self.lock_recorder is not None:
            self.lock_recorder.check()

    def run(self, timeout: float | None = None) -> None:
        """start() + join(); the normal entry point."""
        self.start()
        self.join(timeout)

    # -- runs of a graph that outlives them ---------------------------------

    @property
    def between_runs(self) -> bool:
        """The last run ended (a filter called ``end_run``) and nothing
        failed; a filter may have returned since, as a dead node's
        workers do."""
        return (bool(self._threads) and not self._run_open
                and not self._failed.is_set())

    @property
    def parked(self) -> bool:
        """Between runs, with every thread alive: the next run may begin."""
        return self.between_runs and self._live == len(self._threads)

    def begin_run(self, bind: Callable[[Filter], None]) -> None:
        """Open the next run of a parked graph.

        Instance by instance, once its thread waits untimed for input,
        zero the counters of the channels it reads (``stream_stats`` then
        covers one run) and hand its filter to ``bind``, which rebinds the
        filter's per-run state.  The caller then sends the run its first
        message.
        """
        self._binding = True
        try:
            for insts in self.instances.values():
                for inst in insts:
                    with inst.cond:
                        while not inst.idle:
                            if (self._failed.is_set()
                                    or self._live < len(self._threads)):
                                raise StreamClosedError(
                                    "the graph stopped between runs")
                            inst.cond.wait()
                        for channels in inst.in_channels.values():
                            for ch in channels:
                                ch.buffers_in = ch.bytes_in = 0
                        bind(inst.filter)
        finally:
            self._binding = False
        with self._state:
            self._run_open = True

    def wait_run(self, deadline: float | None = None, *,
                 wake: float | None = None) -> bool:
        """Wait for the open run to end: a filter called ``end_run`` (the
        graph is parked), or every thread has exited.  True then; False at
        ``wake`` (a ``time.monotonic`` instant) if the run is still going.

        A filter failure waits for every thread to exit, then raises the
        first error.  At ``deadline`` the graph fails: every thread blocked
        on a stream wakes, and this raises ``TimeoutError``.
        """
        timed_out = False
        with self._state:
            while self._live and (self._run_open or self._failed.is_set()):
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    timed_out = True
                    break
                if wake is not None and now >= wake:
                    return False
                until = min((t for t in (deadline, wake) if t is not None),
                            default=None)
                self._state.wait(None if until is None else until - now)
        if timed_out:
            self.abort()
            if self.lock_recorder is not None:
                self.lock_recorder.check()  # a named deadlock beats a timeout
            raise TimeoutError(
                "run still going at its deadline (possible stream deadlock)")
        if self._errors:
            raise self._errors[0]
        if self.lock_recorder is not None:
            self.lock_recorder.check()
        return True

    def abort(self) -> None:
        """Fail the graph: every thread blocked on a stream wakes and exits."""
        self._failed.set()
        self._wake_all()

    # -- introspection ----------------------------------------------------------

    def stream_stats(self) -> dict[str, tuple[int, int]]:
        """Per-stream (buffers, bytes) delivered, summed over consumers."""
        stats: dict[str, tuple[int, int]] = {}
        for insts in self.instances.values():
            for inst in insts:
                for channels in inst.in_channels.values():
                    for ch in channels:
                        b, y = stats.get(ch.stream.name, (0, 0))
                        stats[ch.stream.name] = (b + ch.buffers_in, y + ch.bytes_in)
        return stats

"""Layouts: the filter ontology of an application.

A layout names a set of filters (with instance counts) and the streams
connecting their ports, mirroring DataCutter's "set of application
tasks, streams, and the connections required for the computation".
Ports are checked against the filters themselves when a runtime builds
them (:class:`~repro.datacutter.runtime.ThreadedRuntime`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.datacutter.errors import LayoutError
from repro.datacutter.filters import Filter


@dataclass(frozen=True)
class FilterSpec:
    """A filter declaration within a layout: ``instances`` copies, each
    built by one call of ``factory``."""

    name: str
    factory: Callable[[], Filter]
    instances: int = 1

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise LayoutError(f"filter {self.name!r} needs >= 1 instance")


@dataclass(frozen=True)
class StreamSpec:
    """A logical stream between two filter ports.

    A consumer with one copy gets every buffer; one with several gets
    each buffer at the copy its ``meta["__dest__"]`` names.
    """

    name: str
    src: str
    src_port: str
    dst: str
    dst_port: str
    capacity: int = 16

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise LayoutError(f"stream {self.name!r} capacity must be >= 1")


class Layout:
    """Builder for an application's filter/stream graph."""

    def __init__(self, name: str = "layout"):
        self.name = name
        self.filters: dict[str, FilterSpec] = {}
        self.streams: dict[str, StreamSpec] = {}

    def add_filter(
        self,
        name: str,
        factory: Callable[[], Filter],
        *,
        instances: int = 1,
    ) -> Layout:
        """Declare a filter; returns self for chaining."""
        if name in self.filters:
            raise LayoutError(f"duplicate filter name {name!r}")
        self.filters[name] = FilterSpec(name, factory, instances)
        return self

    def connect(
        self,
        src: str,
        src_port: str,
        dst: str,
        dst_port: str,
        *,
        capacity: int = 16,
        name: str | None = None,
    ) -> Layout:
        """Declare a stream from ``src.src_port`` to ``dst.dst_port``."""
        stream_name = name or f"{src}.{src_port}->{dst}.{dst_port}"
        if stream_name in self.streams:
            raise LayoutError(f"duplicate stream {stream_name!r}")
        self.streams[stream_name] = StreamSpec(
            stream_name, src, src_port, dst, dst_port, capacity)
        return self

"""Untyped data buffers flowing along streams.

DataCutter moves *untyped buffers* to minimize system overheads; we keep the
same contract: a payload the middleware never interprets, plus a small
metadata dict used for routing (hash distribution) and bookkeeping, plus a
byte-size estimate used for flow-control accounting.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np


class _EndOfStream:
    """Sentinel marking stream termination; singleton, falsy."""

    _instance: _EndOfStream | None = None

    def __new__(cls) -> _EndOfStream:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "END_OF_STREAM"


END_OF_STREAM = _EndOfStream()


_BYTES = (bytes, bytearray, memoryview)
#: what a buffer that carries no data (a control message, an opaque
#: object) is charged
_NOMINAL_NBYTES = 64


def _estimate_nbytes(payload: Any) -> int:
    """Size estimate used by stream accounting: the data a buffer carries.

    Exact for an ``ndarray`` or bytes payload, and for a container of
    them (a ``blockdata`` or ``loaded`` message is a dict around one
    array).  Containers are read one level down and strings are never
    encoded: most buffers are control messages, and an estimate that
    walked and encoded each of them cost more than the hop it rode on.
    A container holding no data is charged the nominal size.
    """
    if isinstance(payload, (dict, Mapping)):  # the common case first
        payload = payload.values()
    elif payload is None:
        return 0
    elif isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    elif isinstance(payload, (*_BYTES, str)):
        return len(payload)  # a string's characters: near enough, unencoded
    elif not isinstance(payload, (list, tuple)):
        return _NOMINAL_NBYTES  # opaque object
    total = 0
    for item in payload:
        if isinstance(item, np.ndarray):
            total += int(item.nbytes)
        elif isinstance(item, _BYTES):
            total += len(item)
    return total or _NOMINAL_NBYTES


class DataBuffer:
    """One unit of data on a stream.

    ``payload`` is opaque to the middleware.  ``meta`` carries routing keys
    and application tags.  ``nbytes`` defaults to an estimate of the payload
    size and is what bounded streams account against.
    """

    __slots__ = ("payload", "meta", "nbytes")

    def __init__(
        self,
        payload: Any,
        meta: dict[str, Any] | None = None,
        nbytes: int | None = None,
    ):
        self.payload = payload
        self.meta = dict(meta) if meta else {}
        self.nbytes = _estimate_nbytes(payload) if nbytes is None else int(nbytes)
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")

    def tagged(self, **meta: Any) -> DataBuffer:
        """A shallow copy with extra metadata (payload shared)."""
        merged = dict(self.meta)
        merged.update(meta)
        return DataBuffer(self.payload, merged, nbytes=self.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = type(self.payload).__name__
        return f"DataBuffer({kind}, {self.nbytes} B, meta={self.meta})"

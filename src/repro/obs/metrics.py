"""Per-node metrics registry.

The one place operational counts live: every runtime component (store,
I/O filter, schedulers, workers, operand cache) increments named
(optionally labelled) counters on its node's :class:`MetricsRegistry`,
and a run reports each registry's snapshot as ``RunReport.metrics[node]``.
Counters are monotonic; ``observe_max`` records high-watermark gauges
(e.g. peak allocation-queue depth).
"""

from __future__ import annotations

import threading

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named monotonic counters + high-watermark gauges, thread-safe.

    Labelled increments (``inc("loads", label="A_00")``) accumulate both
    the total and a per-label breakdown.
    """

    def __init__(self, node: int = -1):
        self.node = node
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._labeled: dict[str, dict[str, int]] = {}
        self._maxima: dict[str, float] = {}

    # -- writing --------------------------------------------------------------

    def inc(self, name: str, n: int = 1, *, label: str | None = None) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
            if label is not None:
                per = self._labeled.setdefault(name, {})
                per[label] = per.get(label, 0) + n

    def observe_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self._maxima.get(name, float("-inf")):
                self._maxima[name] = value

    # -- reading --------------------------------------------------------------

    def get(self, name: str, default: int = 0) -> int:
        with self._lock:
            return self._counters.get(name, default)

    def labeled(self, name: str) -> dict[str, int]:
        with self._lock:
            return dict(self._labeled.get(name, {}))

    def maximum(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._maxima.get(name, default)

    def as_dict(self) -> dict:
        """Plain-data snapshot (reported in ``RunReport.metrics``)."""
        with self._lock:
            out: dict = dict(self._counters)
            for name, per in self._labeled.items():
                out[f"{name}_by_label"] = dict(per)
            for name, value in self._maxima.items():
                out[f"{name}_max"] = value
            return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry(node={self.node}, {self.as_dict()!r})"

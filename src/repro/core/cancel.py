"""Cooperative run cancellation.

A :class:`CancelToken` is the one-way switch a supervisor hands to
``DOoCEngine.run(cancel=...)``.  Setting it does **not** kill threads or
tear streams: the engine hooks the token (:meth:`CancelToken.on_cancel`)
so that setting it posts one ``cancel`` message to the global scheduler,
which stops dispatching and broadcasts it; each node drops its ready
work, finishes what is in flight, and the run ends on the barrier a
completed run ends on, the filter graph parked.  The run then raises
:class:`~repro.core.errors.RunCancelled` with every ticket released,
/dev/shm unlinked, and nothing torn on disk — exactly the same exit
hygiene as a successful run — and the next run starts cold.

The token is therefore safe to set from any thread at any time,
including before ``run()`` starts (the run cancels before dispatching
anything) and after it finished (the completed run is not retroactively
failed — ``run()`` raises only if the scheduler actually drained).
"""

from __future__ import annotations

import threading
from collections.abc import Callable

__all__ = ["CancelToken"]


class CancelToken:
    """A thread-safe, one-shot cancellation flag with a reason.

    The first ``cancel(reason)`` wins; later calls are no-ops so the
    recorded reason always names the original canceller (user request,
    deadline, preemption).  ``wait()`` lets supervisors block on the
    token with an interruptible timeout instead of polling.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._reason = "cancelled"
        self._hooks: set[Callable[[], None]] = set()

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation.  Returns True if this call flipped the
        token, False if it was already cancelled (reason unchanged)."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = str(reason)
            self._event.set()
            hooks, self._hooks = list(self._hooks), set()
        for hook in hooks:
            hook()
        return True

    def on_cancel(self, hook: Callable[[], None]) -> Callable[[], None]:
        """Run ``hook`` once, on the cancelling thread — at once if the
        token is already set.  Returns a function that unregisters it (a
        no-op once it ran); a token shared by many runs needs that."""
        with self._lock:
            if not self._event.is_set():
                self._hooks.add(hook)
                return lambda: self._hooks.discard(hook)
        hook()
        return lambda: None

    def is_set(self) -> bool:
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        """The first canceller's stated reason (meaningful once set)."""
        with self._lock:
            return self._reason

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancelled (or ``timeout`` elapses); True if set."""
        return self._event.wait(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"cancelled: {self.reason!r}" if self.cancelled else "armed"
        return f"<CancelToken {state}>"

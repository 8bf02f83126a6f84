"""Ticket-lifecycle auditing for :class:`~repro.core.storage.LocalStore`.

The storage protocol promises that every granted ticket is eventually
``release``d (or ``abandon_write``n).  A leaked read ticket pins a block
in memory forever; a leaked write ticket wedges every later reader of the
interval.  Both bugs present as capacity pressure or a stall long after
the leaking call site returned.

:class:`TicketAuditor` records each grant and each release as the store
reports them (the store calls the hooks itself when ``store.auditor`` is
set, which the engine does under ``DOOC_CHECKERS=1``).  At engine
teardown :meth:`assert_clean` raises :class:`TicketLeakError` naming
every still-outstanding ticket — id, node, array interval, permission and
tag — so the leak is attributed at the run that introduced it instead of
the soak that hit the wall.

The auditor also asserts the zero-copy data-plane invariant at grant
time: a read grant must hand out a *non-writable* view
(:class:`WritableReadViewError` otherwise) — the property that makes
serving blocks to tasks and peers without defensive copies safe.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.storage import Ticket

__all__ = ["TicketAuditor", "TicketLeakError", "WritableReadViewError"]


class TicketLeakError(AssertionError):
    """Granted tickets were never released or abandoned."""

    def __init__(self, message: str, leaked: list[Ticket]):
        super().__init__(message)
        self.leaked = leaked


class WritableReadViewError(AssertionError):
    """A read grant handed out a writable view (zero-copy unsound)."""


def _describe(node: str, ticket: Ticket) -> str:
    iv = ticket.interval
    tag = f" tag={ticket.tag!r}" if ticket.tag is not None else ""
    perm = getattr(ticket.permission, "value", ticket.permission)
    return (f"ticket {ticket.tid} [{perm} "
            f"{iv.array}[{iv.lo}:{iv.hi}] on {node}{tag}]")


class TicketAuditor:
    """Cross-store ledger of granted-but-not-yet-released tickets."""

    def __init__(self):
        self._lock = threading.Lock()
        # tid -> (node, ticket); tids are globally unique per engine run.
        self._outstanding: dict[int, tuple[str, Ticket]] = {}
        self.granted_total = 0
        self.released_total = 0

    # -- hooks called by LocalStore ---------------------------------------

    def note_granted(self, node: str, ticket: Ticket) -> None:
        perm = getattr(ticket.permission, "value", ticket.permission)
        data = ticket.data
        if (perm == "read" and data is not None
                and getattr(data, "flags", None) is not None
                and data.flags.writeable):
            raise WritableReadViewError(
                f"{_describe(str(node), ticket)} granted a WRITABLE read "
                "view — readers could mutate a sealed block shared "
                "zero-copy with other tasks and peers")
        with self._lock:
            self._outstanding[ticket.tid] = (node, ticket)
            self.granted_total += 1

    def note_released(self, node: str, ticket: Ticket) -> None:
        with self._lock:
            self._outstanding.pop(ticket.tid, None)
            self.released_total += 1

    # abandonment is a release for lifecycle purposes
    note_abandoned = note_released

    def forget_node(self, node: str) -> None:
        """``node`` died: its tickets died with it, so none is a leak."""
        with self._lock:
            for tid in [tid for tid, (n, _) in self._outstanding.items()
                        if n == node]:
                del self._outstanding[tid]

    # -- teardown ----------------------------------------------------------

    def outstanding(self) -> list[tuple[str, Ticket]]:
        with self._lock:
            return sorted(self._outstanding.values(),
                          key=lambda pair: pair[1].tid)

    def assert_clean(self) -> None:
        """Raise :class:`TicketLeakError` if any grant was never unwound."""
        leaked = self.outstanding()
        if not leaked:
            return
        lines = [f"{len(leaked)} granted ticket(s) never released "
                 f"({self.granted_total} granted, "
                 f"{self.released_total} released over the run):"]
        lines.extend("  " + _describe(node, t) for node, t in leaked)
        raise TicketLeakError("\n".join(lines), [t for _, t in leaked])

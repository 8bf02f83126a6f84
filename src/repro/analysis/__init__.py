"""Static and dynamic protocol checkers for the DOoC runtime.

Three layers (see docs/ANALYSIS.md):

* **AST lint** (``python -m repro lint``): per-file repo-specific rules
  over the source tree — dropped ``Effect`` lists, blocking-under-lock,
  trace-vocabulary enforcement, and one table of "this call belongs in
  one module" fences — with
  ``# dooc: noqa[CODE]`` suppressions (:mod:`repro.analysis.lint`,
  :mod:`repro.analysis.rules`, :mod:`repro.analysis.cli`; run
  ``--list-rules`` for the live catalog).

* **Whole-program dataflow** (``python -m repro lint --deep``, which
  also runs every per-file rule): a module-aware call graph plus
  alias/escape summaries power the interprocedural rules — sealed-view
  mutation escape, static lock-order cycles, effect drops through
  helpers (:mod:`repro.analysis.flow`).

* **Runtime checkers** (``DOOC_CHECKERS=1``): a lock-order recorder that
  fails runs whose cross-thread lock acquisition graph contains a cycle
  (:mod:`repro.analysis.lockorder`), and a ticket-lifecycle auditor that
  names tickets granted but never released/abandoned
  (:mod:`repro.analysis.tickets`).  Lock cycles are checked statically
  and at run time because each half catches seeded violations the other
  misses; the ticket hand-offs' static half is a structural test,
  ``tests/test_api_surface.py::TestTicketHandoffs`` (docs/ANALYSIS.md).
  Malformed task graphs need no checker: :class:`~repro.core.dag.TaskDAG`
  rejects them, by name, on every run.

Submodules are imported lazily: the runtime modules (``datacutter``,
``core``) import from this package on their hot construction paths, and a
lazy surface keeps those imports cycle-free and cheap when the checkers
are disabled.
"""

from __future__ import annotations

import os
from typing import Any

__all__ = [
    "checkers_enabled",
    "Violation",
    "lint_source",
    "lint_file",
    "lint_paths",
    "analyze_sources",
    "deep_lint_paths",
    "LockOrderRecorder",
    "LockOrderViolation",
    "TicketAuditor",
    "TicketLeakError",
    "WritableReadViewError",
]

_TRUTHY = {"1", "true", "yes", "on"}


def checkers_enabled() -> bool:
    """Are the runtime protocol checkers requested via ``DOOC_CHECKERS``?"""
    return os.environ.get("DOOC_CHECKERS", "").strip().lower() in _TRUTHY


_LAZY = {
    "Violation": "repro.analysis.lint",
    "lint_source": "repro.analysis.lint",
    "lint_file": "repro.analysis.lint",
    "lint_paths": "repro.analysis.lint",
    "analyze_sources": "repro.analysis.flow",
    "deep_lint_paths": "repro.analysis.flow",
    "LockOrderRecorder": "repro.analysis.lockorder",
    "LockOrderViolation": "repro.analysis.lockorder",
    "TicketAuditor": "repro.analysis.tickets",
    "TicketLeakError": "repro.analysis.tickets",
    "WritableReadViewError": "repro.analysis.tickets",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)

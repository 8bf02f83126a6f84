"""Repo-specific lint rules for the DOoC protocol discipline.

Codes (stable; see docs/ANALYSIS.md for the catalog with rationale):

========  ==================================================================
DOOC002   dropped effects: a ``LocalStore`` method returning
          ``list[Effect]`` called as a bare statement — the effects were
          never executed, so loads/spills/grants silently vanish.
DOOC003   blocking call under a lock: ``time.sleep``, ``open``/``os.open``,
          an untimed ``.join()``, an untimed ``.wait()`` on anything but
          the one lock held (``with c: c.wait()`` is the monitor pattern),
          or ``subprocess`` work inside a ``with <lock>:`` body stalls
          every thread contending on that lock.
DOOC004   unknown trace event: a string literal passed as the event name to
          ``Tracer.instant/complete/counter/span`` that is not part of the
          central vocabulary (:mod:`repro.obs.vocab`).
========  ==================================================================

Ticket hand-offs have no rule here: the three places a ticket changes
hands are pinned by ``tests/test_api_surface.py::TestTicketHandoffs``,
and the runtime ``TicketAuditor`` names a leak on any other path.

DOOC005-008 and DOOC013 are one idea, "this call or import belongs in
one place" — durable ``.blk``/``.ckpt`` writes in ``util/atomicio``,
``SharedMemory`` in ``core/shm``, compression imports in ``core/codecs``,
``mmap`` in ``core/iofilter``, and no ``time.sleep`` in ``server/`` or
``core/``, nor a ``.poll`` on a tuned period in ``core/`` (DOOC014): the
rows of :data:`FENCES`, checked by one function, :func:`check_fence`.

The rules are deliberately lexical (single-function, no dataflow): they
catch the protocol mistakes that actually bit this repo while staying fast
and explainable.  Known-safe deviations are suppressed at the call site
with ``# dooc: noqa[CODE]`` and a justification comment.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

from repro.analysis.lint import EFFECT_FUNCS, Violation, register
from repro.obs.vocab import EVENT_NAMES

__all__ = [
    "FENCES",
    "EFFECT_FUNCS",
    "TRACER_METHODS",
]

#: Tracer emit methods whose 4th positional argument is the event name
TRACER_METHODS = frozenset({"instant", "complete", "counter", "span"})

_TRACER_RECEIVERS = frozenset({"tracer", "_tracer"})
_LOCKISH_FRAGMENTS = ("lock", "cond", "mutex", "sem")


# -- small AST helpers -------------------------------------------------------


def _terminal_name(node: ast.AST) -> str | None:
    """``a.b.c`` -> "c", ``name`` -> "name", anything else -> None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_name(call: ast.Call) -> str | None:
    return _terminal_name(call.func)


def _receiver_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return _terminal_name(call.func.value)
    return None


def _is_lockish(name: str | None) -> bool:
    return name is not None and any(f in name.lower()
                                    for f in _LOCKISH_FRAGMENTS)


def _scopes(tree: ast.Module) -> Iterator[list[ast.stmt]]:
    """Yield each lexical scope's statement list (module + every def)."""
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


def _walk_scope(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of a scope in document order, skipping nested defs."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            yield from _walk_scope(getattr(stmt, field, []) or [])
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _walk_scope(handler.body)


_SKIP_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Lambda)


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    """Every call under ``node``, outermost-first, not descending into
    nested defs/lambdas."""
    if isinstance(node, ast.Call):
        yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SKIP_NESTED):
            continue
        yield from _calls_in(child)


# -- DOOC002: dropped Effect lists -------------------------------------------


@register(
    "DOOC002",
    "dropped-effects",
    "LocalStore call returning list[Effect] used as a bare statement; "
    "the effects must be executed by the driver",
)
def check_dropped_effects(tree: ast.Module, path: str) -> Iterator[Violation]:
    for body in _scopes(tree):
        for stmt in _walk_scope(body):
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Call)):
                continue
            call = stmt.value
            if not isinstance(call.func, ast.Attribute):
                continue  # only store *methods* return effect lists
            name = call.func.attr
            if name not in EFFECT_FUNCS:
                continue
            receiver = _receiver_name(call)
            if _is_lockish(receiver):
                continue  # `lock.release()` is threading, not storage
            if name == "release" and (receiver is None
                                      or "store" not in receiver.lower()):
                # `release` is the one effect method whose name collides
                # with threading locks and the DES resource primitives;
                # only store-ish receivers (`store`, `self.store`, ...)
                # return Effect lists.
                continue
            yield Violation(
                "DOOC002", path, stmt.lineno, stmt.col_offset,
                f"return value of {name}() discarded; it is a list[Effect] "
                "the driver must execute (bind it and run the effects)",
            )


# -- DOOC003: blocking calls under a lock ------------------------------------


def _blocking_reason(call: ast.Call, held: list[str]) -> str | None:
    """Why ``call`` blocks under the locks ``held`` (their source text,
    outermost first), or None."""
    name = _call_name(call)
    receiver = _receiver_name(call)
    if name == "sleep" and (receiver in (None, "time")):
        return "time.sleep() under a lock stalls every waiter"
    if name == "open" and receiver in (None, "os", "io", "gzip"):
        return "file open under a lock serializes I/O behind the lock"
    if receiver == "subprocess":
        return "subprocess work under a lock blocks all contenders"
    if name == "wait" and not call.args and not any(
            kw.arg == "timeout" for kw in call.keywords):
        if (isinstance(call.func, ast.Attribute)
                and set(held) == {ast.unparse(call.func.value)}):
            return None  # `with c: c.wait()`: the wait releases the lock
        return ("untimed .wait() on another object under a lock parks "
                "with the lock held")
    if name == "join" and not call.args and not any(
            kw.arg == "timeout" for kw in call.keywords):
        if receiver is None or _is_lockish(receiver):
            return None
        # str.join always takes an iterable argument, so a no-arg join
        # is a thread/process join.
        return "untimed .join() under a lock can deadlock"
    return None


@register(
    "DOOC003",
    "blocking-under-lock",
    "blocking call (sleep, file open, untimed join, untimed wait on "
    "anything but the lock held, subprocess) inside a `with <lock>:` body",
)
def check_blocking_under_lock(tree: ast.Module,
                              path: str) -> Iterator[Violation]:
    for body in _scopes(tree):

        def visit(stmts: list[ast.stmt],
                  held: list[str]) -> Iterator[Violation]:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                inner = held
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    inner = held + [
                        ast.unparse(item.context_expr) for item in stmt.items
                        if _is_lockish(_terminal_name(item.context_expr))]
                elif held:
                    for call in _calls_in(stmt):
                        reason = _blocking_reason(call, held)
                        if reason is not None:
                            yield Violation(
                                "DOOC003", path, call.lineno,
                                call.col_offset, reason)
                for field in ("body", "orelse", "finalbody"):
                    yield from visit(getattr(stmt, field, []) or [], inner)
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from visit(handler.body, inner)

        yield from visit(body, [])


# -- DOOC004: trace vocabulary ----------------------------------------------


def _is_tracer_receiver(func: ast.Attribute) -> bool:
    name = _terminal_name(func.value)
    return name in _TRACER_RECEIVERS


def _event_name_arg(call: ast.Call) -> ast.expr | None:
    """The event-name argument of instant/complete/counter/span calls."""
    for kw in call.keywords:
        if kw.arg == "name":
            return kw.value
    # signature: (node, lane, cat, name, ...)
    if len(call.args) >= 4:
        return call.args[3]
    return None


@register(
    "DOOC004",
    "unknown-trace-event",
    "event name literal is not in the central vocabulary "
    "(repro.obs.vocab.EVENTS)",
)
def check_trace_vocabulary(tree: ast.Module,
                           path: str) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in TRACER_METHODS
                and _is_tracer_receiver(func)):
            continue
        arg = _event_name_arg(node)
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            continue  # dynamic names cannot be checked lexically
        if arg.value not in EVENT_NAMES:
            yield Violation(
                "DOOC004", path, arg.lineno, arg.col_offset,
                f"trace event {arg.value!r} is not in the central "
                "vocabulary; add it to repro.obs.vocab.EVENTS or use a "
                "registered name",
            )


# -- DOOC005-008, DOOC013: the fence table ------------------------------------


def _in(path: str, place: str) -> bool:
    """Is ``path`` the module ``place``, or a module directly inside the
    package ``place``?"""
    path = "/" + path.replace("\\", "/")
    return (path.endswith("/" + place)
            or path.rsplit("/", 1)[0].endswith("/" + place))


def _call_to(name: str, receivers: tuple[str | None, ...] | None = None):
    """Matcher for a call to ``name`` (on one of ``receivers``, if given)."""
    def match(node: ast.AST, stmt: ast.stmt | None) -> str | None:
        if (isinstance(node, ast.Call) and _call_name(node) == name
                and (receivers is None or _receiver_name(node) in receivers)):
            return f"{name}()"
        return None
    return match


def _nap(node: ast.AST, stmt: ast.stmt | None) -> str | None:
    """Matcher for a wait on a tuned period: ``time.sleep(...)``, or a
    ``.poll(<non-zero constant>)`` (``poll(0)`` only looks)."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "poll"):
        timeout = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "timeout"), None)
        if (isinstance(timeout, ast.Constant)
                and type(timeout.value) in (int, float) and timeout.value):
            return "poll()"
    return _call_to("sleep", (None, "time"))(node, stmt)


def _mentions_durable(node: ast.AST) -> bool:
    """Does ``node`` name a recovery-critical (.blk/.ckpt) artifact?"""
    return any(isinstance(n, ast.Constant) and isinstance(n.value, str)
               and (".blk" in n.value or ".ckpt" in n.value)
               for n in ast.walk(node))


def _opens_to_write(call: ast.Call) -> bool:
    """Is this ``open(...)`` (or ``os.open``/``io.open``) opened to write?"""
    if _call_name(call) != "open" or _receiver_name(call) not in (
            None, "os", "io"):
        return False
    mode: ast.expr | None = call.args[1] if len(call.args) >= 2 else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    # the default mode is "r"; a dynamic mode passes
    return (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and any(c in "wax" for c in mode.value))


def _durable_write(node: ast.AST, stmt: ast.stmt | None) -> str | None:
    """Matcher for a write whose call, or whose statement's header, names
    a durable artifact.  Compound statements only contribute their
    headers (a ``with`` body mentioning ``.blk`` must not taint an
    unrelated ``open`` in the ``with`` line)."""
    if not isinstance(node, ast.Call):
        return None
    if _opens_to_write(node):
        writer = "open()"
    elif (isinstance(node.func, ast.Attribute)
          and node.func.attr in ("write_bytes", "write_text")):
        writer = f"{node.func.attr}()"
    else:
        return None
    header = (stmt.items if isinstance(stmt, (ast.With, ast.AsyncWith))
              else [stmt] if isinstance(stmt, (ast.Assign, ast.AnnAssign,
                                               ast.AugAssign, ast.Expr,
                                               ast.Return))
              else [])
    return writer if any(map(_mentions_durable, [node, *header])) else None


def _compression_import(node: ast.AST, stmt: ast.stmt | None) -> str | None:
    names = ([a.name for a in node.names] if isinstance(node, ast.Import)
             else [node.module or ""] if isinstance(node, ast.ImportFrom)
             else [])
    names = [n for n in names if n.split(".")[0] in ("zlib", "lzma", "bz2")]
    return f"import {', '.join(names)}" if names else None


@dataclass(frozen=True)
class Fence:
    """One "this call or import belongs in one place" rule."""

    code: str
    name: str
    description: str
    #: (node, its innermost statement) -> what was matched, or None
    fenced: Callable[[ast.AST, ast.stmt | None], str | None]
    #: "outside <its home module>" or "inside <the package it is banned from>"
    scope: str


FENCES = (
    Fence("DOOC005", "non-atomic-durable-write",
          "checkpoint/manifest/block (.blk/.ckpt) files must be written via "
          "repro.util.atomicio.atomic_write or atomic_file, not bare "
          "open()/write_bytes()",
          _durable_write, "outside repro/util/atomicio.py"),
    Fence("DOOC006", "raw-shared-memory",
          "SharedMemory() constructed outside repro.core.shm; segments must "
          "be allocated through SegmentPool / mapped through attach_view so "
          "leases, generations and unlink sweeps stay coherent",
          _call_to("SharedMemory"), "outside repro/core/shm.py"),
    Fence("DOOC007", "direct-compression-call",
          "zlib/lzma/bz2 used outside repro.core.codecs; compression must go "
          "through the codec registry so on-disk formats stay "
          "self-describing and DOOC_CODEC snapshot semantics hold",
          _compression_import, "outside repro/core/codecs.py"),
    Fence("DOOC008", "raw-mapping",
          "mmap.mmap / libc.mmap called outside repro.core.iofilter; block "
          "mappings hold no file descriptor, die with their last view and "
          "are read-only only because one module makes them all",
          _call_to("mmap"), "outside repro/core/iofilter.py"),
    Fence("DOOC013", "sleep-in-server",
          "time.sleep(...) inside repro/server; the job service's control "
          "plane must park on threading.Event/Condition waits so drains, "
          "deadlines and cancels can interrupt it — a sleeping thread "
          "ignores SIGTERM for the rest of its nap",
          _call_to("sleep", (None, "time")), "inside repro/server"),
    Fence("DOOC014", "sleep-in-core",
          "time.sleep(...) or .poll(<non-zero constant>) inside repro/core; "
          "control-plane threads park on condition waits, stream reads or "
          "connection waits and wake on a notification or a deadline of "
          "their own, never on a tuned nap",
          _nap, "inside repro/core"),
)


def check_fence(fence: Fence, tree: ast.Module,
                path: str) -> Iterator[Violation]:
    """The one checker of every :data:`FENCES` row."""
    where, place = fence.scope.split()
    if _in(path, place) != (where == "inside"):
        return
    stack: list[tuple[ast.AST, ast.stmt | None]] = [(tree, None)]
    while stack:  # every node, paired with its innermost statement
        node, stmt = stack.pop()
        if isinstance(node, ast.stmt):
            stmt = node
        what = fence.fenced(node, stmt)
        if what is not None:
            yield Violation(fence.code, path, node.lineno, node.col_offset,
                            f"{what}: {fence.description}")
        stack.extend((child, stmt) for child in ast.iter_child_nodes(node))


for _fence in FENCES:
    register(_fence.code, _fence.name, _fence.description)(
        partial(check_fence, _fence))

"""Repo-specific lint rules for the DOoC protocol discipline.

Codes (stable; see docs/ANALYSIS.md for the catalog with rationale):

========  ==================================================================
DOOC001   ticket leak: a ``request_read``/``request_write``/``_acquire``
          result must reach a release on every path (``try/finally`` or an
          exception handler that releases/aborts), unless ownership is
          handed off to the driver protocol by tagging the ticket
          (``ticket.tag = ...``).
DOOC002   dropped effects: a ``LocalStore`` method returning
          ``list[Effect]`` called as a bare statement — the effects were
          never executed, so loads/spills/grants silently vanish.
DOOC003   blocking call under a lock: ``time.sleep``, ``open``/``os.open``,
          an untimed ``.wait()`` or ``.join()``, or ``subprocess`` work
          inside a ``with <lock>:`` body stalls every thread contending on
          that lock.
DOOC004   unknown trace event: a string literal passed as the event name to
          ``Tracer.instant/complete/counter/span`` that is not part of the
          central vocabulary (:mod:`repro.obs.vocab`).
DOOC005   non-atomic durable write: a bare ``open(..., "w"/"wb")``,
          ``.write_bytes()`` or ``.write_text()`` on a ``.blk``/``.ckpt``
          path.  Checkpoint payloads and manifests are recovery inputs —
          a torn write silently poisons restart, so they must go through
          ``repro.util.atomicio.atomic_write`` (temp + fsync + rename).
DOOC006   raw shared memory: ``SharedMemory(...)`` constructed outside
          ``repro.core.shm``.  Segments made elsewhere escape the pool's
          lease refcounts, generation stamps and unlink sweeps — they
          leak ``/dev/shm`` entries and break the crash-cleanup
          invariant.  Allocate via ``SegmentPool`` / attach via
          ``attach_view`` instead.
DOOC007   direct compression call: ``zlib``/``lzma``/``bz2`` imported outside
          ``repro.core.codecs``; on-disk formats stay self-describing only
          if every encode/decode goes through the codec registry.
DOOC008   raw mapping: ``mmap.mmap`` or ``libc.mmap`` called
          outside ``repro.core.iofilter``.  A block's mapping holds no
          file descriptor, is unmapped with the last view of it and is
          read-only; the three guarantees live in one place, and a
          mapping made elsewhere has none of them.
DOOC013   sleep in the server: ``time.sleep(...)`` inside ``repro/server``;
          its control plane parks on ``Event``/``Condition`` waits so
          drains, deadlines and cancels can interrupt it.
========  ==================================================================

The rules are deliberately lexical (single-function, no dataflow): they
catch the protocol mistakes that actually bit this repo while staying fast
and explainable.  Known-safe deviations are suppressed at the call site
with ``# dooc: noqa[CODE]`` and a justification comment.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint import EFFECT_FUNCS, Violation, register
from repro.obs.vocab import EVENT_NAMES

__all__ = [
    "REQUEST_FUNCS",
    "RELEASE_FUNCS",
    "EFFECT_FUNCS",
    "TRACER_METHODS",
]

#: callables whose result carries tickets that must be released:
#: ``LocalStore``'s two requests and the worker's one call for a whole task
REQUEST_FUNCS = frozenset({
    "request_read", "request_write", "_acquire",
})

#: callables that return, release or abandon tickets on a failure path
RELEASE_FUNCS = frozenset({
    "release", "release_all", "_release_all",
    "abandon", "abandon_write", "_abort", "abort",
})

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


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    """Every call under ``node``, not descending into nested defs/lambdas."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        yield from _calls_in(child)
    if isinstance(node, ast.Call):
        yield node


def _contains_release(nodes: list[ast.stmt]) -> bool:
    return any(_call_name(call) in RELEASE_FUNCS
               for stmt in nodes for call in _calls_in(stmt))


# -- DOOC001: ticket leaks ---------------------------------------------------


def _guarding_try(stmt_stack: list[ast.stmt]) -> bool:
    """Is the innermost statement protected by a releasing try?

    A :class:`ast.Try` ancestor guards its body when its ``finally`` block
    or one of its exception handlers reaches a release/abort call.
    """
    for ancestor in stmt_stack:
        if not isinstance(ancestor, ast.Try):
            continue
        if _contains_release(ancestor.finalbody):
            return True
        for handler in ancestor.handlers:
            if _contains_release(handler.body):
                return True
    return False


def _bound_ticket_names(targets: list[ast.expr]) -> list[str]:
    """Names that receive the ticket(s) from a request call."""
    out: list[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            out.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)) and target.elts:
            # `(ticket, effects) = store.request_read(...)`: the ticket is
            # the first element by the LocalStore API shape.
            first = target.elts[0]
            if isinstance(first, ast.Name):
                out.append(first.id)
    return out


def _tagged_names(body: list[ast.stmt]) -> set[str]:
    """Ticket variables handed to the driver protocol via ``x.tag = ...``."""
    out: set[str] = set()
    for stmt in _walk_scope(body):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if (isinstance(target, ast.Attribute) and target.attr == "tag"
                        and isinstance(target.value, ast.Name)):
                    out.add(target.value.id)
    return out


@register(
    "DOOC001",
    "ticket-leak",
    "ticket request result must be released on all paths "
    "(try/finally, a releasing exception handler, or a ticket.tag handoff)",
)
def check_ticket_leak(tree: ast.Module, path: str) -> Iterator[Violation]:
    for body in _scopes(tree):
        tagged = _tagged_names(body)

        def visit(stmts: list[ast.stmt],
                  stack: list[ast.stmt]) -> Iterator[Violation]:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                request: ast.Call | None = None
                names: list[str] = []
                if isinstance(stmt, ast.Assign) and isinstance(
                        stmt.value, ast.Call):
                    if _call_name(stmt.value) in REQUEST_FUNCS:
                        request = stmt.value
                        names = _bound_ticket_names(stmt.targets)
                elif isinstance(stmt, ast.Expr) and isinstance(
                        stmt.value, ast.Call):
                    if _call_name(stmt.value) in REQUEST_FUNCS:
                        request = stmt.value  # result discarded outright
                if request is not None:
                    handed_off = any(n in tagged for n in names)
                    if not handed_off and not _guarding_try(stack + [stmt]):
                        fn = _call_name(request)
                        yield Violation(
                            "DOOC001", path, stmt.lineno, stmt.col_offset,
                            f"result of {fn}() is not guarded: wrap the "
                            "use in try/finally (or an exception handler "
                            "that releases/aborts), or hand the ticket to "
                            "the driver via `ticket.tag = ...`",
                        )
                stack.append(stmt)
                for field in ("body", "orelse", "finalbody"):
                    yield from visit(getattr(stmt, field, []) or [], stack)
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from visit(handler.body, stack)
                stack.pop()

        yield from visit(body, [])


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


def _blocking_reason(call: ast.Call) -> str | None:
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
        return ("untimed .wait() under a lock cannot observe runtime "
                "failure; pass a timeout")
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
    "blocking call (sleep, file open, untimed wait/join, subprocess) "
    "inside a `with <lock>:` body",
)
def check_blocking_under_lock(tree: ast.Module,
                              path: str) -> Iterator[Violation]:
    for body in _scopes(tree):

        def visit(stmts: list[ast.stmt],
                  lock_depth: int) -> Iterator[Violation]:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                depth = lock_depth
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    if any(_is_lockish(_terminal_name(item.context_expr))
                           for item in stmt.items):
                        depth += 1
                elif depth > 0:
                    for call in _calls_in(stmt):
                        reason = _blocking_reason(call)
                        if reason is not None:
                            yield Violation(
                                "DOOC003", path, call.lineno,
                                call.col_offset, reason)
                for field in ("body", "orelse", "finalbody"):
                    yield from visit(getattr(stmt, field, []) or [], depth)
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from visit(handler.body, depth)

        yield from visit(body, 0)


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


# -- DOOC005: non-atomic durable writes --------------------------------------

#: filename fragments marking recovery-critical artifacts
_DURABLE_FRAGMENTS = (".blk", ".ckpt")

#: write modes of ``open`` that replace or extend a durable file
_WRITE_MODES = frozenset("wax")


def _mentions_durable(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Constant) and isinstance(n.value, str)
        and any(f in n.value for f in _DURABLE_FRAGMENTS)
        for n in ast.walk(node)
    )


def _open_write_mode(call: ast.Call) -> bool:
    """Is this ``open(...)`` (or ``os.open``/``io.open``) opened to write?"""
    if _call_name(call) != "open":
        return False
    receiver = _receiver_name(call)
    if receiver not in (None, "os", "io"):
        return False
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return False  # default mode is "r"; dynamic modes pass
    return any(c in _WRITE_MODES for c in mode.value)


@register(
    "DOOC005",
    "non-atomic-durable-write",
    "checkpoint/manifest/block (.blk/.ckpt) files must be written via "
    "repro.util.atomicio.atomic_write, not bare open()/write_bytes()",
)
def check_atomic_durable_writes(tree: ast.Module,
                                path: str) -> Iterator[Violation]:
    # The one legitimate bare writer is atomic_write itself (it writes the
    # temp file it later renames); its definition is exempt wholesale.
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "atomic_write"):
            exempt.update(id(n) for n in ast.walk(node))

    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    def durable_context(call: ast.Call) -> bool:
        """The call itself, or its statement's header, names a durable
        artifact.  Compound statements only contribute their headers (a
        ``with`` body mentioning ``.blk`` must not taint an unrelated
        ``open`` in the ``with`` line)."""
        if _mentions_durable(call):
            return True
        node: ast.AST = call
        while node in parents and not isinstance(node, ast.stmt):
            node = parents[node]
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                             ast.Expr, ast.Return)):
            return _mentions_durable(node)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return any(_mentions_durable(item) for item in node.items)
        return False

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        writer: str | None = None
        if _open_write_mode(node):
            writer = "open"
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr in ("write_bytes", "write_text")):
            writer = node.func.attr
        if writer is None or not durable_context(node):
            continue
        yield Violation(
            "DOOC005", path, node.lineno, node.col_offset,
            f"{writer}() writes a durable .blk/.ckpt artifact in place; a "
            "crash mid-write poisons recovery — use "
            "repro.util.atomicio.atomic_write (temp + fsync + rename)",
        )


# -- DOOC006: raw shared-memory construction ---------------------------------

#: the one module allowed to construct SharedMemory (the pool itself)
_SHM_HOME = ("repro", "core", "shm.py")


def _is_module(path: str, home: tuple[str, str, str]) -> bool:
    """Is ``path`` the one module a "home" rule exempts?"""
    parts = path.replace("\\", "/").split("/")
    return tuple(parts[-3:]) == home


@register(
    "DOOC006",
    "raw-shared-memory",
    "SharedMemory() constructed outside repro.core.shm; segments must be "
    "allocated through SegmentPool / mapped through attach_view so leases, "
    "generations and unlink sweeps stay coherent",
)
def check_raw_shared_memory(tree: ast.Module, path: str) -> Iterator[Violation]:
    if _is_module(path, _SHM_HOME):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) != "SharedMemory":
            continue
        yield Violation(
            "DOOC006", path, node.lineno, node.col_offset,
            "raw SharedMemory(...) bypasses the segment pool's lease "
            "refcounts and unlink sweep (a crash leaks /dev/shm); use "
            "repro.core.shm.SegmentPool.allocate / attach_view",
        )


# -- DOOC007: direct compression-library use ---------------------------------

#: the one module allowed to import zlib/lzma/bz2 (the codec registry)
_CODECS_HOME = ("repro", "core", "codecs.py")

#: stdlib compression modules the codec pipeline wraps
_COMPRESSION_MODULES = ("zlib", "lzma", "bz2")


@register(
    "DOOC007",
    "direct-compression-call",
    "zlib/lzma/bz2 used outside repro.core.codecs; compression must go "
    "through the codec registry so on-disk formats stay self-describing "
    "and DOOC_CODEC snapshot semantics hold",
)
def check_direct_compression(tree: ast.Module, path: str) -> Iterator[Violation]:
    if _is_module(path, _CODECS_HOME):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names
                     if a.name.split(".")[0] in _COMPRESSION_MODULES]
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            names = [root] if root in _COMPRESSION_MODULES else []
        else:
            continue
        for name in names:
            yield Violation(
                "DOOC007", path, node.lineno, node.col_offset,
                f"direct {name} use bypasses the codec registry (headers "
                "would no longer name the codec and DOOC_CODEC would not "
                "apply); encode/decode through repro.core.codecs instead",
            )


# -- DOOC008: memory mappings made outside the block loader ------------------

#: the one module allowed to map memory (the block loader)
_MAPPING_HOME = ("repro", "core", "iofilter.py")


@register(
    "DOOC008",
    "raw-mapping",
    "mmap.mmap / libc.mmap called outside repro.core.iofilter; block "
    "mappings hold no file descriptor, die with their last view and are "
    "read-only only because one module makes them all",
)
def check_raw_mapping(tree: ast.Module, path: str) -> Iterator[Violation]:
    if _is_module(path, _MAPPING_HOME):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) != "mmap":
            continue
        yield Violation(
            "DOOC008", path, node.lineno, node.col_offset,
            "raw mmap(...) escapes the block loader's guarantees (no "
            "descriptor per mapping, munmap with the last view, read-only "
            "pages); load through repro.core.iofilter.read_block",
        )


# -- DOOC013: time.sleep in the job-server control plane -----------------------

#: directory whose modules must wait on Event/Condition, never sleep
_SERVER_HOME = ("repro", "server")


def _is_server_module(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    return tuple(parts[-3:-1]) == _SERVER_HOME


@register(
    "DOOC013",
    "sleep-in-server",
    "time.sleep(...) inside repro/server; the job service's control plane "
    "must park on threading.Event/Condition waits so drains, deadlines and "
    "cancels can interrupt it — a sleeping thread ignores SIGTERM for the "
    "rest of its nap",
)
def check_server_sleep(tree: ast.Module, path: str) -> Iterator[Violation]:
    if not _is_server_module(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        named_sleep = (isinstance(fn, ast.Attribute) and fn.attr == "sleep"
                       and isinstance(fn.value, ast.Name)
                       and fn.value.id == "time")
        bare_sleep = isinstance(fn, ast.Name) and fn.id == "sleep"
        if not (named_sleep or bare_sleep):
            continue
        yield Violation(
            "DOOC013", path, node.lineno, node.col_offset,
            "time.sleep() in the job server blocks deadlines, preemption "
            "and SIGTERM drain for its full duration; wait on a "
            "threading.Event/Condition with a timeout instead",
        )

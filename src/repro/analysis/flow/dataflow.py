"""Per-function dataflow summaries for the whole-program rules.

One pass over each function body produces a :class:`FunctionSummary` that
all three deep rules share:

* a small **alias lattice** over dotted roots (``b = a[1:]`` makes ``b``
  derive from ``a``; ``v = ticket.data`` makes ``v`` derive from
  ``ticket.data``), with *sealed sources* — expressions that produce
  read-only zero-copy views (``np.frombuffer``, ``read_block``,
  ``attach_view`` without ``writable=True``, tickets granted by
  ``request_read``);
* every **mutation sink** (subscript store, augmented assign, in-place
  ndarray method, ``np.copyto``-style destination write, a
  ``writeable``/``setflags(write=True)`` flip) with the dotted root it
  mutates;
* every **lock acquisition** (``with <lockish>:``) and every **call**
  made while locks are held, keyed by a static lock identity
  (``ClassName.attr`` for ``self``-attached locks);
* the **effect facts**: whether the function returns a ``list[Effect]``
  (directly, through an accumulator variable, or by returning another
  call), plus bare-statement calls and bound-but-unused call results.

The lattice is flow-insensitive: a name is sealed if *any* assignment in
the function makes it so.  That trades a little precision (a rebound name
stays tainted) for a lot of robustness — and ``# dooc: noqa[...]`` exists
for the rare deliberate deviation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.flow.callgraph import CallGraph, FunctionInfo, dotted_expr
from repro.analysis.lint import EFFECT_FUNCS
from repro.analysis.rules import (_SKIP_NESTED, _call_name, _calls_in,
                                  _is_lockish)

__all__ = [
    "SealFact",
    "Mutation",
    "LockAcquire",
    "CallEvent",
    "FunctionSummary",
    "summarize",
    "sealed_lookup",
    "sealed_closure",
]

#: ndarray methods that return a *view* of the receiver
VIEW_METHODS = frozenset({
    "reshape", "view", "ravel", "squeeze", "transpose", "swapaxes",
    "diagonal", "asarray",
})

#: ndarray attributes that alias the receiver's buffer (``.data`` also
#: covers ``ticket.data``: the granted view aliases the ticket's block)
VIEW_ATTRS = frozenset({"T", "real", "imag", "flat", "data"})

#: np.* functions that return a view / no-copy wrapper of their first arg
VIEW_FUNCS = frozenset({"asarray", "atleast_1d", "atleast_2d"})

#: ndarray methods that mutate the receiver in place
INPLACE_METHODS = frozenset({
    "sort", "fill", "put", "partition", "itemset", "setfield", "resize",
    "byteswap",
})

#: np.* functions whose FIRST argument is a written-to destination
DEST_WRITE_FUNCS = frozenset({
    "copyto", "place", "putmask", "put_along_axis", "put",
})

#: callables that grant read-only tickets (ticket.data is a sealed view)
READ_GRANT_FUNCS = frozenset({"request_read"})

@dataclass(frozen=True)
class SealFact:
    """Why a dotted root is sealed, and how the taint got here."""

    origin: str                 # e.g. "np.frombuffer view at core/shm.py:165"
    path: tuple[str, ...] = ()  # interprocedural hops, oldest first


@dataclass(frozen=True)
class Mutation:
    kind: str    # subscript-store / augmented-assign / inplace-method /
    #            # dest-write / writeable-flip
    root: str    # dotted root of the mutated expression
    detail: str  # human fragment ("v[...] = ...", ".sort()", ...)
    line: int
    col: int


@dataclass(frozen=True)
class LockAcquire:
    key: str                  # static lock identity
    held: tuple[str, ...]     # locks already held at this acquisition
    line: int
    col: int


@dataclass(frozen=True)
class CallEvent:
    call: ast.Call
    held: tuple[str, ...]     # locks held around the call
    line: int
    col: int


@dataclass
class FunctionSummary:
    info: FunctionInfo
    #: tgt dotted root -> src dotted roots it derives from
    aliases: list[tuple[str, str]] = field(default_factory=list)
    #: dotted root -> seal fact for intraprocedural sealed sources
    sources: dict[str, SealFact] = field(default_factory=dict)
    mutations: list[Mutation] = field(default_factory=list)
    acquires: list[LockAcquire] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    #: dotted roots appearing in a `return` statement
    returned_roots: set[str] = field(default_factory=set)
    #: True when a `return` directly returns a sealed-source expression
    returns_sealed_expr: SealFact | None = None
    #: calls whose result is returned (directly or via a returned name)
    returned_calls: list[ast.Call] = field(default_factory=list)
    #: (target name, call, line, col) for `name = f(...)` bindings
    assigned_calls: list[tuple[str, ast.Call, int, int]] = field(
        default_factory=list)
    #: bare `f(...)` statements
    bare_calls: list[tuple[ast.Call, int, int]] = field(default_factory=list)
    #: True when the function returns LocalStore effects directly
    returns_effects_direct: bool = False
    #: every Name read anywhere in the body (for unused-binding checks)
    loaded_names: set[str] = field(default_factory=set)


# -- expression helpers -------------------------------------------------------


def _receiver(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return dotted_expr(call.func.value)
    return None


def root_of(node: ast.AST) -> str | None:
    """Dotted root an expression's buffer aliases, or None (fresh value).

    ``a`` -> "a", ``a.b[0].c`` -> "a.b.c", ``a.reshape(...)`` -> "a",
    ``np.asarray(a)`` -> "a"; arithmetic/copies return None.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = root_of(node.value)
        return None if base is None else f"{base}.{node.attr}"
    if isinstance(node, ast.Subscript):
        return root_of(node.value)
    if isinstance(node, ast.Starred):
        return root_of(node.value)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in VIEW_METHODS:
            return root_of(func.value)
        if (_call_name(node) in VIEW_FUNCS and node.args):
            return root_of(node.args[0])
    return None


#: wrapper functions whose *call site* decides view writability; their
#: returns must not be blanket-tainted interprocedurally (the keyword is
#: only visible at the call).  ``block_buffer`` is the thread plane's
#: allocator (repro.core.iofilter): it wraps fresh memory of its own with
#: ``frombuffer`` and hands it out writable — fill-then-seal, as
#: ``SegmentPool.ndarray``.
VIEW_CONSTRUCTOR_NAMES = frozenset({"frombuffer", "attach_view", "ndarray",
                                    "block_buffer"})


def _kw_is_true(call: ast.Call, name: str) -> bool:
    for kw in call.keywords:
        if (kw.arg == name and isinstance(kw.value, ast.Constant)
                and kw.value.value is True):
            return True
    return False


def _sealed_source(call: ast.Call, path: str) -> str | None:
    """Origin string when a call expression creates a sealed view."""
    name = _call_name(call)
    if name == "frombuffer":
        return f"np.frombuffer view at {path}:{call.lineno}"
    if name == "read_block":
        # a loaded block is published frozen, whether it is a file
        # mapping or allocator memory the loader filled and sealed
        return f"read_block() loaded block at {path}:{call.lineno}"
    if name == "attach_view":
        if _kw_is_true(call, "writable"):
            return None  # an explicit write-grant view
        return f"attach_view() segment view at {path}:{call.lineno}"
    if name == "ndarray":
        # SegmentPool.ndarray(...): writable by default (fill-then-seal),
        # sealed only when the caller asks for readonly=True.
        receiver = _receiver(call)
        tail = receiver.split(".")[-1] if receiver else ""
        if "pool" in tail.lower() and _kw_is_true(call, "readonly"):
            return f"segment-pool readonly view at {path}:{call.lineno}"
        return None
    return None


def is_effectful_call(call: ast.Call) -> bool:
    """Is this a direct LocalStore call returning ``list[Effect]``?

    Mirrors the DOOC002 receiver discipline: ``release`` only counts on
    store-ish receivers so threading locks and DES resources stay out.
    """
    if not isinstance(call.func, ast.Attribute):
        return False
    name = call.func.attr
    if name not in EFFECT_FUNCS:
        return False
    receiver = dotted_expr(call.func.value)
    tail = receiver.split(".")[-1] if receiver else None
    if _is_lockish(tail):
        return False
    if name == "release" and (tail is None or "store" not in tail.lower()):
        return False
    return True


def _lock_key(expr: ast.expr, info: FunctionInfo) -> str | None:
    """Static identity of a lock in a ``with`` item, or None if not lockish.

    ``self._lock`` in a method of ``LocalStore`` keys as
    ``LocalStore._lock`` — the *class-attribute* granularity a lock-order
    discipline is stated at.  Other receivers key textually.
    """
    dotted = dotted_expr(expr)
    if dotted is None and isinstance(expr, ast.Call):
        # `with lock_for(x):` — key on the call name when lockish.
        name = _call_name(expr)
        dotted = name
    if dotted is None:
        return None
    tail = dotted.split(".")[-1]
    if not _is_lockish(tail):
        return None
    parts = dotted.split(".")
    if parts[0] in ("self", "cls") and info.cls is not None:
        return ".".join([info.cls, *parts[1:]])
    if len(parts) == 1:
        return f"{info.module}:{parts[0]}"
    return dotted


# -- the summary pass ----------------------------------------------------------


def summarize(info: FunctionInfo, graph: CallGraph) -> FunctionSummary:
    """Build the shared dataflow summary for one function."""
    s = FunctionSummary(info)
    path = info.path

    def seal_origin(value: ast.expr) -> str | None:
        """Sealed origin of an expression, following only view-preserving
        structure (a copying call like ``np.array(frombuffer(...))`` does
        not propagate the seal)."""
        if isinstance(value, ast.Call):
            origin = _sealed_source(value, path)
            if origin is not None:
                return origin
            if _call_name(value) in VIEW_FUNCS and value.args:
                return seal_origin(value.args[0])
            if (isinstance(value.func, ast.Attribute)
                    and value.func.attr in VIEW_METHODS):
                return seal_origin(value.func.value)
            return None
        if isinstance(value, (ast.Subscript, ast.Starred)):
            return seal_origin(value.value)
        if isinstance(value, ast.Attribute) and value.attr in VIEW_ATTRS:
            return seal_origin(value.value)
        return None

    def note_value(target_root: str | None, value: ast.expr,
                   line: int, col: int) -> None:
        """Record alias/seal facts for ``target = value``."""
        if target_root is None:
            return
        src = root_of(value)
        if src is not None and src != target_root:
            s.aliases.append((target_root, src))
        origin = seal_origin(value)
        if origin is not None:
            s.sources[target_root] = SealFact(origin)

    def mutated_root(expr: ast.expr, line: int, col: int) -> str | None:
        """Dotted root for a mutated expression; anonymous sealed
        expressions (``np.frombuffer(b)[:] = ...``) get a synthetic
        pre-sealed root so the mutation still anchors somewhere."""
        root = root_of(expr)
        if root is not None:
            return root
        origin = seal_origin(expr)
        if origin is not None:
            key = f"<expr@{line}:{col}>"
            s.sources[key] = SealFact(origin)
            return key
        return None

    def scan_expr(node: ast.expr) -> None:
        """Mutation sinks + loads inside one expression."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                s.loaded_names.add(sub.id)
        for call in _calls_in(node):
            name = _call_name(call)
            if (isinstance(call.func, ast.Attribute)
                    and name in INPLACE_METHODS):
                root = mutated_root(call.func.value, call.lineno,
                                    call.col_offset)
                if root is not None:
                    s.mutations.append(Mutation(
                        "inplace-method", root, f".{name}()",
                        call.lineno, call.col_offset))
            elif name in DEST_WRITE_FUNCS and call.args:
                receiver = _receiver(call)
                if receiver in (None, "np", "numpy"):
                    root = mutated_root(call.args[0], call.lineno,
                                        call.col_offset)
                    if root is not None:
                        s.mutations.append(Mutation(
                            "dest-write", root, f"np.{name}(dst, ...)",
                            call.lineno, call.col_offset))
            elif (isinstance(call.func, ast.Attribute)
                  and name == "setflags"):
                for kw in call.keywords:
                    if (kw.arg == "write"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value):
                        root = root_of(call.func.value)
                        if root is not None:
                            s.mutations.append(Mutation(
                                "writeable-flip", root,
                                ".setflags(write=True)",
                                call.lineno, call.col_offset))

    def note_assign_targets(targets: list[ast.expr], value: ast.expr,
                            line: int, col: int) -> None:
        for target in targets:
            if isinstance(target, ast.Name):
                note_value(target.id, value, line, col)
                if isinstance(value, ast.Call):
                    s.assigned_calls.append((target.id, value, line, col))
                # request_read grants: the bound ticket's .data is sealed.
                if (isinstance(value, ast.Call)
                        and _call_name(value) in READ_GRANT_FUNCS):
                    s.sources[target.id] = SealFact(
                        f"read grant ({_call_name(value)}) at "
                        f"{path}:{line}")
            elif isinstance(target, (ast.Tuple, ast.List)):
                # `ticket, effects = store.request_read(iv)`: the ticket is
                # the first element by the LocalStore API shape.
                if (isinstance(value, ast.Call)
                        and _call_name(value) in READ_GRANT_FUNCS
                        and target.elts
                        and isinstance(target.elts[0], ast.Name)):
                    s.sources[target.elts[0].id] = SealFact(
                        f"read grant ({_call_name(value)}) at "
                        f"{path}:{line}")
            elif isinstance(target, ast.Subscript):
                root = mutated_root(target.value, line, col)
                if root is not None:
                    s.mutations.append(Mutation(
                        "subscript-store", root, "view[...] = ...",
                        line, col))
            elif isinstance(target, ast.Attribute):
                dotted = root_of(target)
                if dotted is not None and dotted.endswith(".writeable"):
                    if (isinstance(value, ast.Constant) and value.value):
                        base = dotted[:-len(".writeable")]
                        if base.endswith(".flags"):
                            base = base[:-len(".flags")]
                        s.mutations.append(Mutation(
                            "writeable-flip", base,
                            ".flags.writeable = True", line, col))
                elif dotted is not None:
                    note_value(dotted, value, line, col)

    def visit(stmts: list[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, _SKIP_NESTED):
                continue

            # -- generic: every call is a call event; every expr is scanned
            for sub_expr in _stmt_exprs(stmt):
                scan_expr(sub_expr)
                for call in _calls_in(sub_expr):
                    s.calls.append(CallEvent(call, held,
                                             call.lineno, call.col_offset))

            if isinstance(stmt, ast.Assign):
                note_assign_targets(stmt.targets, stmt.value,
                                    stmt.lineno, stmt.col_offset)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                note_assign_targets([stmt.target], stmt.value,
                                    stmt.lineno, stmt.col_offset)
            elif isinstance(stmt, ast.AugAssign):
                root = mutated_root(stmt.target, stmt.lineno,
                                    stmt.col_offset)
                if root is not None:
                    s.mutations.append(Mutation(
                        "augmented-assign", root, "view <op>= ...",
                        stmt.lineno, stmt.col_offset))
            elif isinstance(stmt, ast.For):
                if isinstance(stmt.target, ast.Name):
                    src = root_of(stmt.iter)
                    if src is not None:
                        s.aliases.append((stmt.target.id, src))
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                value = stmt.value
                root = root_of(value)
                if root is not None:
                    s.returned_roots.add(root)
                origin = seal_origin(value)
                if origin is not None:
                    s.returns_sealed_expr = SealFact(origin)
                if isinstance(value, ast.Call):
                    s.returned_calls.append(value)
                    if is_effectful_call(value):
                        s.returns_effects_direct = True
            elif isinstance(stmt, ast.Expr) and isinstance(
                    stmt.value, ast.Call):
                s.bare_calls.append((stmt.value, stmt.lineno,
                                     stmt.col_offset))

            # -- effect accumulators: effects.extend(store.release(t)) etc.
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                if (isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("extend", "append")
                        and call.args):
                    tgt = root_of(call.func.value)
                    arg = call.args[0]
                    if tgt is not None:
                        if (isinstance(arg, ast.Call)
                                and is_effectful_call(arg)):
                            s.aliases.append((tgt, _EFFECTS_TOKEN))
                        elif isinstance(arg, ast.Call):
                            s.assigned_calls.append(
                                (tgt, arg, stmt.lineno, stmt.col_offset))
                            s.loaded_names.add(tgt)
            if isinstance(stmt, ast.AugAssign) and isinstance(
                    stmt.value, ast.Call):
                tgt = root_of(stmt.target)
                if tgt is not None and is_effectful_call(stmt.value):
                    s.aliases.append((tgt, _EFFECTS_TOKEN))
            if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Call) and is_effectful_call(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        s.aliases.append((target.id, _EFFECTS_TOKEN))

            # -- control flow ------------------------------------------------
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = held
                for item in stmt.items:
                    key = _lock_key(item.context_expr, info)
                    if key is not None:
                        s.acquires.append(LockAcquire(
                            key, inner, stmt.lineno, stmt.col_offset))
                        inner = (*inner, key)
                    if item.optional_vars is not None and isinstance(
                            item.optional_vars, ast.Name):
                        note_value(item.optional_vars.id, item.context_expr,
                                   stmt.lineno, stmt.col_offset)
                visit(stmt.body, inner)
                continue

            for fld in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, fld, []) or [], held)
            for handler in getattr(stmt, "handlers", []) or []:
                visit(handler.body, held)

    visit(info.node.body, ())
    return s


#: pseudo-root marking "this name carries LocalStore effects"
_EFFECTS_TOKEN = "<effects>"


def _stmt_exprs(stmt: ast.stmt):
    """The expression children of a statement (headers of compound stmts
    only — bodies are visited as statements)."""
    for fld, value in ast.iter_fields(stmt):
        if fld in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    yield item
                elif isinstance(item, ast.withitem):
                    yield item.context_expr


# -- sealed-set closure --------------------------------------------------------


def sealed_lookup(sealed: dict[str, SealFact], key: str) -> SealFact | None:
    """Exact or dotted-prefix hit: ``ticket.data`` is sealed when
    ``ticket`` is."""
    if key in sealed:
        return sealed[key]
    parts = key.split(".")
    for i in range(len(parts) - 1, 0, -1):
        fact = sealed.get(".".join(parts[:i]))
        if fact is not None:
            return fact
    return None


def sealed_closure(summary: FunctionSummary,
                   facts: dict[str, SealFact]) -> dict[str, SealFact]:
    """Propagate seal facts through the function's alias edges."""
    out = dict(summary.sources)
    out.update(facts)
    changed = True
    while changed:
        changed = False
        for tgt, src in summary.aliases:
            if tgt in out or src == _EFFECTS_TOKEN:
                continue
            fact = sealed_lookup(out, src)
            if fact is not None:
                out[tgt] = fact
                changed = True
    return out

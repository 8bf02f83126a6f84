"""Whole-program rules DOOC010..DOOC012 over the flow engine.

Each rule consumes a :class:`~repro.analysis.flow.Program` (call graph +
per-function dataflow summaries) and yields :class:`Violation` records:

========  ==================================================================
DOOC010   sealed-view mutation escape: an in-place mutation (subscript
          store, augmented assign, ``np.copyto``-style destination write,
          an in-place ndarray method, a ``writeable`` flip) reachable
          through the call graph from a sealed zero-copy source
          (``np.frombuffer``, a ``read_block`` load, ``attach_view``
          without ``writable=True``, a ``request_read`` grant);
          ``block_buffer`` memory is writable until its holder seals
          it.  The static complement of
          ``WritableReadViewError``.
DOOC011   static lock-order cycle: *held → taken* edges collected from
          ``with``-nesting and propagated across calls form a cycle in
          the class-attribute lock graph, reported with a call-path
          witness.  The static complement of ``LockOrderRecorder``.
DOOC012   interprocedural effect drop: the DOOC002 check pushed through
          helpers — a function that (transitively) returns a
          ``LocalStore`` ``list[Effect]`` called as a bare statement, or
          its result bound to a name that is never pumped.
========  ==================================================================

The rules are registered in :data:`repro.analysis.lint.DEEP_RULES` and run
by ``python -m repro lint --deep``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.flow.dataflow import (
    _EFFECTS_TOKEN,
    VIEW_CONSTRUCTOR_NAMES,
    SealFact,
    is_effectful_call,
    root_of,
    sealed_closure,
    sealed_lookup,
)
from repro.analysis.lint import Violation, register_deep

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.flow import Program

__all__ = ["check_sealed_view_escape", "check_static_lock_order",
           "check_effect_drop"]

#: fixpoint safety valve; real repos converge in a handful of rounds
_MAX_ROUNDS = 64


# -- DOOC010: sealed-view mutation escape -------------------------------------


def _fmt_path(fact: SealFact) -> str:
    if not fact.path:
        return ""
    return "; taint path: " + " -> ".join(fact.path)


@register_deep(
    "DOOC010",
    "sealed-view-mutation",
    "in-place mutation reachable from a sealed zero-copy view source "
    "(frombuffer / read_block / attach_view / read grant) through the call "
    "graph",
)
def check_sealed_view_escape(program: "Program") -> Iterator[Violation]:
    graph = program.graph
    summaries = program.summaries
    #: interprocedurally injected facts: qualname -> {dotted root: fact}
    inter: dict[str, dict[str, SealFact]] = {}
    returns_sealed: dict[str, SealFact] = {}

    changed = True
    rounds = 0
    while changed and rounds < _MAX_ROUNDS:
        changed = False
        rounds += 1
        for qual, summ in summaries.items():
            closure = sealed_closure(summ, inter.get(qual, {}))

            # does this function return a sealed view?  View-constructor
            # wrappers (attach_view, SegmentPool.ndarray) are excluded:
            # their writability is a call-site keyword, which the
            # call-site source rules in the dataflow pass already judge.
            if (qual not in returns_sealed
                    and summ.info.name not in VIEW_CONSTRUCTOR_NAMES):
                fact = summ.returns_sealed_expr
                if fact is None:
                    for root in summ.returned_roots:
                        fact = sealed_lookup(closure, root)
                        if fact is not None:
                            break
                if fact is None:
                    for call in summ.returned_calls:
                        callee = graph.resolve(call, summ.info)
                        if (callee is not None
                                and callee.qualname in returns_sealed
                                and callee.qualname != qual):
                            rf = returns_sealed[callee.qualname]
                            fact = SealFact(rf.origin, rf.path)
                            break
                if fact is not None:
                    returns_sealed[qual] = fact
                    changed = True

            # sealed arguments taint callee parameters
            for ev in summ.calls:
                callee = graph.resolve(ev.call, summ.info)
                if callee is None or callee.qualname not in summaries:
                    continue
                for arg_expr, param in graph.bind_args(ev.call, callee):
                    root = root_of(arg_expr)
                    if root is None:
                        continue
                    fact = sealed_lookup(closure, root)
                    if fact is None:
                        continue
                    tgt = inter.setdefault(callee.qualname, {})
                    if param not in tgt:
                        hop = (f"{summ.info.qualname} "
                               f"({summ.info.path}:{ev.line})")
                        tgt[param] = SealFact(fact.origin,
                                              (*fact.path, hop))
                        changed = True

            # sealed returns taint the names call results are bound to
            for name, call, line, _col in summ.assigned_calls:
                callee = graph.resolve(call, summ.info)
                if (callee is None or callee.qualname == qual
                        or callee.qualname not in returns_sealed):
                    continue
                tgt = inter.setdefault(qual, {})
                if name not in tgt:
                    rf = returns_sealed[callee.qualname]
                    hop = f"returned by {callee.qualname}"
                    tgt[name] = SealFact(rf.origin, (*rf.path, hop))
                    changed = True

    for qual, summ in summaries.items():
        closure = sealed_closure(summ, inter.get(qual, {}))
        for mut in summ.mutations:
            fact = sealed_lookup(closure, mut.root)
            if fact is None:
                continue
            yield Violation(
                "DOOC010", summ.info.path, mut.line, mut.col,
                f"{mut.detail} mutates a sealed zero-copy view in "
                f"{summ.info.qualname} (sealed origin: {fact.origin}"
                f"{_fmt_path(fact)}); sealed buffers are published "
                "immutable — copy first or route through a write grant",
            )


# -- DOOC011: static lock-order cycles ----------------------------------------


@dataclass(frozen=True)
class _EdgeWitness:
    path: str
    line: int
    text: str


@register_deep(
    "DOOC011",
    "static-lock-order-cycle",
    "held->acquired lock edges (with-nesting propagated across calls) "
    "form a cycle; reported with a call-path witness",
)
def check_static_lock_order(program: "Program") -> Iterator[Violation]:
    graph = program.graph
    summaries = program.summaries

    # locks (transitively) acquired below each function, with a witness
    # chain: qual -> {lock key: (path, line, call chain)}
    lock_sites: dict[str, dict[str, tuple[str, int, tuple[str, ...]]]] = {
        qual: {acq.key: (summ.info.path, acq.line, ())
               for acq in summ.acquires}
        for qual, summ in summaries.items()
    }
    changed = True
    rounds = 0
    while changed and rounds < _MAX_ROUNDS:
        changed = False
        rounds += 1
        for qual, summ in summaries.items():
            mine = lock_sites[qual]
            for ev in summ.calls:
                callee = graph.resolve(ev.call, summ.info)
                if callee is None or callee.qualname not in lock_sites:
                    continue
                hop = (f"{qual} -> {callee.qualname} "
                       f"({summ.info.path}:{ev.line})")
                for key, (p, line, chain) in lock_sites[
                        callee.qualname].items():
                    if key not in mine:
                        mine[key] = (p, line, (hop, *chain))
                        changed = True

    edges: dict[tuple[str, str], _EdgeWitness] = {}

    def add_edge(held: str, taken: str, witness: _EdgeWitness) -> None:
        if held != taken:
            edges.setdefault((held, taken), witness)

    for qual, summ in summaries.items():
        for acq in summ.acquires:
            for held in acq.held:
                add_edge(held, acq.key, _EdgeWitness(
                    summ.info.path, acq.line,
                    f"{held} held while {acq.key} acquired in {qual} "
                    f"({summ.info.path}:{acq.line})"))
        for ev in summ.calls:
            if not ev.held:
                continue
            callee = graph.resolve(ev.call, summ.info)
            if callee is None or callee.qualname not in lock_sites:
                continue
            for key, (p, line, chain) in lock_sites[
                    callee.qualname].items():
                via = (" via " + " -> ".join(chain)) if chain else ""
                for held in ev.held:
                    add_edge(held, key, _EdgeWitness(
                        summ.info.path, ev.line,
                        f"{held} held in {qual} while calling "
                        f"{callee.qualname} ({summ.info.path}:{ev.line})"
                        f"{via}; {key} acquired at {p}:{line}"))

    cycle = _find_cycle({e: None for e in edges})
    seen_cycles: set[frozenset[str]] = set()
    while cycle is not None:
        sig = frozenset(cycle)
        if sig in seen_cycles:  # pragma: no cover - defensive
            break
        seen_cycles.add(sig)
        lines = ["static lock-order cycle: " + " -> ".join(cycle)]
        anchor: _EdgeWitness | None = None
        for held, taken in zip(cycle, cycle[1:]):
            w = edges.get((held, taken))
            if w is not None:
                lines.append(w.text)
                anchor = anchor or w
        if anchor is None:  # pragma: no cover - defensive
            break
        yield Violation("DOOC011", anchor.path, anchor.line, 0,
                        "; ".join(lines))
        # break the reported cycle and look for independent ones
        for held, taken in zip(cycle, cycle[1:]):
            edges.pop((held, taken), None)
        cycle = _find_cycle({e: None for e in edges})


def _find_cycle(edges: dict[tuple[str, str], object]) -> list[str] | None:
    """A lock-key cycle (first node repeated at the end), or None."""
    succs: dict[str, list[str]] = {}
    for held, taken in edges:
        succs.setdefault(held, []).append(taken)
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    parent: dict[str, str] = {}

    def dfs(node: str) -> list[str] | None:
        color[node] = GREY
        for nxt in sorted(succs.get(node, [])):
            state = color.get(nxt, WHITE)
            if state == GREY:
                cycle = [node]
                cur = node
                while cur != nxt:
                    cur = parent[cur]
                    cycle.append(cur)
                cycle.reverse()
                cycle.append(nxt)
                # rotate so the cycle starts at its smallest node and
                # reads held -> taken along real edges
                body = cycle[:-1]
                pivot = body.index(min(body))
                body = body[pivot:] + body[:pivot]
                return [*body, body[0]]
            if state == WHITE:
                parent[nxt] = node
                found = dfs(nxt)
                if found:
                    return found
        color[node] = BLACK
        return None

    for node in sorted(succs):
        if color.get(node, WHITE) == WHITE:
            found = dfs(node)
            if found:
                return found
    return None


# -- DOOC012: interprocedural effect drop -------------------------------------


def _effect_names(summ, effect_returning: dict[str, str],
                  graph) -> set[str]:
    """Local names that carry a ``list[Effect]`` value."""
    eff: set[str] = set()
    changed = True
    while changed:
        changed = False
        for tgt, src in summ.aliases:
            if tgt in eff:
                continue
            if src == _EFFECTS_TOKEN or src in eff:
                eff.add(tgt)
                changed = True
        for name, call, _line, _col in summ.assigned_calls:
            if name in eff:
                continue
            callee = graph.resolve(call, summ.info)
            if callee is not None and callee.qualname in effect_returning:
                eff.add(name)
                changed = True
    return eff


@register_deep(
    "DOOC012",
    "interprocedural-effect-drop",
    "call to a function that (transitively) returns LocalStore "
    "list[Effect] used as a bare statement or bound but never pumped",
)
def check_effect_drop(program: "Program") -> Iterator[Violation]:
    graph = program.graph
    summaries = program.summaries

    effect_returning: dict[str, str] = {}
    changed = True
    rounds = 0
    while changed and rounds < _MAX_ROUNDS:
        changed = False
        rounds += 1
        for qual, summ in summaries.items():
            if qual in effect_returning:
                continue
            why: str | None = None
            if summ.returns_effects_direct:
                why = "wraps a LocalStore effect call"
            if why is None:
                for call in summ.returned_calls:
                    callee = graph.resolve(call, summ.info)
                    if (callee is not None and callee.qualname != qual
                            and callee.qualname in effect_returning):
                        why = f"returns {callee.qualname}()"
                        break
            if why is None:
                eff = _effect_names(summ, effect_returning, graph)
                if summ.returned_roots & eff:
                    why = "returns an accumulated effect list"
            if why is not None:
                effect_returning[qual] = why
                changed = True

    for qual, summ in summaries.items():
        for call, line, col in summ.bare_calls:
            if is_effectful_call(call):
                continue  # the direct form is DOOC002's finding
            callee = graph.resolve(call, summ.info)
            if (callee is None or callee.qualname == qual
                    or callee.qualname not in effect_returning):
                continue
            yield Violation(
                "DOOC012", summ.info.path, line, col,
                f"result of {callee.name}() discarded in {qual}; it "
                f"{effect_returning[callee.qualname]} — the returned "
                "list[Effect] must be executed by the driver",
            )
        for name, call, line, col in summ.assigned_calls:
            if name != "_" and name in summ.loaded_names:
                continue
            callee = graph.resolve(call, summ.info)
            wraps: str | None = None
            if is_effectful_call(call):
                wraps = "is a direct LocalStore effect call"
            elif (callee is not None and callee.qualname != qual
                  and callee.qualname in effect_returning):
                wraps = effect_returning[callee.qualname]
            if wraps is None:
                continue
            yield Violation(
                "DOOC012", summ.info.path, line, col,
                f"effect list bound to {name!r} in {qual} but never "
                f"pumped ({wraps}); execute the effects or return them",
            )

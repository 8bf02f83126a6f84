"""The store's lifecycle is one table, applied in one place.

``repro.core.storage._TABLE`` maps every (state, event) pair of a block
to its outcome; ``LocalStore._apply`` is the only code that moves a block
(its status, the bytes ``in_use`` charges for it, the transfers in
flight), and the allocation queue holds data, not closures.  DESIGN.md §6
prints the table; regenerate that copy with
``PYTHONPATH=src python tests/test_storage_table.py``.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path

from repro.core import storage
from repro.core.storage import EVENTS, STATES, Cell

REPO = Path(__file__).resolve().parent.parent
SOURCE = Path(storage.__file__).read_text(encoding="utf-8")


def lifecycle_table() -> str:
    """``_TABLE`` as the markdown table DESIGN.md §6 prints."""
    def text(cell: Cell) -> str:
        out = cell.do + (f" → {cell.to.replace('|', ' or ')}" if cell.to else "")
        return out + (f" (`{cell.counter.replace('|', '`, `')}`)" if cell.counter else "")

    rows = [["event", *STATES], ["---"] * (len(STATES) + 1)]
    rows += [[event, *(text(storage._TABLE[s, event]) for s in STATES)]
             for event in EVENTS]
    return "".join(f"| {' | '.join(row)} |\n" for row in rows)


def test_every_state_and_event_has_exactly_one_cell():
    assert set(storage._TABLE) == {(s, e) for s in STATES for e in EVENTS}
    assert len(storage._TABLE) == len(STATES) * len(EVENTS) == 65


def test_every_cell_names_a_case_of_apply_and_states_that_exist():
    tree = ast.parse(textwrap.dedent(inspect.getsource(storage.LocalStore._apply)))
    cases = set()
    for case in (node for node in ast.walk(tree) if isinstance(node, ast.match_case)):
        patterns = (case.pattern.patterns if isinstance(case.pattern, ast.MatchOr)
                    else [case.pattern])
        cases.update(pattern.value.value for pattern in patterns)
    assert {cell.do for cell in storage._TABLE.values()} == cases
    for (state, event), cell in storage._TABLE.items():
        assert all(to in STATES for to in cell.to.split("|") if to), (state, event)


def test_design_md_prints_the_table():
    doc = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    assert lifecycle_table() in doc, (
        "DESIGN.md §6's lifecycle table is stale: regenerate it with "
        "`PYTHONPATH=src python tests/test_storage_table.py`")


def _enclosing_functions(tree: ast.AST):
    """(node, name of the outermost method it is in) for every node."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, ast.FunctionDef) and owner is None:
                inner = child.name
            yield child, inner
            yield from walk(child, inner)
    yield from walk(tree, None)


def test_only_apply_moves_a_block():
    """``.status`` is assigned, ``in_use`` changed and ``_in_flight``
    mutated in ``_apply`` alone (``__init__`` sets the empty store up)."""
    tree = ast.parse(SOURCE)
    where: dict[str, set[str]] = {"status": set(), "in_use": set(), "_in_flight": set()}
    for node, owner in _enclosing_functions(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in where:
                where[target.attr].add(owner)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "_in_flight"):
            where["_in_flight"].add(owner)
    assert where == {"status": {"_apply"}, "in_use": {"__init__", "_apply"},
                     "_in_flight": {"__init__", "_apply"}}


def test_the_allocation_queue_holds_data():
    """Every entry appended to the allocation queue is a (block, event,
    ticket) tuple, and storage.py makes no closure but the LRU sort key."""
    tree = ast.parse(SOURCE)
    appended = [node.args[0] for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "_alloc_queue"]
    assert appended and all(isinstance(arg, ast.Tuple) and len(arg.elts) == 3
                            for arg in appended)
    lambdas = [node for node in ast.walk(tree) if isinstance(node, ast.Lambda)]
    assert len(lambdas) == 1 and "lru" in ast.unparse(lambdas[0])


if __name__ == "__main__":
    print(lifecycle_table(), end="")

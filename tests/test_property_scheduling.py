"""Property tests for interval algebra and the scheduler decision cores."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array import ArrayDesc
from repro.core.dag import TaskDAG
from repro.core.global_scheduler import GlobalScheduler
from repro.core.interval import intervals_for_range, whole_array
from repro.core.local_scheduler import LocalSchedulerCore
from repro.core.task import task


def noop(ins, outs, meta):
    pass


# ---------------------------------------------------------------------------
# Interval algebra
# ---------------------------------------------------------------------------

@st.composite
def array_and_range(draw):
    length = draw(st.integers(1, 500))
    block = draw(st.integers(1, 64))
    lo = draw(st.integers(0, length - 1))
    hi = draw(st.integers(lo + 1, length))
    return ArrayDesc("a", length=length, block_elems=block), lo, hi


@given(array_and_range())
@settings(max_examples=200, deadline=None)
def test_intervals_cover_range_exactly_and_disjointly(case):
    desc, lo, hi = case
    ivs = intervals_for_range(desc, lo, hi)
    # Coverage: concatenation of [lo_i, hi_i) equals [lo, hi) in order.
    assert ivs[0].lo == lo and ivs[-1].hi == hi
    for a, b in zip(ivs, ivs[1:], strict=False):
        assert a.hi == b.lo          # contiguous, disjoint
        assert b.block == a.block + 1
    for iv in ivs:
        iv.validate_against(desc)    # never spans a block


@given(st.integers(1, 500), st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_whole_array_blocks_partition_the_array(length, block):
    desc = ArrayDesc("a", length=length, block_elems=block)
    ivs = whole_array(desc)
    assert len(ivs) == desc.n_blocks
    total = sum(iv.length for iv in ivs)
    assert total == length


# ---------------------------------------------------------------------------
# Global scheduler
# ---------------------------------------------------------------------------

@st.composite
def random_dags(draw):
    n_initial = draw(st.integers(1, 4))
    n_tasks = draw(st.integers(1, 10))
    n_nodes = draw(st.integers(1, 4))
    initial = [f"in{i}" for i in range(n_initial)]
    homes = {a: draw(st.integers(0, n_nodes - 1)) for a in initial}
    sizes = {a: draw(st.integers(1, 1000)) for a in initial}
    available = list(initial)
    tasks = []
    for t in range(n_tasks):
        n_inputs = draw(st.integers(0, min(3, len(available))))
        idx = draw(st.lists(st.integers(0, len(available) - 1),
                            min_size=n_inputs, max_size=n_inputs, unique=True))
        inputs = [available[i] for i in idx]
        out = f"out{t}"
        sizes[out] = draw(st.integers(1, 1000))
        tasks.append(task(f"t{t}", noop, inputs, [out]))
        available.append(out)
    return tasks, initial, homes, sizes, n_nodes


@given(random_dags())
@settings(max_examples=100, deadline=None)
def test_every_task_assigned_to_a_valid_node(problem):
    tasks, initial, homes, sizes, n_nodes = problem
    dag = TaskDAG(tasks, initial)
    gs = GlobalScheduler(dag, n_nodes, array_homes=homes, array_nbytes=sizes)
    assignment = gs.assign_all()
    assert set(assignment) == {t.name for t in tasks}
    assert all(0 <= node < n_nodes for node in assignment.values())


@given(random_dags())
@settings(max_examples=100, deadline=None)
def test_single_home_inputs_pin_the_task(problem):
    """If every input of a task lives on one node, affinity demands it."""
    tasks, initial, homes, sizes, n_nodes = problem
    dag = TaskDAG(tasks, initial)
    gs = GlobalScheduler(dag, n_nodes, array_homes=homes, array_nbytes=sizes)
    assignment = gs.assign_all()
    for t in tasks:
        if not t.inputs:
            continue
        input_homes = {gs.array_homes[a] for a in t.inputs}
        if len(input_homes) == 1:
            assert assignment[t.name] == next(iter(input_homes))


# ---------------------------------------------------------------------------
# Local scheduler
# ---------------------------------------------------------------------------

@given(
    n_tasks=st.integers(1, 12),
    resident_mask=st.lists(st.booleans(), min_size=12, max_size=12),
    seed=st.integers(0, 100),
)
@settings(max_examples=100, deadline=None)
def test_pick_drains_all_tasks_exactly_once(n_tasks, resident_mask, seed):
    ls = LocalSchedulerCore(0)
    names = []
    for i in range(n_tasks):
        t = task(f"t{i}", noop, [f"A{i}"], [f"y{i}"])
        ls.add_ready(t)
        names.append(t.name)
    resident = {f"A{i}" for i in range(n_tasks) if resident_mask[i]}
    nbytes = {f"A{i}": 100 for i in range(n_tasks)}
    picked = []
    while ls.ready_count:
        picked.append(ls.choose(resident, nbytes).task.name)
    assert sorted(picked) == sorted(names)
    assert ls.choose(resident, nbytes).task is None


@given(
    n_tasks=st.integers(1, 10),
    depth=st.integers(0, 5),
)
@settings(max_examples=100, deadline=None)
def test_prefetch_plan_is_subset_of_pending_inputs(n_tasks, depth):
    ls = LocalSchedulerCore(0, prefetch_depth=depth)
    all_inputs = set()
    for i in range(n_tasks):
        ls.add_ready(task(f"t{i}", noop, [f"A{i}", f"B{i}"], [f"y{i}"]))
        all_inputs |= {f"A{i}", f"B{i}"}
    nbytes = {a: 10 for a in all_inputs}
    plan = ls.prefetch_plan(set(), nbytes)
    assert set(plan) <= all_inputs
    assert len(plan) == len(set(plan))  # no duplicates
    assert len(plan) <= 2 * depth


@given(st.integers(1, 12))
@settings(max_examples=50, deadline=None)
def test_resident_tasks_always_precede_nonresident(n_tasks):
    ls = LocalSchedulerCore(0)
    for i in range(n_tasks):
        ls.add_ready(task(f"t{i}", noop, [f"A{i}"], [f"y{i}"]))
    resident = {f"A{i}" for i in range(0, n_tasks, 2)}
    nbytes = {f"A{i}": 100 for i in range(n_tasks)}
    ranked = ls.rank(resident, nbytes)
    seen_nonresident = False
    for t in ranked:
        is_resident = t.inputs[0] in resident
        if not is_resident:
            seen_nonresident = True
        assert not (is_resident and seen_nonresident), (
            "a resident task ranked below a non-resident one"
        )


# ---------------------------------------------------------------------------
# Co-simulation: global + local scheduler cores over random DAGs
# ---------------------------------------------------------------------------

@given(random_dags(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_scheduler_cores_execute_any_dag_to_completion(problem, reorder):
    """Drive the pure decision cores with a toy executor: every task runs
    exactly once, on its assigned node, after all of its predecessors."""
    tasks, initial, homes, sizes, n_nodes = problem
    dag = TaskDAG(tasks, initial)
    gs = GlobalScheduler(dag, n_nodes, array_homes=homes, array_nbytes=sizes)
    assignment = gs.assign_all()
    cores = {n: LocalSchedulerCore(n, reorder=reorder)
             for n in range(n_nodes)}
    resident: dict[int, list] = {n: [] for n in range(n_nodes)}
    CAPACITY = 3  # arrays per node: forces LRU churn

    def touch(node, array):
        if array in resident[node]:
            resident[node].remove(array)
        resident[node].append(array)
        while len(resident[node]) > CAPACITY:
            resident[node].pop(0)

    for name in dag.ready_tasks():
        cores[assignment[name]].add_ready(dag.tasks[name])

    executed = []
    finished_at = {}
    guard = 0
    while not dag.done:
        guard += 1
        assert guard < 10_000, "executor failed to make progress"
        progressed = False
        for node, core in cores.items():
            t = core.choose(set(resident[node]), sizes).task
            if t is None:
                continue
            progressed = True
            assert assignment[t.name] == node
            for a in t.inputs:
                touch(node, a)
            for a in t.outputs:
                touch(node, a)
            executed.append(t.name)
            finished_at[t.name] = len(executed)
            for newly in dag.mark_complete(t.name):
                cores[assignment[newly]].add_ready(dag.tasks[newly])
        assert progressed, "no core could pick a task but the DAG is not done"

    assert sorted(executed) == sorted(t.name for t in tasks)
    for name, preds in dag.preds.items():
        for p in preds:
            assert finished_at[p] < finished_at[name]

"""Tests for task specs and the derived dependency DAG."""

import pytest

from repro.core.dag import TaskDAG, find_cycle
from repro.core.errors import SchedulingError
from repro.core.task import TaskSpec, task


def noop(ins, outs, meta):
    pass


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(SchedulingError):
            task("", noop, [], ["x"])
        with pytest.raises(SchedulingError):
            task("t", noop, ["a"], [])  # no outputs
        with pytest.raises(SchedulingError):
            task("t", noop, ["a"], ["a"])  # immutability
        with pytest.raises(SchedulingError):
            task("t", noop, [], ["x", "x"])  # dup outputs

    def test_meta_carried(self):
        t = task("t", noop, [], ["x"], color="red", length=10)
        assert t.meta == {"color": "red", "length": 10}


def spmv_like_tasks():
    """x1_uv = A_uv * x0_v; x1_u = sum_v x1_uv (2x2 grid)."""
    tasks = []
    for u in range(2):
        for v in range(2):
            tasks.append(task(f"mult_{u}{v}", noop,
                              [f"A_{u}{v}", f"x0_{v}"], [f"xi_{u}{v}"]))
    for u in range(2):
        tasks.append(task(f"sum_{u}", noop,
                          [f"xi_{u}0", f"xi_{u}1"], [f"x1_{u}"]))
    initial = [f"A_{u}{v}" for u in range(2) for v in range(2)] + ["x0_0", "x0_1"]
    return tasks, initial


class TestTaskDAG:
    def test_derived_dependencies(self):
        tasks, initial = spmv_like_tasks()
        dag = TaskDAG(tasks, initial)
        assert list(dag.preds["sum_0"]) == ["mult_00", "mult_01"]
        assert list(dag.succs["mult_00"]) == ["sum_0"]
        assert list(dag.preds["mult_00"]) == []

    def test_ready_and_completion_flow(self):
        tasks, initial = spmv_like_tasks()
        dag = TaskDAG(tasks, initial)
        assert sorted(dag.ready_tasks()) == [
            "mult_00", "mult_01", "mult_10", "mult_11"]
        assert dag.mark_complete("mult_00") == []
        newly = dag.mark_complete("mult_01")
        assert newly == ["sum_0"]
        dag.mark_complete("mult_10")
        dag.mark_complete("mult_11")
        dag.mark_complete("sum_0")
        assert not dag.done
        dag.mark_complete("sum_1")
        assert dag.done

    def test_double_completion_rejected(self):
        tasks, initial = spmv_like_tasks()
        dag = TaskDAG(tasks, initial)
        dag.mark_complete("mult_00")
        with pytest.raises(SchedulingError, match="twice"):
            dag.mark_complete("mult_00")

    def test_premature_completion_rejected(self):
        tasks, initial = spmv_like_tasks()
        dag = TaskDAG(tasks, initial)
        with pytest.raises(SchedulingError, match="before its inputs"):
            dag.mark_complete("sum_0")

    def test_unknown_input_rejected(self):
        with pytest.raises(SchedulingError, match="nothing"):
            TaskDAG([task("t", noop, ["ghost"], ["x"])], initial_arrays=[])

    def test_two_producers_rejected(self):
        with pytest.raises(SchedulingError, match="immutable"):
            TaskDAG(
                [task("a", noop, [], ["x"]), task("b", noop, [], ["x"])],
                initial_arrays=[],
            )

    def test_task_writing_initial_array_rejected(self):
        with pytest.raises(SchedulingError, match="initial"):
            TaskDAG([task("a", noop, [], ["x"])], initial_arrays=["x"])

    def test_cycle_detection(self):
        cyc = [
            task("a", noop, ["y"], ["x"]),
            task("b", noop, ["x"], ["y"]),
        ]
        with pytest.raises(SchedulingError, match="cycle"):
            TaskDAG(cyc, initial_arrays=[])

    def test_duplicate_task_names_rejected(self):
        with pytest.raises(SchedulingError, match="duplicate"):
            TaskDAG(
                [task("a", noop, [], ["x"]), task("a", noop, [], ["y"])],
                initial_arrays=[],
            )

    def test_topological_order_is_deterministic_and_valid(self):
        tasks, initial = spmv_like_tasks()
        dag = TaskDAG(tasks, initial)
        order = dag.topological_order()
        assert order == dag.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        for name, preds in dag.preds.items():
            for p in preds:
                assert pos[p] < pos[name]

    def test_critical_path(self):
        tasks, initial = spmv_like_tasks()
        dag = TaskDAG(tasks, initial)
        assert dag.critical_path_length() == 2  # mult -> sum
        chain = [
            task("t0", noop, [], ["c0"]),
            task("t1", noop, ["c0"], ["c1"]),
            task("t2", noop, ["c1"], ["c2"]),
        ]
        assert TaskDAG(chain, []).critical_path_length() == 3

    def test_consumers_of(self):
        tasks, initial = spmv_like_tasks()
        dag = TaskDAG(tasks, initial)
        assert dag.consumers_of("x0_0") == ["mult_00", "mult_10"]


class TestFindCycle:
    """The one cycle finder: TaskDAG, the lock-order recorder and DOOC011
    all name what it returns."""

    def test_acyclic_graph_has_none(self):
        assert find_cycle({"a": ["b", "c"], "b": ["c"], "c": []}) is None
        assert find_cycle({}) is None

    def test_self_loop_is_closed(self):
        assert find_cycle({"t": ["t"]}) == ["t", "t"]

    def test_of_two_disjoint_cycles_the_least_node_s_is_returned(self):
        succs = {"x": ["y"], "y": ["x"], "c": ["d"], "d": ["e"], "e": ["c"]}
        assert find_cycle(succs) == ["c", "d", "e", "c"]

    def test_nodes_feeding_or_hanging_off_are_left_out(self):
        # "a" feeds the cycle and "b" hangs off it; both sort before it.
        succs = {"a": ["m"], "m": ["n", "b"], "n": ["p"], "p": ["m"],
                 "b": []}
        assert find_cycle(succs) == ["m", "n", "p", "m"]

    def test_successors_missing_as_keys_are_nodes_too(self):
        assert find_cycle({"a": ["b"]}) is None
        assert find_cycle({"b": ["a"], "a": ["b"], "z": ["q"]}) == [
            "a", "b", "a"]

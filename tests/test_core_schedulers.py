"""Tests for the global (affinity) and local (reorder/prefetch) schedulers."""

import numpy as np
import pytest

from repro.core.dag import TaskDAG
from repro.core.directory import DirectoryClient, LookupFailed
from repro.core.errors import DoocError, SchedulingError
from repro.core.global_scheduler import GlobalScheduler
from repro.core.local_scheduler import LocalSchedulerCore
from repro.core.task import task


def noop(ins, outs, meta):
    pass


class TestGlobalScheduler:
    def test_affinity_places_task_with_its_data(self):
        tasks = [task("t", noop, ["big", "small"], ["out"])]
        dag = TaskDAG(tasks, ["big", "small"])
        gs = GlobalScheduler(dag, 3,
                             array_homes={"big": 2, "small": 0},
                             array_nbytes={"big": 1000, "small": 10, "out": 10})
        assert gs.assign_all() == {"t": 2}
        assert gs.array_homes["out"] == 2  # outputs homed where produced

    def test_affinity_chains_through_dag(self):
        tasks = [
            task("p", noop, ["a"], ["mid"]),
            task("c", noop, ["mid"], ["out"]),
        ]
        dag = TaskDAG(tasks, ["a"])
        gs = GlobalScheduler(dag, 4, array_homes={"a": 3},
                             array_nbytes={"a": 100, "mid": 100, "out": 100})
        assert gs.assign_all() == {"p": 3, "c": 3}

    def test_tie_break_balances_load(self):
        # Four independent tasks with no inputs: spread across nodes.
        tasks = [task(f"t{i}", noop, [], [f"o{i}"]) for i in range(4)]
        dag = TaskDAG(tasks, [])
        gs = GlobalScheduler(dag, 2, array_homes={},
                             array_nbytes={f"o{i}": 8 for i in range(4)})
        assignment = gs.assign_all()
        assert sorted(assignment.values()) == [0, 0, 1, 1]

    def test_spmv_blocks_stay_on_their_nodes(self):
        # 2 nodes, node j owns column j of a 2x2 grid.
        tasks = []
        for u in range(2):
            for v in range(2):
                tasks.append(task(f"m{u}{v}", noop,
                                  [f"A{u}{v}", f"x{v}"], [f"y{u}{v}"]))
        initial = [f"A{u}{v}" for u in range(2) for v in range(2)] + ["x0", "x1"]
        dag = TaskDAG(tasks, initial)
        homes = {"A00": 0, "A10": 0, "A01": 1, "A11": 1, "x0": 0, "x1": 1}
        nbytes = {name: 10**6 if name.startswith("A") else 10
                  for name in homes}
        nbytes.update({f"y{u}{v}": 10 for u in range(2) for v in range(2)})
        gs = GlobalScheduler(dag, 2, array_homes=homes, array_nbytes=nbytes)
        a = gs.assign_all()
        # Multiply tasks follow the (big) matrix blocks, not the vectors.
        assert a["m00"] == 0 and a["m10"] == 0
        assert a["m01"] == 1 and a["m11"] == 1

    def test_missing_home_rejected(self):
        dag = TaskDAG([task("t", noop, ["a"], ["o"])], ["a"])
        with pytest.raises(SchedulingError, match="no home"):
            GlobalScheduler(dag, 2, array_homes={}, array_nbytes={"a": 1, "o": 1})

    def test_invalid_home_rejected(self):
        dag = TaskDAG([task("t", noop, ["a"], ["o"])], ["a"])
        with pytest.raises(SchedulingError, match="invalid node"):
            GlobalScheduler(dag, 2, array_homes={"a": 5},
                            array_nbytes={"a": 1, "o": 1})

    def test_node_tasks_listing(self):
        tasks = [task("t", noop, ["a"], ["o"])]
        dag = TaskDAG(tasks, ["a"])
        gs = GlobalScheduler(dag, 2, array_homes={"a": 1},
                             array_nbytes={"a": 1, "o": 1})
        gs.assign_all()
        assert gs.node_tasks(1) == ["t"]
        assert gs.node_tasks(0) == []


class TestLocalScheduler:
    def mk(self, **kw):
        return LocalSchedulerCore(0, **kw)

    def test_prefers_fully_resident_tasks(self):
        ls = self.mk()
        ls.add_ready(task("cold", noop, ["A0"], ["y0"]))
        ls.add_ready(task("hot", noop, ["A1"], ["y1"]))
        nbytes = {"A0": 100, "A1": 100}
        picked = ls.choose(resident={"A1"}, nbytes=nbytes).task
        assert picked.name == "hot"

    def test_prefers_more_resident_bytes(self):
        ls = self.mk()
        ls.add_ready(task("a", noop, ["big", "m1"], ["y0"]))
        ls.add_ready(task("b", noop, ["small", "m2"], ["y1"]))
        nbytes = {"big": 1000, "small": 10, "m1": 500, "m2": 500}
        picked = ls.choose(resident={"big", "small"}, nbytes=nbytes).task
        assert picked.name == "a"

    def test_lifo_tie_break_gives_back_and_forth(self):
        """The signature Fig. 5(b) behaviour: with nothing resident, the
        most recently readied task runs first, reversing the traversal."""
        ls = self.mk()
        for v in range(3):
            ls.add_ready(task(f"col{v}", noop, [f"A{v}"], [f"y{v}"]))
        nbytes = {f"A{v}": 100 for v in range(3)}
        order = [ls.choose(set(), nbytes).task.name for _ in range(3)]
        assert order == ["col2", "col1", "col0"]

    def test_residency_beats_lifo(self):
        ls = self.mk()
        for v in range(3):
            ls.add_ready(task(f"col{v}", noop, [f"A{v}"], [f"y{v}"]))
        nbytes = {f"A{v}": 100 for v in range(3)}
        assert ls.choose({"A0"}, nbytes).task.name == "col0"

    def test_pick_empty_returns_none(self):
        ls = self.mk()
        assert ls.choose(set(), {}).task is None

    def test_duplicate_ready_rejected(self):
        ls = self.mk()
        t = task("t", noop, [], ["y"])
        ls.add_ready(t)
        with pytest.raises(ValueError):
            ls.add_ready(t)

    def test_prefetch_plan_covers_top_tasks_once(self):
        ls = self.mk(prefetch_depth=2)
        ls.add_ready(task("a", noop, ["A"], ["ya"]))
        ls.add_ready(task("b", noop, ["B"], ["yb"]))
        ls.add_ready(task("c", noop, ["C"], ["yc"]))
        nbytes = {"A": 1, "B": 1, "C": 1}
        plan = ls.prefetch_plan(set(), nbytes)
        # LIFO rank: c, b -> prefetch C and B.
        assert plan == ["C", "B"]
        # Second call: already requested, nothing new.
        assert ls.prefetch_plan(set(), nbytes) == []

    def test_prefetch_skips_resident(self):
        ls = self.mk(prefetch_depth=3)
        ls.add_ready(task("a", noop, ["A"], ["ya"]))
        assert ls.prefetch_plan({"A"}, {"A": 1}) == []

    def test_forget_prefetch_reenables(self):
        ls = self.mk(prefetch_depth=1)
        ls.add_ready(task("a", noop, ["A"], ["ya"]))
        assert ls.prefetch_plan(set(), {"A": 1}) == ["A"]
        ls.forget_prefetch("A")
        assert ls.prefetch_plan(set(), {"A": 1}) == ["A"]

    def test_split_requires_splitter_meta(self):
        t = task("t", noop, ["A"], ["y"], splittable=True)
        assert LocalSchedulerCore.split(t, 4) == [t]  # no splitter: unsplit

    def test_split_calls_splitter_and_checks_parent(self):
        def splitter(parent, parts):
            return [
                task(f"{parent.name}#{k}", noop, parent.inputs, parent.outputs,
                     parent=parent.name)
                for k in range(parts)
            ]

        t = task("t", noop, ["A"], ["y"], splittable=True, splitter=splitter)
        subs = LocalSchedulerCore.split(t, 3)
        assert [s.name for s in subs] == ["t#0", "t#1", "t#2"]

    def test_split_bad_splitter_rejected(self):
        def bad(parent, parts):
            return [task("x", noop, [], ["y2"])]

        t = task("t", noop, [], ["y"], splittable=True, splitter=bad)
        with pytest.raises(ValueError, match="parent"):
            LocalSchedulerCore.split(t, 2)

    def test_split_one_part_is_identity(self):
        t = task("t", noop, [], ["y"], splittable=True)
        assert LocalSchedulerCore.split(t, 1) == [t]


class TestWaitOrForce:
    """``LocalSchedulerCore.choose`` is the rule the engine's local
    scheduler runs when a worker is idle (DESIGN.md, section 6): it waits
    for messages, never for the clock, and forces a demand load only when
    no message is coming.  Two ready tasks, ``new`` readied last."""

    NBYTES = {"A0": 100, "A1": 100}

    def core(self, **kw):
        ls = LocalSchedulerCore(0, **kw)
        ls.add_ready(task("old", noop, ["A0"], ["y0"]))
        ls.add_ready(task("new", noop, ["A1"], ["y1"]))
        return ls

    def choose(self, ls, resident=(), **accounting):
        before = ls.ready_count
        d = ls.choose(set(resident), self.NBYTES, **accounting)
        # A task handed out is claimed; waiting and syncing touch nothing.
        assert ls.ready_count == before - (d.task is not None)
        assert (d.task is not None) == (d.action in ("run", "force"))
        return d.action, d.task and d.task.name, d.why

    def test_reorder_off_runs_the_first_ready_whatever_is_resident(self):
        ls = self.core(reorder=False)
        assert self.choose(ls, {"A1"}, inflight=1, loading={"A0"}) == (
            "run", "old", "")

    def test_a_fully_resident_task_runs_ahead_of_a_bigger_partial_one(self):
        ls = LocalSchedulerCore(0)
        ls.add_ready(task("full", noop, ["A0"], ["y0"]))
        ls.add_ready(task("partial", noop, ["big", "cold"], ["y1"]))
        d = ls.choose({"A0", "big"}, {"A0": 100, "big": 1000, "cold": 10},
                      inflight=1, syncing=True)
        assert (d.action, d.task.name) == ("run", "full")

    @pytest.mark.parametrize("in_flight", [
        {"inflight": 1}, {"loading": {"A0"}}, {"syncing": True}])
    def test_nothing_resident_and_something_in_flight_waits(self, in_flight):
        assert self.choose(self.core(), unsynced=True, declined={"A1"},
                           **in_flight) == ("wait", None, "")

    def test_unsynced_completions_sync_before_anything_is_forced(self):
        ls = self.core()
        assert self.choose(ls, unsynced=True) == ("sync", None, "")
        # The driver now has the request in flight: asked once, it waits...
        assert self.choose(ls, syncing=True) == ("wait", None, "")
        # ...and on ``synced`` with nothing new, no message is coming.
        assert self.choose(ls) == ("force", "new", "nothing_loading")

    @pytest.mark.parametrize("declined, why", [
        ({"A1"}, "declined"), ({"A0"}, "nothing_loading"),
        (set(), "nothing_loading")])
    def test_force_takes_the_top_ranked_and_says_why(self, declined, why):
        assert self.choose(self.core(), declined=declined) == (
            "force", "new", why)

    def test_an_empty_pool_waits(self):
        ls = LocalSchedulerCore(0)
        assert self.choose(ls, {"A0"}) == ("wait", None, "")
        assert self.choose(ls, unsynced=True) == ("wait", None, "")


class TestDirectory:
    def rng(self, seed=0):
        return np.random.default_rng(seed)

    def test_walk_terminates_and_caches(self):
        d = DirectoryClient(0, 4, self.rng())
        assert d.start_lookup("arr", 0) is None
        probed = set()
        # Drive: everyone misses except node 3.
        for _ in range(3):
            peer = d.next_probe("arr", 0)
            assert peer not in probed and peer != 0
            probed.add(peer)
            if peer == 3:
                d.probe_hit("arr", 0, 3)
                break
            d.probe_miss("arr", 0)
        assert d.resolved[("arr", 0)] == 3
        assert d.start_lookup("arr", 0) == 3  # cached
        assert not d.in_flight("arr", 0)

    def test_exhausted_walk_raises(self):
        d = DirectoryClient(0, 3, self.rng())
        d.start_lookup("ghost", 0)
        d.next_probe("ghost", 0)
        d.probe_miss("ghost", 0)
        d.next_probe("ghost", 0)
        d.probe_miss("ghost", 0)
        with pytest.raises(LookupFailed):
            d.next_probe("ghost", 0)

    def test_never_probes_self_or_repeats(self):
        for seed in range(20):
            d = DirectoryClient(2, 6, self.rng(seed))
            d.start_lookup("a", 1)
            seen = set()
            for _ in range(5):
                p = d.next_probe("a", 1)
                assert p != 2 and p not in seen
                seen.add(p)
                d.probe_miss("a", 1)

    def test_coalesces_duplicate_lookups(self):
        d = DirectoryClient(0, 4, self.rng())
        d.start_lookup("a", 0)
        d.start_lookup("a", 0)  # joins the same walk
        assert d.in_flight("a", 0)
        p = d.next_probe("a", 0)
        d.probe_hit("a", 0, p)
        assert not d.in_flight("a", 0)

    def test_protocol_misuse_rejected(self):
        d = DirectoryClient(0, 4, self.rng())
        with pytest.raises(DoocError):
            d.next_probe("a", 0)
        with pytest.raises(DoocError):
            d.probe_hit("a", 0, 1)
        with pytest.raises(DoocError):
            d.probe_miss("a", 0)

    def test_invalidate_clears_cache(self):
        d = DirectoryClient(0, 2, self.rng())
        d.start_lookup("a", 0)
        p = d.next_probe("a", 0)
        d.probe_hit("a", 0, p)
        d.invalidate("a")
        assert d.start_lookup("a", 0) is None

    def test_bad_node_rejected(self):
        with pytest.raises(DoocError):
            DirectoryClient(5, 4, self.rng())

"""Direct tests for smaller public-API surfaces found by the audit."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from repro.ci.mscheme import MSchemeSpace
from repro.ci.nnz import estimate_total_nnz
from repro.core.array import ArrayDesc
from repro.core.engine import DOoCEngine
from repro.core.local_scheduler import LocalSchedulerCore
from repro.core.storage import LocalStore
from repro.core.task import task
from repro.datacutter import Filter, Layout
from repro.experiments import EXPERIMENTS
from repro.lanczos.basis import DiskBasis
from repro.sim import Environment, FlowNetwork, Link, Resource
from repro.spmv.partition import GridPartition
from repro.testbed import TestbedRow, run_testbed_spmv, simulated_gantt
from repro.util.rng import spawn


def noop(ins, outs, meta):
    pass


ENGINE_PARAMETERS = [
    "n_nodes", "workers", "io_filters_per_node", "memory_budget_per_node",
    "opcache_bytes", "scratch_dir", "prefetch_depth", "rng_seed",
    "gc_arrays", "scheduler_reorder", "trace", "watchdog_quiet_s", "faults",
    "io_retry", "task_max_attempts", "task_max_reroutes",
    "protocol_checkers", "membership", "node_recovery", "worker_plane",
    "codec",
]


class TestEngineConstructor:
    def test_signature_is_pinned(self):
        params = list(inspect.signature(DOoCEngine.__init__).parameters)
        assert params == ["self", *ENGINE_PARAMETERS]

    def test_api_doc_row_names_the_same_parameters(self):
        doc = (Path(__file__).parents[1] / "docs" / "API.md").read_text()
        row = re.search(r"^\| `DOoCEngine\((.*?)\)` \|", doc, re.M).group(1)
        assert re.findall(r"(\w+)=", row) == ENGINE_PARAMETERS

    @pytest.mark.parametrize("removed", [
        {"data_plane": "legacy"}, {"workers_per_node": 2}])
    def test_removed_spellings_are_type_errors(self, removed):
        with pytest.raises(TypeError):
            DOoCEngine(**removed)


def documented_parameters(call: str) -> list[str]:
    """Parameter names of the docs/API.md row whose first cell starts
    with ``call(``, in order."""
    doc = (Path(__file__).parents[1] / "docs" / "API.md").read_text()
    row = re.search(rf"^\| `{re.escape(call)}\((.*?)\)`", doc, re.M).group(1)
    return [arg.split("=")[0].strip() for arg in row.split(", ")]


class TestApplicationLayerSignatures:
    """The sweep, the solvers and the drive were rewritten underneath
    their signatures (ISSUE 19); the signatures are what docs/API.md
    says."""

    def cases(self):
        from repro.lanczos import lanczos
        from repro.solvers import conjugate_gradient_solve, jacobi_solve
        from repro.spmv.ooc_operator import OutOfCoreMatrix
        from repro.spmv.program import build_iterated_spmv, run_iterated_spmv
        sweep = ["blocks", "x0_parts", "iterations", "n_nodes", "policy",
                 "owner", "vector_block_elems"]
        checkpointed = ["checkpoint_dir", "checkpoint_every", "resume"]
        return {
            "build_iterated_spmv": (build_iterated_spmv, sweep),
            "run_iterated_spmv": (run_iterated_spmv, [
                *sweep, *checkpointed, "run_timeout", "engine_kwargs",
                "cancel", "incremental"]),
            "OutOfCoreMatrix": (OutOfCoreMatrix.__init__, [
                "self", "blocks", "n_nodes", "workers",
                "memory_budget_per_node", "scratch_dir", "policy", "owner",
                "rng_seed", "gc_arrays", "engine_kwargs"]),
            "repro.solvers.jacobi_solve": (jacobi_solve, [
                "operator", "b", "x0", "tol", "max_iterations", "callback",
                *checkpointed, "mode", "staleness", "seed", "fixpoint_exit"]),
            "repro.solvers.conjugate_gradient_solve": (
                conjugate_gradient_solve, [
                    "operator", "b", "x0", "tol", "max_iterations",
                    "callback", *checkpointed]),
            "repro.lanczos.lanczos": (lanczos, [
                "matvec", "n", "k", "n_eigenvalues", "rng", "v0", "tol",
                "want_vectors", "basis", *checkpointed]),
        }

    def test_signatures_are_pinned_and_documented(self):
        for call, (fn, want) in self.cases().items():
            assert list(inspect.signature(fn).parameters) == want, call
            assert documented_parameters(call) == [
                name for name in want if name != "self"], call

    def test_matvec_signature(self):
        from repro.spmv.ooc_operator import OutOfCoreMatrix
        assert list(inspect.signature(OutOfCoreMatrix.matvec).parameters) == [
            "self", "x", "workset", "frontier"]
        doc = (Path(__file__).parents[1] / "docs" / "API.md").read_text()
        assert "`.matvec(x, workset=None, frontier=False)`" in doc

    def test_the_lanczos_wrapper_is_gone(self):
        # (``repro.lanczos`` the attribute is the function, not the package)
        for module in map(importlib.import_module, ("repro", "repro.lanczos")):
            assert "OutOfCoreLanczos" not in module.__all__
            assert not hasattr(module, "OutOfCoreLanczos")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.lanczos.ooc")

    def test_the_cadence_helper_is_the_only_new_public_name(self):
        import repro.recovery
        import repro.recovery.checkpoint as checkpoint
        assert "CheckpointCadence" in checkpoint.__all__
        assert "CheckpointCadence" in repro.recovery.__all__
        assert documented_parameters("CheckpointCadence") == [
            "directory", "every", "resume"]
        for module in ("repro.spmv.program", "repro.spmv.ooc_operator",
                       "repro.solvers.jacobi"):
            gone = {"part_name", "_reduce_tasks", "_solve_incremental",
                    "_run_incremental_spmv", "_Checkpointing"}
            assert not gone & set(vars(importlib.import_module(module)))


class TestCommandLine:
    ROOT = Path(__file__).parents[1]

    def dispatched(self):
        """Every first argument ``repro.__main__.main`` acts on: the
        strings it compares ``argv[0]`` with, plus the experiment ids."""
        import repro.__main__ as cli
        subs = {"list", "all", *EXPERIMENTS}
        for node in ast.walk(ast.parse(inspect.getsource(cli.main))):
            if (isinstance(node, ast.Compare)
                    and ast.unparse(node.left) == "argv[0]"):
                subs |= {c.value for c in ast.walk(node.comparators[0])
                         if isinstance(c, ast.Constant)}
        return subs

    def test_every_documented_subcommand_is_dispatched(self):
        subs = self.dispatched()
        assert {"trace", "lint", "serve", "table1"} <= subs
        docs = [self.ROOT / "README.md", *(self.ROOT / "docs").glob("*.md"),
                self.ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
        for doc in docs:
            spelled = set(re.findall(r"python3? -m repro +([a-z][\w-]*)",
                                     doc.read_text()))
            assert spelled <= subs, f"{doc.name}: {sorted(spelled - subs)}"

    def test_the_second_bench_harness_is_gone(self, capsys):
        from repro.__main__ import main
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.bench")
        assert main(["bench"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSimSurfaces:
    def test_link_utilization(self):
        env = Environment()
        net = FlowNetwork(env)
        link = Link("l", 100.0)
        assert net.link_utilization(link) == 0.0
        net.transfer([link], 1000.0)
        assert net.link_utilization(link) == pytest.approx(1.0)
        env.run()
        assert net.link_utilization(link) == 0.0

    def test_resource_queue_length(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        res.request()
        env.run()
        assert res.queue_length == 2  # one granted, two waiting

    def test_process_is_alive_and_active_process(self):
        env = Environment()
        seen = []

        def proc():
            seen.append(env.active_process)
            yield env.timeout(1.0)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive
        assert seen == [p]
        assert env.active_process is None


class TestLayoutSurfaces:
    def test_inbound_outbound_streams(self):
        class F(Filter):
            inputs = ("in",)
            outputs = ("out",)

            def process(self, ctx):
                pass

        layout = Layout("t")
        layout.add_filter("a", F)
        layout.add_filter("b", F)
        layout.connect("a", "out", "b", "in", name="s1")
        assert [s.name for s in layout.outbound_streams("a")] == ["s1"]
        assert [s.name for s in layout.inbound_streams("b")] == ["s1"]
        assert layout.inbound_streams("a") == []


class TestStorageSurfaces:
    def test_headroom_is_remote_block_on_disk(self):
        d = ArrayDesc("a", length=10, block_elems=10)
        r = ArrayDesc("r", length=10, block_elems=10)
        store = LocalStore(0, memory_budget=1000)
        store.register_on_disk(d)
        store.register_remote(r)
        assert store.headroom == 1000
        assert store.is_remote("r") and not store.is_remote("a")
        assert store.block_on_disk("a", 0) and not store.block_on_disk("r", 0)

    def test_abandon_pending_allocs(self):
        d = ArrayDesc("a", length=20, block_elems=10)
        store = LocalStore(0, memory_budget=80)  # one block
        store.register_on_disk(d)
        t0, e0 = store.request_read(
            __import__("repro.core.interval", fromlist=["whole_block"])
            .whole_block(d, 0))
        # Second read cannot fit until the first load lands AND is evicted;
        # it queues as a demand.
        t1, e1 = store.request_read(
            __import__("repro.core.interval", fromlist=["whole_block"])
            .whole_block(d, 1))
        assert len(store._alloc_queue) == 1
        store.abandon_pending_allocs()
        assert len(store._alloc_queue) == 0


class TestSchedulerSurfaces:
    def test_pending_tasks_listing(self):
        ls = LocalSchedulerCore(0)
        a = task("a", noop, [], ["x"])
        ls.add_ready(a)
        assert [t.name for t in ls.pending_tasks()] == ["a"]


class TestCoreLayout:
    """``core/`` reads as the paper's services: each filter beside the
    core it drives, one rule, one task-body runner."""

    CORE = Path(__file__).parents[1] / "src" / "repro" / "core"

    def test_the_engine_module_defines_no_filter(self):
        import repro.core.engine as engine

        here = [name for name, obj in vars(engine).items()
                if inspect.isclass(obj) and issubclass(obj, Filter)
                and obj.__module__ == engine.__name__]
        assert here == []
        lines = len((self.CORE / "engine.py").read_text().splitlines())
        assert lines < 900

    def test_one_call_site_invokes_a_task_body(self):
        # fn(inputs, outs, meta): a bare call of three positional arguments
        # on a name or attribute called ``fn``.
        sites = []
        for path in sorted(self.CORE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Call) and len(node.args) == 3):
                    continue
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute)
                        else f.slice.value
                        if isinstance(f, ast.Subscript)
                        and isinstance(f.slice, ast.Constant) else None)
                if name == "fn":
                    sites.append(f"{path.name}:{node.lineno}")
        assert len(sites) == 1 and sites[0].startswith("task.py:"), sites

    def test_pick_is_gone(self):
        assert not hasattr(LocalSchedulerCore, "pick")


class TestPartitionSurfaces:
    def test_coords_and_part_range(self):
        p = GridPartition(10, 2)
        assert list(p.coords()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert p.part_range(0) == (0, 5)
        assert p.part_range(1) == (5, 10)
        with pytest.raises(ValueError):
            p.part_range(2)
        assert p.part_length(1) == 5


class TestCiSurfaces:
    def test_estimate_total_nnz(self):
        space = MSchemeSpace(2, 2, 0, 0)  # dimension 1, diagonal only
        total, err = estimate_total_nnz(space, 3, spawn(0, "nnz"))
        assert total == pytest.approx(1.0)  # only the diagonal entry
        assert err == 0.0

    def test_estimate_total_nnz_with_given_dimension(self):
        space = MSchemeSpace(2, 2, 2, 0)
        d = space.dimension()
        total, _ = estimate_total_nnz(space, 5, spawn(1, "nnz"), dimension=d)
        assert total > d  # more than one entry per row


class TestBasisSurfaces:
    def test_disk_basis_cleanup(self, tmp_path):
        store = DiskBasis(8, scratch_dir=tmp_path)
        store.append(np.ones(8))
        store.append(np.zeros(8))
        assert len(list(tmp_path.glob("*.arr"))) == 2
        store.cleanup()
        assert list(tmp_path.glob("*.arr")) == []
        store.cleanup()  # idempotent


class TestTestbedSurface:
    """The simulator takes Section V's inputs and nothing else (ISSUE 22);
    the parameter list and the row are what docs/API.md says."""

    PARAMETERS = ["nodes", "policy", "workload", "spec", "params", "seed",
                  "oversubscribe", "tracer"]
    ROW_FIELDS = ["nodes", "policy", "dimension", "nnz", "size_bytes",
                  "time_s", "gflops", "read_bw_bytes_per_s",
                  "non_overlapped_fraction", "cpu_hours_per_iteration",
                  "iterations"]

    def test_signature_and_row_are_pinned_and_documented(self):
        assert list(inspect.signature(
            run_testbed_spmv).parameters) == self.PARAMETERS
        assert documented_parameters(
            "repro.testbed.run_testbed_spmv") == self.PARAMETERS
        assert [f.name for f in dataclasses.fields(
            TestbedRow)] == self.ROW_FIELDS
        assert documented_parameters("TestbedRow") == self.ROW_FIELDS

    @pytest.mark.parametrize("removed", [
        {"faults": None}, {"io_retry": None}, {"checkpoint_every": 2},
        {"detection_s": 1.2}, {"codec": "zlib"}, {"workset": None},
        {"trace_sink": []}])
    def test_removed_spellings_are_type_errors(self, removed):
        with pytest.raises(TypeError):
            run_testbed_spmv(1, "simple", **removed)


class TestGanttSurface:
    def test_simulated_gantt_renders(self):
        art = simulated_gantt(1, "simple", seed=0, until_s=20, width=40)
        assert "simple policy" in art
        assert "n0" in art
        assert "=" in art  # filesystem reads appear

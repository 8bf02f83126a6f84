"""Direct tests for smaller public-API surfaces found by the audit."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.ci.mscheme import MSchemeSpace
from repro.ci.nnz import estimate_total_nnz
from repro.core.array import ArrayDesc
from repro.core.engine import DOoCEngine
from repro.core.program import Program
from repro.core.local_scheduler import LocalSchedulerCore
from repro.core.storage import LocalStore
from repro.core.task import task
from repro.datacutter import Filter
from repro.experiments import EXPERIMENTS
from repro.lanczos.basis import DiskBasis
from repro.sim import Environment, FlowNetwork, Link, Resource
from repro.spmv.partition import GridPartition
from repro.testbed import TestbedRow, run_testbed_spmv, simulated_gantt
from repro.util.rng import spawn


def noop(ins, outs, meta):
    pass


ENGINE_PARAMETERS = [
    "n_nodes", "workers", "memory_budget_per_node", "opcache_bytes",
    "scratch_dir", "rng_seed", "gc_arrays", "scheduler_reorder", "trace",
    "watchdog_quiet_s", "faults", "io_retry", "task_max_attempts",
    "task_max_reroutes", "membership", "worker_plane", "codec",
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
        {"data_plane": "legacy"}, {"workers_per_node": 2},
        {"io_filters_per_node": 3}, {"prefetch_depth": 0},
        {"node_recovery": False}, {"protocol_checkers": True}])
    def test_removed_spellings_are_type_errors(self, removed):
        with pytest.raises(TypeError):
            DOoCEngine(**removed)


def documented_parameters(call: str) -> list[str]:
    """Parameter names of the docs/API.md row whose first cell starts
    with ``call(``, in order."""
    doc = (Path(__file__).parents[1] / "docs" / "API.md").read_text()
    row = re.search(rf"^\| `{re.escape(call)}\((.*?)\)`", doc, re.M).group(1)
    return [arg.split("=")[0].strip() for arg in row.split(", ")]


#: what a task declares: what the engine reads, and ``meta`` for its body
TASK_PARAMETERS = ["name", "fn", "inputs", "outputs", "**meta"]


def spelled_parameters(fn) -> list[str]:
    """``fn``'s parameters as a docs/API.md row spells them."""
    return [("**" if p.kind is p.VAR_KEYWORD else "") + p.name
            for p in inspect.signature(fn).parameters.values()
            if p.name != "self"]


class TestTaskDeclaration:
    def test_signatures_are_pinned(self):
        assert spelled_parameters(Program.add_task) == TASK_PARAMETERS
        assert spelled_parameters(task) == TASK_PARAMETERS

    def test_api_doc_row_names_the_same_parameters(self):
        assert documented_parameters(".add_task") == TASK_PARAMETERS

    @pytest.mark.parametrize("removed", ["splittable", "splitter", "flops"])
    def test_removed_keywords_are_type_errors(self, removed):
        # ``**meta`` would take them silently: each is refused by name.
        prog = Program("removed")
        prog.array("y", 4)
        for declare in (lambda **kw: prog.add_task("t", noop, [], ["y"], **kw),
                        lambda **kw: task("t", noop, [], ["y"], **kw)):
            with pytest.raises(TypeError, match=f"{removed}= was removed"):
                declare(**{removed: 1.0}, color="red")
        assert prog.tasks == []


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
                *sweep, *checkpointed, "engine_kwargs",
                "cancel", "incremental"]),
            "OutOfCoreMatrix": (OutOfCoreMatrix.__init__, [
                "self", "blocks", "n_nodes", "workers",
                "memory_budget_per_node", "scratch_dir", "policy", "owner",
                "rng_seed", "gc_arrays", "engine_kwargs"]),
            "repro.solvers.jacobi_solve": (jacobi_solve, [
                "operator", "b", "x0", "tol", "max_iterations", "callback",
                *checkpointed, "mode", "staleness", "seed"]),
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
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.bench")
        assert cli_main(["bench"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig7" in out

    def test_fig1_runs(self, capsys):
        assert cli_main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "memory hierarchy" in out
        assert "regenerated" in out

    def test_table4_with_nodes(self, capsys):
        assert cli_main(["table4", "--nodes", "1", "--seed", "0"]) == 0
        assert "Table IV" in capsys.readouterr().out


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

    def test_process_is_alive(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestStorageSurfaces:
    def test_headroom_is_remote_block_on_disk(self):
        d = ArrayDesc("a", length=10, block_elems=10)
        r = ArrayDesc("r", length=10, block_elems=10)
        store = LocalStore(0, memory_budget=1000)
        store.register_on_disk(d)
        store.register_remote(r)
        assert store.budget - store.in_use == 1000
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

    def test_no_poll_constants_in_the_control_plane(self):
        # Waits end on a notification or a computed deadline, never on a
        # tuned slice (DESIGN.md, "Liveness").
        src = self.CORE.parent
        polls = re.compile(r"_POLL_S|_wait_slice|RETRY_POLL_S|CANCEL_POLL_S"
                           r"|\bpoll_s\b")
        hits = [f"{path.relative_to(src)}:{n}"
                for pkg in ("core", "datacutter", "recovery", "obs")
                for path in sorted((src / pkg).rglob("*.py"))
                for n, line in enumerate(path.read_text().splitlines(), 1)
                if polls.search(line)]
        assert hits == []


class TestOneReadSite:
    """The engine's filters are step functions: ``Filter.process`` is
    their one read loop, so nothing under ``repro/core`` reads a stream
    itself (a nested read would hide a state from ``listening()``, and
    from a runtime that delivers buffers one at a time)."""

    def test_no_core_module_reads_a_stream(self):
        core = Path(__file__).parents[1] / "src" / "repro" / "core"
        reads = [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
                 for path in sorted(core.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("read", "read_any")
                 and ast.unparse(node.func.value) == "ctx"]
        assert reads == [], "a filter under repro/core reads a stream: " + \
            ", ".join(reads)


def own_nodes(fn):
    """The nodes of ``fn``'s body, not those of a def nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(
            c, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))


def called_name(call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


class TestTicketHandoffs:
    """Where a ticket changes hands, the code has one shape: the worker's
    task body runs in a ``try`` whose handler aborts the grants it holds,
    and each request the storage filter makes tags its ticket (the tag
    routes the grant and names who releases it) before the effects go
    anywhere.  A new request site fails here until it is added on purpose;
    the ``TicketAuditor`` (``DOOC_CHECKERS=1``) names a leak on any other
    path at run time."""

    CORE = Path(__file__).parents[1] / "src" / "repro" / "core"

    #: (module, function, method) of every store request outside the store
    REQUEST_SITES = [
        ("storage_filter.py", "_StorageFilter._handle_acquire", "request_read"),
        ("storage_filter.py", "_StorageFilter._handle_acquire", "request_write"),
        ("storage_filter.py", "_StorageFilter._handle_peer", "request_read"),
    ]

    def defs(self):
        """(path, qualified name, def) of every function in ``repro/core``."""
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield prefix + child.name, child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    yield from walk(child, f"{prefix}{child.name}.")
        for path in sorted(self.CORE.glob("*.py")):
            for qualname, fn in walk(ast.parse(path.read_text()), ""):
                yield path, qualname, fn

    def calls(self, names):
        """(module, qualified function, def, call) of every call in
        ``repro/core`` to one of ``names``, by its innermost def."""
        for path, qualname, fn in self.defs():
            for node in own_nodes(fn):
                if isinstance(node, ast.Call) and called_name(node) in names:
                    yield path.name, qualname, fn, node

    def test_the_one_acquire_is_aborted_on_any_failure(self):
        """A worker asks for a task's grants in one ``acquire`` message;
        the handler that receives the last grant runs the body — the
        worker's one ``run_task_body`` call — in a ``try`` whose ``except
        BaseException`` calls ``self._abort(ctx, held)`` and re-raises."""
        asks = [(path.name, qualname) for path, qualname, fn in self.defs()
                for node in own_nodes(fn) if isinstance(node, ast.Dict)
                and any(k is not None and ast.unparse(k) == "'op'"
                        and ast.unparse(v) == "'acquire'"
                        for k, v in zip(node.keys, node.values))]
        assert asks == [("worker.py", "_WorkerFilter._request")]
        sites = [s for s in self.calls({"run_task_body"})
                 if s[0] == "worker.py"]  # not the process plane's child
        assert [s[:2] for s in sites] == [
            ("worker.py", "_WorkerFilter._on_grants")]
        ((_, _, fn, call),) = sites
        handlers = [h for t in own_nodes(fn) if isinstance(t, ast.Try)
                    and any(n is call for s in t.body for n in ast.walk(s))
                    for h in t.handlers]
        assert any(
            (h.type is None or ast.unparse(h.type) == "BaseException")
            and "self._abort(ctx, held)" in map(ast.unparse, h.body)
            and isinstance(h.body[-1], ast.Raise) and h.body[-1].exc is None
            for h in handlers), (
            "the task body does not run in a try whose handler catches "
            "BaseException, calls self._abort(ctx, held) and re-raises")

    def test_store_requests_outside_the_store_are_the_known_three(self):
        found = sorted((module, qualname, called_name(call))
                       for module, qualname, _, call in self.calls(
                           {"request_read", "request_write"})
                       if module != "storage.py")
        assert found == self.REQUEST_SITES

    def test_each_request_tags_its_ticket_before_the_effects_run(self):
        for module, qualname, fn, call in self.calls(
                {"request_read", "request_write"}):
            if module == "storage.py":
                continue
            (assign,) = [n for n in own_nodes(fn)
                         if isinstance(n, ast.Assign) and n.value is call]
            ticket, effects = (e.id for e in assign.targets[0].elts)
            tagged = [n.lineno for n in own_nodes(fn)
                      if isinstance(n, ast.Assign) and f"{ticket}.tag"
                      in map(ast.unparse, n.targets)]
            used = min(n.lineno for n in own_nodes(fn)
                       if isinstance(n, ast.Name) and n.id == effects
                       and isinstance(n.ctx, ast.Load)
                       and n.lineno > call.lineno)
            assert any(call.lineno < line < used for line in tagged), (
                f"{qualname}: {ticket}.tag is not set between "
                f"{called_name(call)}() (line {call.lineno}) and the first "
                f"use of {effects} (line {used})")


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

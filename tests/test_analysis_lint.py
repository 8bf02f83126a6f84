"""Lint half of repro.analysis: rules, suppressions, CLI, clean tree.

Each seeded snippet carries exactly the defect its rule code describes;
tests assert the exact (code, line, col) so rule drift is caught, plus a
smoke test that the shipped tree itself lints clean (the CI gate).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.lint import (
    DEFAULT_PATH_RELAXATIONS,
    RULES,
    Violation,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import FENCES, check_fence

REPO = Path(__file__).resolve().parent.parent


def codes(violations):
    return [(v.code, v.line, v.col) for v in violations]


# -- DOOC001: ticket leaks ---------------------------------------------------


def test_dooc001_unguarded_request_flags():
    src = (
        "def leaky(store, iv):\n"
        "    ticket, effects = store.request_read(iv)\n"
        "    return effects\n"
    )
    assert codes(lint_source(src)) == [("DOOC001", 2, 4)]


def test_dooc001_try_with_releasing_finally_is_clean():
    src = (
        "def fine(store, iv, run):\n"
        "    held = []\n"
        "    try:\n"
        "        ticket, effects = store.request_read(iv)\n"
        "        held.append(ticket)\n"
        "    finally:\n"
        "        for t in held:\n"
        "            run(store.release(t))\n"
    )
    assert lint_source(src) == []


def test_dooc001_tag_handoff_is_clean():
    # Event-driven sites hand the ticket to the reply path via .tag — the
    # storage filter owns the release from then on.
    src = (
        "def handoff(store, iv, msg):\n"
        "    ticket, effects = store.request_write(iv)\n"
        "    ticket.tag = msg\n"
        "    return effects\n"
    )
    assert lint_source(src) == []


def test_dooc001_write_requests_are_covered_too():
    src = (
        "def leaky(store, iv):\n"
        "    ticket, effects = store.request_write(iv)\n"
        "    return effects\n"
    )
    assert codes(lint_source(src)) == [("DOOC001", 2, 4)]


def test_dooc001_covers_the_workers_acquire():
    # The worker asks for a task's every interval through one call; were it
    # renamed without REQUEST_FUNCS following, the rule would go quiet on
    # the one caller that holds tickets across a task body.
    leaky = (
        "def run(self, ctx, reads, writes, held):\n"
        "    granted = self._acquire(ctx, reads, writes, held)\n"
        "    return granted\n"
    )
    assert codes(lint_source(leaky)) == [("DOOC001", 2, 4)]
    guarded = (
        "def run(self, ctx, reads, writes):\n"
        "    held = []\n"
        "    try:\n"
        "        granted = self._acquire(ctx, reads, writes, held)\n"
        "        self._release_all(ctx, granted)\n"
        "    except BaseException:\n"
        "        self._abort(ctx, held)\n"
        "        raise\n"
    )
    assert lint_source(guarded) == []


def test_dooc001_still_checks_the_engines_worker():
    # Not a seeded string: the real worker filter must contain a request
    # call the rule recognises, and pass.
    import ast
    import inspect

    from repro.analysis.rules import REQUEST_FUNCS
    from repro.core import worker

    source = inspect.getsource(worker._WorkerFilter)
    calls = {node.func.attr for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)}
    assert calls & REQUEST_FUNCS == {"_acquire"}
    assert [v for v in lint_file(worker.__file__) if v.code == "DOOC001"] == []


# -- DOOC002: dropped Effect lists -------------------------------------------


def test_dooc002_dropped_release_effects_flag():
    src = (
        "def driver(store, ticket):\n"
        "    store.release(ticket)\n"
    )
    assert codes(lint_source(src)) == [("DOOC002", 2, 4)]


def test_dooc002_consumed_effects_are_clean():
    src = (
        "def driver(store, ticket):\n"
        "    effects = store.release(ticket)\n"
        "    return effects\n"
    )
    assert lint_source(src) == []


def test_dooc002_simpy_style_release_not_flagged():
    # DES-testbed Resource.release() returns None; only store-like
    # receivers carry the effect-list contract.
    src = (
        "def done(self, req):\n"
        "    self.resource.release(req)\n"
    )
    assert lint_source(src) == []


def test_dooc002_dropped_prefetch_flags():
    src = (
        "def warm(store, iv):\n"
        "    store.prefetch(iv)\n"
    )
    assert codes(lint_source(src)) == [("DOOC002", 2, 4)]


@pytest.mark.parametrize("call", ["store.retain({'x'})",
                                  "store.recover_remote(desc)"])
def test_dooc002_dropped_retain_and_recover_remote_flag(call):
    src = f"def driver(store, desc):\n    {call}\n"
    assert codes(lint_source(src)) == [("DOOC002", 2, 4)]


def test_effect_funcs_are_the_store_methods_that_return_effects():
    """One list, shared by the per-file and the deep rules, equal to the
    ``LocalStore`` methods annotated ``-> list[Effect]``: a renamed or new
    method cannot fall out of it."""
    import ast
    import inspect

    from repro.analysis import lint, rules
    from repro.analysis.flow import dataflow
    from repro.core.storage import LocalStore

    (cls,) = ast.parse(inspect.getsource(LocalStore)).body
    annotated = {f.name for f in cls.body if isinstance(f, ast.FunctionDef)
                 and f.returns is not None
                 and ast.unparse(f.returns) == "list[Effect]"}
    assert lint.EFFECT_FUNCS == annotated
    assert rules.EFFECT_FUNCS is dataflow.EFFECT_FUNCS is lint.EFFECT_FUNCS


# -- DOOC003: blocking calls under a lock ------------------------------------


def test_dooc003_sleep_under_lock_flags():
    src = (
        "import time\n"
        "def poll(self):\n"
        "    with self._lock:\n"
        "        time.sleep(0.1)\n"
    )
    assert codes(lint_source(src)) == [("DOOC003", 4, 8)]


def test_dooc003_untimed_wait_under_lock_flags():
    src = (
        "def park(self):\n"
        "    with self.cond:\n"
        "        self.cond.wait()\n"
    )
    assert codes(lint_source(src)) == [("DOOC003", 3, 8)]


def test_dooc003_timed_wait_is_clean():
    src = (
        "def park(self):\n"
        "    with self.cond:\n"
        "        self.cond.wait(0.05)\n"
    )
    assert lint_source(src) == []


def test_dooc003_sleep_outside_lock_is_clean():
    src = (
        "import time\n"
        "def backoff(self):\n"
        "    time.sleep(0.1)\n"
    )
    assert lint_source(src) == []


# -- DOOC004: trace-event vocabulary -----------------------------------------


def test_dooc004_unknown_event_name_flags():
    src = (
        "def note(tracer):\n"
        '    tracer.instant(0, "lane", "cat", "totally_unknown_event")\n'
    )
    assert codes(lint_source(src)) == [("DOOC004", 2, 37)]


def test_dooc004_vocabulary_event_is_clean():
    src = (
        "def note(tracer):\n"
        '    tracer.instant(0, "lane", "cat", "spill")\n'
    )
    assert lint_source(src) == []


# -- DOOC000 + framework -----------------------------------------------------


# -- DOOC005: non-atomic durable writes --------------------------------------


def test_dooc005_bare_open_on_ckpt_flags():
    src = (
        "def save(path, data):\n"
        "    with open(str(path) + '.ckpt', 'wb') as fh:\n"
        "        fh.write(data)\n"
    )
    assert codes(lint_source(src, select=["DOOC005"])) == [("DOOC005", 2, 9)]


def test_dooc005_write_bytes_on_blk_flags():
    src = (
        "from pathlib import Path\n"
        "def save(path, data):\n"
        "    Path(str(path) + '.blk').write_bytes(data)\n"
    )
    assert codes(lint_source(src, select=["DOOC005"])) == [("DOOC005", 3, 4)]


def test_dooc005_reads_and_nondurable_writes_are_clean():
    src = (
        "from pathlib import Path\n"
        "def roundtrip(path, data):\n"
        "    with open(str(path) + '.ckpt', 'rb') as fh:\n"
        "        old = fh.read()\n"
        "    Path('notes.txt').write_text('hi')\n"
        "    return old\n"
    )
    assert lint_source(src, select=["DOOC005"]) == []


#: fence code -> (a seeded violation, a path it is flagged at, a path it
#: is clean at: the row's home, or for DOOC013 anywhere outside server/)
FENCE_SEEDS = {
    "DOOC005": ("with open(str(path) + '.ckpt', 'wb') as fh:\n"
                "    fh.write(data)\n",
                "src/m.py", "src/repro/util/atomicio.py"),
    "DOOC006": ("shm = SharedMemory(name='x', create=True, size=8)\n",
                "src/m.py", "src/repro/core/shm.py"),
    "DOOC007": ("import zlib\n", "src/m.py", "src/repro/core/codecs.py"),
    "DOOC008": ("buf = mmap.mmap(-1, 4096)\n",
                "src/m.py", "src/repro/core/iofilter.py"),
    "DOOC013": ("time.sleep(0.5)\n", "src/repro/server/m.py", "src/m.py"),
}


@pytest.mark.parametrize("fence", FENCES, ids=lambda f: f.code)
def test_fence_holds_in_its_scope_only(fence):
    seed, flagged_at, clean_at = FENCE_SEEDS[fence.code]
    assert [v.code for v in lint_source(seed, flagged_at,
                                        select=[fence.code])] == [fence.code]
    assert lint_source(seed, clean_at, select=[fence.code]) == []


def test_fences_are_one_table_checked_by_one_function():
    assert {f.code for f in FENCES} == set(FENCE_SEEDS)
    assert all(RULES[f.code].check.func is check_fence for f in FENCES)


def test_dooc005_relaxed_under_tests_dir(tmp_path):
    torn = (
        "def torn(path):\n"
        "    with open(str(path) + '.blk', 'wb') as fh:\n"
        "        fh.write(b'half')\n"
    )
    test_file = tmp_path / "tests" / "test_torn.py"
    test_file.parent.mkdir()
    test_file.write_text(torn)
    assert lint_file(test_file) == []  # crash-injection tests tear on purpose
    assert codes(lint_file(test_file, strict=True)) == [("DOOC005", 2, 9)]
    assert "DOOC005" in DEFAULT_PATH_RELAXATIONS["tests"]


def test_unparseable_file_reports_dooc000():
    vs = lint_source("def broken(:\n")
    assert [v.code for v in vs] == ["DOOC000"]


def test_noqa_suppresses_named_code():
    src = (
        "def leaky(store, iv):\n"
        "    ticket, effects = store.request_read(iv)  # dooc: noqa[DOOC001]\n"
        "    return effects\n"
    )
    assert lint_source(src) == []


def test_noqa_bare_suppresses_everything_on_the_line():
    src = (
        "def driver(store, ticket):\n"
        "    store.release(ticket)  # dooc: noqa\n"
    )
    assert lint_source(src) == []


def test_noqa_for_other_code_does_not_suppress():
    src = (
        "def driver(store, ticket):\n"
        "    store.release(ticket)  # dooc: noqa[DOOC001]\n"
    )
    assert [v.code for v in lint_source(src)] == ["DOOC002"]


def test_select_restricts_rules():
    src = (
        "def leaky(store, iv):\n"
        "    ticket, effects = store.request_read(iv)\n"
        "    store.prefetch(iv)\n"
    )
    assert [v.code for v in lint_source(src, select=["DOOC002"])] == ["DOOC002"]


def test_unknown_code_rejected():
    with pytest.raises(ValueError, match="DOOC999"):
        lint_source("x = 1\n", select=["DOOC999"])


def test_registry_has_the_documented_rules():
    assert set(RULES) == {"DOOC001", "DOOC002", "DOOC003", "DOOC004",
                          "DOOC005", "DOOC006", "DOOC007", "DOOC008",
                          "DOOC013"}


# -- DOOC006: raw shared-memory construction ---------------------------------


def test_dooc006_raw_shared_memory_flags():
    src = (
        "from multiprocessing import shared_memory\n"
        "def grab():\n"
        "    return shared_memory.SharedMemory(name='x', create=True, "
        "size=64)\n"
    )
    assert codes(lint_source(src)) == [("DOOC006", 3, 11)]


def test_dooc006_bare_name_call_flags():
    src = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "shm = SharedMemory(name='x')\n"
    )
    assert codes(lint_source(src)) == [("DOOC006", 2, 6)]


def test_dooc006_pool_module_is_exempt():
    src = "shm = shared_memory.SharedMemory(name='x', create=True, size=8)\n"
    assert lint_source(src, path="src/repro/core/shm.py") == []
    assert codes(lint_source(src, path="src/repro/core/engine.py")) == [
        ("DOOC006", 1, 6)]


def test_dooc006_segment_pool_usage_is_clean():
    src = (
        "from repro.core.shm import SegmentPool, attach_view\n"
        "def ok(pool, handle):\n"
        "    name = pool.allocate(4096)\n"
        "    return name, attach_view(handle)\n"
    )
    assert lint_source(src) == []


# -- DOOC008: mappings made outside the block loader --------------------------


def test_dooc008_flags_both_spellings_of_a_mapping():
    src = (
        "import ctypes, mmap\n"
        "libc = ctypes.CDLL(None)\n"
        "def grab(fd, n):\n"
        "    a = mmap.mmap(fd, n)\n"
        "    b = libc.mmap(None, n, 1, 2, fd, 0)\n"
        "    return a, b\n"
    )
    assert codes(lint_source(src)) == [("DOOC008", 4, 8), ("DOOC008", 5, 8)]


def test_dooc008_block_loader_is_exempt():
    src = "buf = mmap.mmap(-1, 4096)\n"
    assert lint_source(src, path="src/repro/core/iofilter.py") == []
    assert codes(lint_source(src, path="src/repro/core/storage.py")) == [
        ("DOOC008", 1, 6)]


def test_dooc008_reading_through_the_loader_is_clean():
    src = (
        "import mmap\n"
        "from repro.core.iofilter import read_block\n"
        "def ok(scratch, desc):\n"
        "    return read_block(scratch, desc, 0), mmap.PAGESIZE\n"
    )
    assert lint_source(src) == []


def test_violation_render_and_json_roundtrip():
    v = Violation("DOOC001", "a.py", 3, 4, "leaked ticket")
    assert v.render() == "a.py:3:4: DOOC001 leaked ticket"
    assert v.to_json()["code"] == "DOOC001"


def test_path_relaxations_apply_to_tests_dir(tmp_path):
    leaky = (
        "def leaky(store, iv):\n"
        "    ticket, effects = store.request_read(iv)\n"
    )
    test_file = tmp_path / "tests" / "test_x.py"
    test_file.parent.mkdir()
    test_file.write_text(leaky)
    assert lint_file(test_file) == []          # DOOC001 relaxed under tests/
    assert codes(lint_file(test_file, strict=True)) == [("DOOC001", 2, 4)]
    assert "DOOC001" in DEFAULT_PATH_RELAXATIONS["tests"]


# -- the shipped tree is the ultimate fixture --------------------------------


def test_shipped_src_tree_is_clean():
    assert lint_paths([REPO / "src"]) == []


def test_shipped_tests_and_benchmarks_are_clean():
    assert lint_paths([REPO / "tests", REPO / "benchmarks",
                       REPO / "examples"]) == []


# -- CLI ---------------------------------------------------------------------


def test_cli_exit_zero_on_clean_tree():
    assert lint_main([str(REPO / "src" / "repro" / "analysis")]) == 0


def test_cli_flags_seeded_file_with_json(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def leaky(store, iv):\n"
        "    ticket, effects = store.request_read(iv)\n"
    )
    rc = lint_main(["--json", str(bad)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert [v["code"] for v in payload["violations"]] == ["DOOC001"]
    assert payload["files"] == 1
    assert payload["wall_time_s"] >= 0
    assert payload["deep"] is False


def test_cli_missing_path_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no_such_dir"
    assert lint_main([str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
    assert lint_main(["--json", "--deep", str(missing)]) == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("DOOC001", "DOOC002", "DOOC003", "DOOC004"):
        assert code in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint",
         str(REPO / "src" / "repro" / "analysis")],
        capture_output=True, text=True,
        cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr

"""Deep half of repro.analysis: whole-program rules and the CLI.

Each seeded fixture is a miniature multi-module program carrying exactly
the interprocedural defect its rule describes; the known-good fixtures
encode the repo's blessed zero-copy idioms (fill-then-seal, write grants,
copy-before-mutate) and must stay clean.  The property test at the bottom
proves ``# dooc: noqa[CODE]`` suppresses every registered rule — per-file
and whole-program alike — so the suppression contract can't drift as
rules are added.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import _rule_span, main as lint_main
from repro.analysis.flow import analyze_sources, deep_lint_paths
from repro.analysis.lint import (
    DEEP_RULES,
    RULES,
    all_rules,
    lint_source,
)

REPO = Path(__file__).resolve().parent.parent


def codes(violations):
    return [v.code for v in violations]


# -- DOOC010: sealed-view mutation escape --------------------------------------


ESCAPE_HELPERS = (
    "def normalize(arr):\n"
    "    arr[0] = 0.0\n"
    "    return arr\n"
)
ESCAPE_PUBLISH = (
    "import numpy as np\n"
    "from helpers import normalize\n"
    "def publish(buf):\n"
    "    view = np.frombuffer(buf, dtype=np.float64)\n"
    "    return normalize(view)\n"
)


def test_dooc010_cross_module_escape_flags():
    vs = analyze_sources({"src/helpers.py": ESCAPE_HELPERS,
                          "src/publish.py": ESCAPE_PUBLISH})
    assert [(v.code, v.path, v.line) for v in vs] == [
        ("DOOC010", "src/helpers.py", 2)]
    # the message carries the taint path back to the frombuffer call site
    assert "taint path" in vs[0].message
    assert "publish.publish" in vs[0].message


def test_dooc010_local_subscript_store_flags():
    src = (
        "import numpy as np\n"
        "def bad(buf):\n"
        "    view = np.frombuffer(buf, dtype=np.uint8)\n"
        "    view[0] = 1\n"
    )
    vs = analyze_sources({"src/m.py": src})
    assert [(v.code, v.line) for v in vs] == [("DOOC010", 4)]


def test_dooc010_augassign_and_inplace_method_flag():
    src = (
        "import numpy as np\n"
        "def bad(buf):\n"
        "    view = np.frombuffer(buf, dtype=np.uint8)\n"
        "    view += 1\n"
        "    view.sort()\n"
    )
    assert [(v.code, v.line) for v in analyze_sources({"src/m.py": src})] == [
        ("DOOC010", 4), ("DOOC010", 5)]


def test_dooc010_copyto_destination_flags():
    src = (
        "import numpy as np\n"
        "def bad(buf, payload):\n"
        "    view = np.frombuffer(buf, dtype=np.uint8)\n"
        "    np.copyto(view, payload)\n"
    )
    assert [(v.code, v.line) for v in analyze_sources({"src/m.py": src})] == [
        ("DOOC010", 4)]


def test_dooc010_writeable_flip_flags():
    src = (
        "import numpy as np\n"
        "def bad(buf):\n"
        "    view = np.frombuffer(buf, dtype=np.uint8)\n"
        "    view.flags.writeable = True\n"
    )
    assert [(v.code, v.line) for v in analyze_sources({"src/m.py": src})] == [
        ("DOOC010", 4)]


def test_dooc010_anonymous_sealed_expression_flags():
    src = (
        "import numpy as np\n"
        "def bad(buf, payload):\n"
        "    np.frombuffer(buf, dtype=np.uint8)[:] = payload\n"
    )
    assert [(v.code, v.line) for v in analyze_sources({"src/m.py": src})] == [
        ("DOOC010", 3)]


def test_dooc010_read_grant_ticket_data_flags():
    src = (
        "def reader(store, iv):\n"
        "    ticket, effects = store.request_read(iv)\n"
        "    ticket.data[0] = 1.0\n"
        "    return effects\n"
    )
    assert [(v.code, v.line) for v in analyze_sources({"src/m.py": src})] == [
        ("DOOC010", 3)]


def test_dooc010_write_grant_is_clean():
    src = (
        "def writer(store, iv):\n"
        "    ticket, effects = store.request_write(iv)\n"
        "    ticket.data[0] = 1.0\n"
        "    return effects\n"
    )
    assert analyze_sources({"src/m.py": src}) == []


def test_dooc010_writable_attach_view_is_clean():
    # the procplane scatter idiom: the callee asked for a writable map
    src = (
        "from repro.core.shm import attach_view\n"
        "def scatter(handle, payload):\n"
        "    view = attach_view(handle, writable=True)\n"
        "    view[:] = payload\n"
    )
    assert analyze_sources({"src/m.py": src}) == []


def test_dooc010_readonly_attach_view_flags():
    src = (
        "from repro.core.shm import attach_view\n"
        "def corrupt(handle, payload):\n"
        "    view = attach_view(handle)\n"
        "    view[:] = payload\n"
    )
    assert [(v.code, v.line) for v in analyze_sources({"src/m.py": src})] == [
        ("DOOC010", 4)]


def test_dooc010_pool_fill_then_seal_is_clean():
    # SegmentPool.ndarray is writable by default (fill-then-seal)
    src = (
        "def install(pool, spec, payload):\n"
        "    arr = pool.ndarray(spec)\n"
        "    arr[:] = payload\n"
    )
    assert analyze_sources({"src/m.py": src}) == []


def test_dooc010_readonly_pool_view_flags():
    src = (
        "def corrupt(pool, spec):\n"
        "    arr = pool.ndarray(spec, readonly=True)\n"
        "    arr[:] = 0\n"
    )
    assert [(v.code, v.line) for v in analyze_sources({"src/m.py": src})] == [
        ("DOOC010", 3)]


ALLOCATOR = (
    "import mmap\n"
    "import numpy as np\n"
    "def block_buffer(count, dtype=np.uint8):\n"
    "    return np.frombuffer(mmap.mmap(-1, count), dtype=dtype)\n"
    "def read_block(scratch, desc, block):\n"
    "    out = block_buffer(desc.block_length(block), desc.dtype)\n"
    "    out.flags.writeable = False\n"
    "    return out\n"
)


def test_dooc010_allocator_memory_is_writable_until_sealed():
    # the decode idiom: cast into fresh allocator memory, no frombuffer
    # at the call site — the allocator wraps its own buffer
    caller = (
        "import numpy as np\n"
        "from iofilter import block_buffer\n"
        "def cast_indices(blk):\n"
        "    idx = block_buffer(blk.nnz, np.int32)\n"
        "    idx[:] = blk.indices\n"
        "    return idx\n"
    )
    assert analyze_sources({"src/repro/core/iofilter.py": ALLOCATOR,
                            "src/caller.py": caller}) == []


def test_dooc010_loaded_block_stays_sealed():
    # ... while the block the loader filled from it and froze is sealed
    # for everyone downstream of read_block
    caller = (
        "from iofilter import read_block\n"
        "def patch(scratch, desc):\n"
        "    blk = read_block(scratch, desc, 0)\n"
        "    blk[0] = 0.0\n"
    )
    vs = analyze_sources({"src/repro/core/iofilter.py": ALLOCATOR,
                          "src/caller.py": caller})
    assert [(v.code, v.path, v.line) for v in vs] == [
        ("DOOC010", "src/caller.py", 4)]
    assert "read_block() loaded block" in vs[0].message


def test_dooc010_copy_before_mutate_is_clean():
    src = (
        "import numpy as np\n"
        "def fine(buf):\n"
        "    view = np.frombuffer(buf, dtype=np.uint8)\n"
        "    scratch = np.array(view)\n"
        "    scratch[0] = 1\n"
        "    own = view.copy()\n"
        "    own += 1\n"
        "    return scratch, own\n"
    )
    assert analyze_sources({"src/m.py": src}) == []


def test_dooc010_taint_survives_view_reshaping():
    # reshape/ravel/slicing preserve the underlying sealed buffer
    src = (
        "import numpy as np\n"
        "def bad(buf):\n"
        "    planes = np.frombuffer(buf, dtype=np.uint8).reshape(4, -1)\n"
        "    flat = planes.ravel()\n"
        "    flat[0] = 1\n"
    )
    assert [(v.code, v.line) for v in analyze_sources({"src/m.py": src})] == [
        ("DOOC010", 5)]


def test_dooc010_sealed_return_value_taints_caller():
    helpers = (
        "import numpy as np\n"
        "def open_block(buf):\n"
        "    return np.frombuffer(buf, dtype=np.float64)\n"
    )
    caller = (
        "from helpers import open_block\n"
        "def patch(buf):\n"
        "    block = open_block(buf)\n"
        "    block[0] = 0.0\n"
    )
    vs = analyze_sources({"src/helpers.py": helpers, "src/caller.py": caller})
    assert [(v.code, v.path, v.line) for v in vs] == [
        ("DOOC010", "src/caller.py", 4)]


# -- DOOC011: static lock-order cycles -----------------------------------------


LOCK_CYCLE = (
    "class Engine:\n"
    "    def io_then_sched(self):\n"
    "        with self._io_lock:\n"
    "            with self._sched_lock:\n"
    "                pass\n"
    "    def sched_then_io(self):\n"
    "        with self._sched_lock:\n"
    "            with self._io_lock:\n"
    "                pass\n"
)


def test_dooc011_direct_with_nesting_cycle_flags():
    vs = analyze_sources({"src/engine.py": LOCK_CYCLE})
    assert codes(vs) == ["DOOC011"]
    msg = vs[0].message
    assert "static lock-order cycle" in msg
    assert "Engine._io_lock" in msg and "Engine._sched_lock" in msg


def test_dooc011_cycle_through_a_call_carries_witness():
    src = (
        "class Engine:\n"
        "    def flush(self):\n"
        "        with self._io_lock:\n"
        "            self._drain()\n"
        "    def _drain(self):\n"
        "        with self._sched_lock:\n"
        "            pass\n"
        "    def schedule(self):\n"
        "        with self._sched_lock:\n"
        "            with self._io_lock:\n"
        "                pass\n"
    )
    vs = analyze_sources({"src/engine.py": src})
    assert codes(vs) == ["DOOC011"]
    # the witness names the call edge that closes the cycle
    assert "while calling" in vs[0].message
    assert "Engine._drain" in vs[0].message


def test_dooc011_consistent_order_is_clean():
    src = (
        "class Engine:\n"
        "    def flush(self):\n"
        "        with self._io_lock:\n"
        "            with self._sched_lock:\n"
        "                pass\n"
        "    def drain(self):\n"
        "        with self._io_lock:\n"
        "            with self._sched_lock:\n"
        "                pass\n"
    )
    assert analyze_sources({"src/engine.py": src}) == []


def test_dooc011_reentrant_single_lock_is_clean():
    src = (
        "class Engine:\n"
        "    def pump(self):\n"
        "        with self._lock:\n"
        "            with self._lock:\n"
        "                pass\n"
    )
    assert analyze_sources({"src/engine.py": src}) == []


# -- DOOC012: interprocedural effect drop ---------------------------------------


EFFECT_WRAPPER = (
    "def _cleanup(store, ticket):\n"
    "    return store.release(ticket)\n"
    "def driver(store, ticket):\n"
    "    _cleanup(store, ticket)\n"
)


def test_dooc012_wrapped_effect_drop_flags():
    vs = analyze_sources({"src/m.py": EFFECT_WRAPPER})
    assert [(v.code, v.line) for v in vs] == [("DOOC012", 4)]
    assert "result of _cleanup() discarded" in vs[0].message


@pytest.mark.parametrize("wrapper, call", [
    ("_keep", "store.retain(names)"),
    ("_rehome", "store.recover_remote(names)"),
])
def test_dooc012_wrapped_retain_and_recover_remote_flag(wrapper, call):
    src = (
        f"def {wrapper}(store, names):\n"
        f"    return {call}\n"
        "def driver(store, names):\n"
        f"    {wrapper}(store, names)\n"
    )
    vs = analyze_sources({"src/m.py": src})
    assert [(v.code, v.line) for v in vs] == [("DOOC012", 4)]
    assert f"result of {wrapper}() discarded" in vs[0].message


def test_dooc012_bound_but_never_pumped_flags():
    src = (
        "def _cleanup(store, ticket):\n"
        "    return store.release(ticket)\n"
        "def driver(store, ticket):\n"
        "    _ = _cleanup(store, ticket)\n"
    )
    vs = analyze_sources({"src/m.py": src})
    assert [(v.code, v.line) for v in vs] == [("DOOC012", 4)]
    assert "never" in vs[0].message and "pumped" in vs[0].message


def test_dooc012_pumped_effects_are_clean():
    src = (
        "def _cleanup(store, ticket):\n"
        "    return store.release(ticket)\n"
        "def driver(store, ticket, run):\n"
        "    effects = _cleanup(store, ticket)\n"
        "    run(effects)\n"
    )
    assert analyze_sources({"src/m.py": src}) == []


def test_dooc012_accumulated_effect_list_flags():
    src = (
        "def teardown(store, tickets):\n"
        "    effects = []\n"
        "    for t in tickets:\n"
        "        effects.extend(store.release(t))\n"
        "    return effects\n"
        "def shutdown(store, tickets):\n"
        "    teardown(store, tickets)\n"
    )
    vs = analyze_sources({"src/m.py": src})
    assert [(v.code, v.line) for v in vs] == [("DOOC012", 7)]
    assert "accumulated effect list" in vs[0].message


def test_dooc012_chain_through_two_helpers_flags():
    helpers = (
        "def _release(store, t):\n"
        "    return store.release(t)\n"
        "def _cleanup(store, t):\n"
        "    return _release(store, t)\n"
    )
    driver = (
        "from helpers import _cleanup\n"
        "def shutdown(store, t):\n"
        "    _cleanup(store, t)\n"
    )
    vs = analyze_sources({"src/helpers.py": helpers, "src/driver.py": driver})
    assert [(v.code, v.path, v.line) for v in vs] == [
        ("DOOC012", "src/driver.py", 3)]


def test_dooc012_direct_drop_left_to_dooc002():
    # `store.release(t)` as a bare statement is DOOC002's per-file finding;
    # the deep rule must not duplicate it.
    src = (
        "def driver(store, ticket):\n"
        "    store.release(ticket)\n"
    )
    assert analyze_sources({"src/m.py": src}) == []
    assert codes(lint_source(src, path="src/m.py")) == ["DOOC002"]


# -- registry + relaxations ------------------------------------------------------


def test_deep_registry_has_the_documented_rules():
    assert set(DEEP_RULES) == {"DOOC010", "DOOC011", "DOOC012"}
    assert set(all_rules()) == set(RULES) | set(DEEP_RULES)


def test_help_text_rule_span_tracks_registry():
    assert _rule_span() == "rules DOOC001..DOOC013"


def test_deep_rules_relaxed_under_tests_dir():
    src = (
        "import numpy as np\n"
        "def scribble(buf):\n"
        "    view = np.frombuffer(buf, dtype=np.uint8)\n"
        "    view[0] = 1\n"
    )
    assert analyze_sources({"tests/test_x.py": src}) == []
    assert codes(analyze_sources({"tests/test_x.py": src},
                                 strict=True)) == ["DOOC010"]


def test_unknown_code_rejected_by_deep_pass():
    with pytest.raises(ValueError, match="DOOC999"):
        analyze_sources({"src/m.py": "x = 1\n"}, select=["DOOC999"])


def test_unparseable_file_skipped_by_deep_pass():
    # DOOC000 belongs to the per-file pass; the program builder skips junk
    vs = analyze_sources({"src/junk.py": "def broken(:\n",
                          "src/m.py": EFFECT_WRAPPER})
    assert [(v.code, v.path) for v in vs] == [("DOOC012", "src/m.py")]


# -- the noqa contract holds for EVERY registered rule ---------------------------


RULE_SEEDS = {
    "DOOC001": (
        "def leaky(store, iv):\n"
        "    ticket, effects = store.request_read(iv)\n"
        "    return effects\n"
    ),
    "DOOC002": (
        "def driver(store, ticket):\n"
        "    store.release(ticket)\n"
    ),
    "DOOC003": (
        "import time\n"
        "def poll(self):\n"
        "    with self._lock:\n"
        "        time.sleep(0.1)\n"
    ),
    "DOOC004": (
        "def note(tracer):\n"
        '    tracer.instant(0, "lane", "cat", "totally_unknown_event")\n'
    ),
    "DOOC005": (
        "def save(path, data):\n"
        "    with open(str(path) + '.ckpt', 'wb') as fh:\n"
        "        fh.write(data)\n"
    ),
    "DOOC006": (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "shm = SharedMemory(name='x')\n"
    ),
    "DOOC007": (
        "import zlib\n"
        "def pack(data):\n"
        "    return zlib.compress(data)\n"
    ),
    "DOOC008": (
        "import mmap\n"
        "buf = mmap.mmap(-1, 4096)\n"
    ),
    "DOOC010": (
        "import numpy as np\n"
        "def bad(buf):\n"
        "    view = np.frombuffer(buf, dtype=np.uint8)\n"
        "    view[0] = 1\n"
    ),
    "DOOC011": LOCK_CYCLE,
    "DOOC012": EFFECT_WRAPPER,
    "DOOC013": (
        "import time\n"
        "def worker_loop(self):\n"
        "    time.sleep(0.5)\n"
    ),
}

#: rules whose scope is a specific directory need a matching seed path
RULE_SEED_PATHS = {"DOOC013": "src/repro/server/m.py"}


def _run_rule(code: str, src: str):
    path = RULE_SEED_PATHS.get(code, "src/m.py")
    if code in DEEP_RULES:
        return analyze_sources({path: src}, select=[code])
    return lint_source(src, path=path, select=[code])


def test_rule_seeds_cover_the_whole_registry():
    # if a new rule lands without a seed here, the property test below
    # silently loses coverage — fail loudly instead
    assert set(RULE_SEEDS) == set(all_rules())


@pytest.mark.parametrize("code", sorted(RULE_SEEDS))
def test_noqa_suppresses_every_registered_rule(code):
    src = RULE_SEEDS[code]
    vs = _run_rule(code, src)
    assert codes(vs) == [code]

    flagged = vs[0].line
    lines = src.splitlines()
    lines[flagged - 1] += f"  # dooc: noqa[{code}]"
    assert _run_rule(code, "\n".join(lines) + "\n") == []

    # a noqa naming a different rule must NOT suppress this one
    other = "DOOC002" if code == "DOOC001" else "DOOC001"
    lines = src.splitlines()
    lines[flagged - 1] += f"  # dooc: noqa[{other}]"
    assert codes(_run_rule(code, "\n".join(lines) + "\n")) == [code]


@pytest.mark.parametrize("code", sorted(RULE_SEEDS))
def test_bare_noqa_suppresses_every_registered_rule(code):
    src = RULE_SEEDS[code]
    flagged = _run_rule(code, src)[0].line
    lines = src.splitlines()
    lines[flagged - 1] += "  # dooc: noqa"
    assert _run_rule(code, "\n".join(lines) + "\n") == []


# -- CLI ------------------------------------------------------------------------------


def test_cli_deep_finds_cross_file_escape(tmp_path, capsys):
    (tmp_path / "helpers.py").write_text(ESCAPE_HELPERS)
    (tmp_path / "publish.py").write_text(ESCAPE_PUBLISH)
    # shallow pass alone misses the interprocedural escape
    assert lint_main([str(tmp_path)]) == 0
    capsys.readouterr()
    rc = lint_main(["--deep", "--json", str(tmp_path)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["deep"] is True
    assert payload["files"] == 2
    assert payload["wall_time_s"] >= 0
    assert [v["code"] for v in payload["violations"]] == ["DOOC010"]


def test_cli_list_rules_marks_deep_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("DOOC010", "DOOC011", "DOOC012"):
        assert code in out
    assert all(f"| `{c}` | {rule.name} | program |" in out
               for c, rule in DEEP_RULES.items())


def test_docs_rule_table_is_generated_from_registry(capsys):
    assert lint_main(["--list-rules"]) == 0
    table = capsys.readouterr().out
    for code in all_rules():
        assert f"`{code}`" in table
    doc = (REPO / "docs" / "ANALYSIS.md").read_text(encoding="utf-8")
    assert table in doc, (
        "docs/ANALYSIS.md rule table is stale: regenerate it with "
        "`python -m repro lint --list-rules`")


# -- the shipped tree is the ultimate fixture ------------------------------------------


def test_shipped_tree_is_deep_clean():
    assert deep_lint_paths([REPO / "src", REPO / "tests",
                            REPO / "benchmarks", REPO / "examples"]) == []


def test_module_entry_point_runs_deep():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--deep",
         str(REPO / "src" / "repro" / "analysis")],
        capture_output=True, text=True,
        cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

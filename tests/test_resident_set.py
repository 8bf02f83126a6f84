"""The budget is the resident set (DESIGN.md, "Resident memory").

Every block-sized buffer the thread plane makes comes from
``repro.core.iofilter.block_buffer`` and goes back to the operating system
when its last view dies.  What that buys is measured here from outside the
allocator, in a fresh process: resident memory stops following the number
of runs the process has made, and a run's high-water mark stays within
what the engine accounts (budget + operand cache) plus a stated number of
blocks in flight.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: vector blocks of 1 MiB, sub-matrices of 3 MiB, A = 9 sub-matrices
PART, K, ITERATIONS, RUNS = 131072, 3, 2, 8
#: room for three sub-matrices and a few vector blocks beside them
BUDGET = 14_000_000
#: blocks a run holds that no account covers: the iterate being fetched,
#: a multiply's cast index arrays before the operand cache takes them
UNACCOUNTED_BLOCKS = 3

CHILD = r"""
import gc, json, shutil, sys, tempfile
from pathlib import Path

import numpy as np

from repro.core.engine import DOoCEngine
from repro.spmv.csr import CSRBlock
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_blocked_reference

part, k, iterations, runs, budget = map(int, sys.argv[1:])


def status(field):
    for line in open("/proc/self/status"):
        if line.startswith(field + ":"):
            return int(line.split()[1]) * 1024
    return None


rng = np.random.default_rng(7)
p = GridPartition(part * k, k)
blocks = {
    (u, v): CSRBlock(part, part, np.arange(part + 1, dtype=np.int64),
                     rng.integers(0, part, size=part).astype(np.int64),
                     rng.uniform(-1.0, 1.0, part) / k)
    for u, v in p.coords()}
x0 = rng.uniform(-1.0, 1.0, p.n)
want = iterated_spmv_blocked_reference(blocks, p, x0, iterations)
built = build_iterated_spmv(blocks, p.split_vector(x0), iterations,
                            n_nodes=1, policy="simple")
scratch = Path(tempfile.mkdtemp(prefix="dooc-resident-"))
out = {"block": max(d.nbytes for d in built.program.arrays.values()),
       "anon": [], "spills": [], "correct": True}
try:
    gc.collect()
    out["rss_before"] = status("VmRSS")
    for r in range(runs):
        # a new engine per run, so new filter threads — and with them new
        # malloc arenas — every time
        eng = DOoCEngine(n_nodes=1, memory_budget_per_node=budget,
                         scratch_dir=scratch / f"run{r}")
        try:
            report = eng.run(built.program, timeout=120)
            got = built.fetch_final(eng)
        finally:
            eng.cleanup()
        out["correct"] &= bool(np.array_equal(got, want))
        out["spills"].append(report.metrics[0].get("spills", 0))
        out["opcache"] = eng.opcache_bytes
        del eng, report, got
        gc.collect()
        out["anon"].append(status("RssAnon"))
    out["hwm"] = status("VmHWM")
finally:
    shutil.rmtree(scratch, ignore_errors=True)
print(json.dumps(out))
"""


def _has_rss_anon() -> bool:
    try:
        return "RssAnon:" in Path("/proc/self/status").read_text()
    except OSError:
        return False


@pytest.mark.skipif(not _has_rss_anon(),
                    reason="/proc/self/status reports no RssAnon")
@pytest.mark.parametrize("codec", ["raw", "zlib"])
def test_resident_memory_follows_the_budget_not_the_number_of_runs(codec):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD,
         *map(str, (PART, K, ITERATIONS, RUNS, BUDGET))],
        capture_output=True, text=True, timeout=300, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src"),
             "DOOC_CODEC": codec})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"], "iterate differs from the blocked reference"
    assert min(out["spills"]) >= 12, out["spills"]  # the write path ran
    mb = lambda n: round(n / 1e6, 1)

    # Run 3 has warmed every cache there is: from there on, what is
    # resident after a run does not depend on which run it was.
    steady = out["anon"][2:]
    assert max(steady) - min(steady) <= out["block"], (
        f"resident anonymous memory after each run (MB): "
        f"{[mb(a) for a in out['anon']]} — it follows the runs")

    # The high-water mark of all eight runs over the reading before the
    # first: what the engine accounts, plus a stated number of blocks.
    over = out["hwm"] - out["rss_before"]
    allowed = BUDGET + out["opcache"] + UNACCOUNTED_BLOCKS * out["block"]
    assert over <= allowed, (
        f"peak resident {mb(over)} MB over the pre-run reading; budget "
        f"{mb(BUDGET)} + opcache {mb(out['opcache'])} + "
        f"{UNACCOUNTED_BLOCKS} blocks of {mb(out['block'])} MB allow "
        f"{mb(allowed)} MB")

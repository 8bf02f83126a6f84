"""Clocks, spans, resource counters and order statistics for the benchmark.

Everything here observes the program from outside: wall time around public
calls (``time.monotonic`` — the clock the engine's tracer uses, so benchmark
spans and engine events share one time axis), ``getrusage`` for CPU, and
``/proc/self`` for resident memory.
"""

from __future__ import annotations

import ctypes
import gc
import itertools
import os
import platform
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

now = time.monotonic


class Spans:
    """Benchmark-side spans: name, start, end, parent, repeat id.

    Kept in memory; ``run.py`` writes them out once, after the last repeat.
    The parent is the innermost open span of the same thread.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.repeat = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {"id": next(self._ids), "name": name,
               "parent": stack[-1]["id"] if stack else None,
               "repeat": self.repeat, "start": now(), "end": None}
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = now()
            stack.pop()
            self.records.append(rec)


def dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


# -- resources ---------------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark for this process,
    so a repeat's peak is the engine's and not the input generator's.

    Garbage is collected and the allocator's free lists handed back first:
    the previous repeat's engine is cyclic garbage still holding blocks, and
    glibc keeps freed blocks on its heap, so without this the mark drifts
    upwards from repeat to repeat.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the mark is only less steady
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # the mark then covers the whole process; still an upper bound


def open_descriptors() -> int:
    """File descriptors this process holds (0 where /proc does not say)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process since the last reset, plus the
    largest child reaped so far (process-plane workers)."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
    except OSError:
        pass
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + child_kb) / 1024.0


# -- the host's CPU ----------------------------------------------------------
#
# This sandbox's CPU runs the same code at about 1x, 1.3x or 1.7x its best
# time, changing within seconds and, in the mix of the three, over minutes to
# half an hour (other tenants of the host; see README "The host's CPU").  Two
# sets of runs of the same code then disagree by 30-75 % on the CPU-bound
# workloads.  Now and then the host also takes the CPU away altogether (the
# `steal` column of /proc/stat: 320 s within ten minutes once, next to none in
# the five hours before), and a repeat reads 3-6x.  So every timed region is
# bracketed by a fixed calibration loop, and the gated times are reported at a
# fixed reference speed: stolen time is taken off the wall, the part of the
# rest that was CPU time is divided by how much slower than the reference the
# loop ran, and the part spent waiting is left as it is.

SPIN_ITERATIONS = 200_000
#: CPU time of one pass of the loop on this host at its best: the unit of
#: ``host.slowdown``
SPIN_REFERENCE_S = 0.0072


def _spin_pass() -> float:
    """CPU time of one pass (the thread's own, so neither stolen time nor a
    stray kernel thread counts: only how fast the CPU runs while it runs)."""
    t0 = time.thread_time()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i * i
    return time.thread_time() - t0


def slowdown(passes: int = 4) -> float:
    """How much slower than the reference the CPU runs right now (about
    30 ms of a pure-Python loop)."""
    return sum(_spin_pass() for _ in range(passes)) / passes / SPIN_REFERENCE_S


def stolen_seconds() -> float:
    """CPU time the host has taken, since boot, from the CPUs this process may
    run on while they had work to do (10 ms steps; 0 where /proc does not
    say)."""
    try:
        cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
        fields = (line.split() for line in
                  Path("/proc/stat").read_text().splitlines())
        ticks = sum(int(f[8]) for f in fields if f[0] in cpus)
        return ticks / os.sysconf("SC_CLK_TCK")
    except (AttributeError, OSError, IndexError, ValueError):
        return 0.0


def at_reference_speed(wall_s: float, cpu_s: float, slow: float,
                       stolen_s: float = 0.0) -> float:
    """``wall_s`` as it would have read on an undisturbed CPU of the reference
    speed: ``stolen_s`` of it the host took; of the rest, ``cpu_s`` (at most
    all of it: one CPU) scales with the CPU's speed, and what was spent
    waiting for disk or timers does not."""
    wall_s = max(wall_s - stolen_s, 0.0)
    cpu_s = min(cpu_s, wall_s)
    return wall_s - cpu_s + cpu_s / slow


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def iqr(values) -> float:
    """Distance between the first and third quartile (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return float(q[2] - q[0])


def percentile(values, p: float) -> float:
    return float(np.percentile(values, p)) if len(values) else 0.0


def supported_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    return max(0.0, 100.0 * (1.0 - 10.0 / n)) if n else 0.0


# -- environment -------------------------------------------------------------


def scratch_filesystem(path: Path) -> str:
    """Filesystem type holding ``path`` (longest matching mount point)."""
    best, fstype = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            _, mount, kind = line.split()[:3]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def environment(scratch: Path) -> dict:
    import scipy

    load1 = os.getloadavg()[0]
    nproc = os.cpu_count() or 1  # the machine's, not the one CPU pinned to
    pinned = (sorted(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else None)
    return {
        "nproc": nproc,
        "pinned_to_cpu": pinned,
        "loadavg_1min": round(load1, 2),
        "noisy_start": load1 > nproc,  # flagged, never failed
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scratch_fs": scratch_filesystem(scratch),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }

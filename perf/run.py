#!/usr/bin/env python3
"""The repo's benchmark: six pinned workloads, timed end to end and layer
by layer.  See ``perf/README.md``.

    python3 perf/run.py --workload ooc_read --seed 1 --seconds 8 --trace 0
        one workload, in this process; the last line of stdout is one JSON
        object {"correct", "attempted", "failed", "metrics"} holding every
        end-to-end metric declared in BENCHMARK.json (--trace 1: every
        per-layer metric, from a run with the engine's tracer and the probes)
    python3 perf/run.py                all workloads, each in a fresh process
    python3 perf/run.py --probes       the layer probes alone, at length
    python3 perf/run.py --aa           two sets of runs of this same code
    python3 perf/run.py --selftest     tiny shapes, under 30 s
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TMP = OUT / "tmp"
DEFAULT_SEED = 20120910


def configure_process() -> None:
    """Make this process (and what it starts) a measuring process.  Called by
    the entry points, never on import.

    One BLAS/OpenMP thread (takes effect if NumPy is not loaded yet), so the
    load is the engine's own threads and processes; every temporary file
    inside the checkout; ``src/`` importable; and ONE CPU.  The sandbox gives
    its two vCPUs between one and two host CPUs' worth of cycles, changing by
    the second (two spinning processes take 1.1x to 2.2x as long as one), and
    the workloads that keep both busy moved 60 % between two sets of runs of
    the same code.  On one CPU the capacity is the same in both regimes; what
    is lost is wall-clock scaling across cores: a change that only improves
    overlap between threads or processes cannot show here.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perf/run.py: {ROOT / 'src' / 'repro'} not found; the "
                 "benchmark measures the repo's own package and needs the "
                 "whole checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    if hasattr(os, "sched_setaffinity"):  # Linux only
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Every process-plane run leaves about one descriptor per task open for
    # the life of the process (README, first findings): `incore_proc` passes
    # 10 000 in a run, far above the usual soft limit of 1024.
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    except (ValueError, OSError):
        pass  # the workload then fails by name (EMFILE), counted as failed
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_pids() -> list[int]:
    """Every process whose parent is this one, zombies included (Linux;
    elsewhere none is listed and ``stop_children`` only waits)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # ended while we looked
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended;
    called on every path out of ``main``.

    A run that went well has one child left: multiprocessing's resource
    tracker, started by the engine's first shared-memory segment.  It ends
    by itself when this process does, but only *after* it, so whoever looks
    at the moment of exit still sees it running.  It ignores SIGTERM and
    ends when the last copy of its pipe is closed, so everything else
    (worker processes of a run that raised) is signalled first; what is
    still alive after ``grace_s`` is killed.
    """
    from multiprocessing import resource_tracker

    def send(sig: int, *, spare: int | None = None) -> None:
        for pid in child_pids():
            if pid != spare:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass  # ended and reaped since we listed it

    tracker = resource_tracker._resource_tracker
    send(signal.SIGTERM, spare=tracker._pid)
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left, running or zombie
        if pid == 0:
            if time.monotonic() > deadline:
                send(signal.SIGKILL)
            time.sleep(0.01)


def load_spec() -> dict:
    """The declaration: workloads, which metrics are gated, their bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def leftovers() -> list[str]:
    """What a workload must not leave behind."""
    from repro.core.shm import dev_shm_segments

    found = [f"/dev/shm/{name}" for name in dev_shm_segments()]
    found += [str(p) for p in TMP.glob("dooc-*")]
    return found


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool, *,
            tiny: bool = False, probe_values: dict | None = None) -> dict:
    """Measure one workload in this process; returns the result object
    (plus a human-readable ``"report"`` and the names ``"computed"``).

    A traced run also needs the layer probes, which do not depend on the
    workload: it measures them itself unless ``probe_values`` hands them in.
    """
    configure_process()
    import bench
    import workloads
    from measure import environment

    env = environment(TMP)
    w = (workloads.make_tiny if tiny else workloads.make)(name)
    scratch = TMP / f"{name}-{os.getpid()}"
    notes = {}
    try:
        if trace and probe_values is None:
            import probes  # first: they fork, and no thread exists yet
            probe_values, notes = probes.run_probes(scratch / "probes")
        res = bench.measure_workload(
            w, seed=seed, seconds=seconds, trace=trace, scratch=scratch,
            trace_path=OUT / f"{name}.trace.json" if trace else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    res["values"].update(probe_values or {})
    res["problems"] += [f"left behind: {p}" for p in leftovers()]

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(res["values"].get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    report = [
        f"== {name}: {w.describe()}",
        f"   seed {seed}, {res['repeats']} measured repeats + 1 warm-up"
        + (" + 1 traced" if trace else "")
        + f", pooled samples {res['samples']}" * bool(res["samples"]),
        f"   env {env}",
        bench.format_table(wanted, res["values"], res["spread"]),
    ]
    if not trace:  # the gated times are at the reference CPU speed
        report.append("   as the clock read them: " + ", ".join(
            f"{k} {res['values'][k]:.4f}"
            for k in ("setup_wall_s", "run_wall_s", "host.slowdown",
                      "host.stolen_s")))
    report += [f"   base of {k}: {v}" for k, v in sorted(notes.items())]
    report += [f"   PROBLEM {p}" for p in res["problems"]]
    if env["noisy_start"]:
        report.append("   NOTE started with 1-min loadavg above nproc")
    stolen = res["values"].get("host.stolen_s", 0.0)
    if stolen > 0.05 * res["repeats"] * res["values"].get("run_wall_s", 0.0):
        report.append(f"   NOTE the host stole {stolen:.2f} s of CPU during "
                      "the measured repeats: better run again than read")
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics,
            "report": "\n".join(report), "computed": set(res["values"])}


def spawn(*args: str) -> dict:
    """``run.py`` with ``args`` in a fresh process (isolates peak RSS,
    /dev/shm and page-cache state); passes its report on and returns the
    JSON object of its last line."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.rstrip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py {' '.join(args)}: exit {proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def spawn_workload(name: str, seed: int, seconds: float, trace: bool,
                   probes_file: Path | None = None) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(int(trace))]
    if probes_file is not None:
        args += ["--probes-file", str(probes_file)]
    return spawn(*args)


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Every workload untraced and traced; the probes once, on their own."""
    OUT.mkdir(parents=True, exist_ok=True)
    probes_file = OUT / f"probes-{os.getpid()}.json"
    bad = []
    try:
        probes_file.write_text(json.dumps(spawn("--probes")))
        for w in spec["workloads"]:
            for trace in (False, True):
                res = spawn_workload(w["name"], seed, seconds, trace,
                                     probes_file)
                if not res["correct"] or res["failed"]:
                    bad.append(f"{w['name']} trace={int(trace)}")
    finally:
        probes_file.unlink(missing_ok=True)
    print("FAILED: " + ", ".join(bad) if bad else
          "all workloads correct, no failed operation, nothing left behind")
    return 1 if bad else 0


def run_probes_alone(spec: dict) -> int:
    """The probes at four times the iterations a traced run gives them (about
    15 s): every probe with its unit and base; the last line is the values as
    one JSON object."""
    configure_process()
    import probes

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    scratch = TMP / f"probes-{os.getpid()}"
    try:
        values, notes = probes.run_probes(scratch, effort=4)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name in sorted(values):
        print(f"  {name:36s} {values[name]:14.4f} {units[name]:8s}"
              + (f"  [{notes[name]}]" if name in notes else ""))
    print(json.dumps(values), flush=True)
    return 0


def aa_verdict(a: list[float], b: list[float], bound: float) -> dict:
    """Two sets of runs of the same code, judged without a direction: the
    sets DISAGREE if their medians are further apart than the bound
    (whichever is the slower), and the pair is UNRESOLVED if either set's
    own spread (IQR / median) is wider than the bound."""
    from measure import iqr, median

    med_a, med_b = median(a), median(b)
    apart = max(med_a, med_b) / min(med_a, med_b) - 1.0
    spreads = [iqr(vals) / median(vals) for vals in (a, b)]
    verdict = ("DISAGREE" if apart > bound else
               "UNRESOLVED" if max(spreads) > bound else "ok")
    return {"median_a": med_a, "median_b": med_b, "apart": apart,
            "spread_a": spreads[0], "spread_b": spreads[1], "bound": bound,
            "verdict": verdict}


def run_aa(spec: dict, runs: int, seed: int, seconds: float) -> int:
    """Two sets of ``runs`` runs per workload (seeds seed..seed+runs-1 in
    both) against the bounds fixed in BENCHMARK.json; exit 1 unless every
    (workload, end-to-end metric) reads ``ok``."""
    workloads = [w["name"] for w in spec["workloads"]]
    sets = []
    for _ in range(2):
        got = {}
        for name in workloads:
            for i in range(runs):
                res = spawn_workload(name, seed + i, seconds, False)
                if not res["correct"] or res["failed"]:
                    print(f"A/A: {name} seed {seed + i} incorrect")
                    return 1
                for metric, v in res["metrics"].items():
                    got.setdefault((name, metric), []).append(v["value"])
        sets.append(got)
    rows, not_ok = [], {}
    for m in spec["end_to_end"]:
        for name in workloads:
            row = aa_verdict(*(s[(name, m["name"])] for s in sets),
                             m["bound"])
            rows.append({"workload": name, "metric": m["name"], **row})
            print(f"  {name:12s} {m['name']:12s} A {row['median_a']:10.4f} B "
                  f"{row['median_b']:10.4f} apart {row['apart']:6.2%}  spread "
                  f"{row['spread_a']:6.2%} / {row['spread_b']:6.2%}  bound "
                  f"{m['bound']:.0%}  {row['verdict']}")
            if row["verdict"] != "ok":
                not_ok.setdefault(m["name"], []).append(
                    f"{name} ({row['verdict']}, spread "
                    f"{max(row['spread_a'], row['spread_b']):.1%}, apart "
                    f"{row['apart']:.1%})")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "aa.json").write_text(json.dumps(rows, indent=1))
    for metric, where in not_ok.items():
        # setup_s must stay an end-to-end metric (the contract names it)
        print(f"A/A: {metric} did not meet its bound on " + "; ".join(where)
              + (": stays gated, read it as unresolved there"
                 if metric == "setup_s" else
                 ": demote it to per_layer in BENCHMARK.json, do not widen "
                 "the bound"))
    return 1 if not_ok else 0


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"]
                                           for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probes-file", type=Path,
                    help="probe values measured by an earlier `--probes` of "
                    "this same invocation (run.py without arguments)")
    ap.add_argument("--probes", action="store_true")
    ap.add_argument("--aa", action="store_true")
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per workload per set for --aa")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    # PR_SET_CHILD_SUBREAPER (Linux): a process orphaned below this one (the
    # workers of a `spawn`ed run.py killed at its timeout) becomes this
    # one's child, where `stop_children` finds it.
    if sys.platform == "linux":
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    # a terminated run leaves through the `finally` too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return dispatch(spec, args)
    finally:
        stop_children()


def dispatch(spec: dict, args) -> int:
    if args.selftest:
        configure_process()
        import test_selftest
        return test_selftest.main()
    if args.probes:
        return run_probes_alone(spec)
    if args.aa:
        return run_aa(spec, args.runs, args.seed, args.seconds)
    if args.workload is None:
        return run_all(spec, args.seed, args.seconds)
    probe_values = (json.loads(args.probes_file.read_text())
                    if args.probes_file else None)
    res = run_one(spec, args.workload, args.seed, args.seconds,
                  bool(args.trace), probe_values=probe_values)
    print(res.pop("report"), flush=True)
    del res["computed"]
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

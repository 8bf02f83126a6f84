"""``python -m repro bench`` — run/check the pinned perf workloads.

Typical uses::

    python -m repro bench --quick --tag ci          # fresh quick run
    python -m repro bench --check --tolerance 25    # gate against baseline

``--check`` compares a candidate report (``--candidate``, default
``BENCH_ci.json`` when present, else a fresh quick run) against the
committed baseline (``--baseline``, default ``BENCH_baseline.json``) and
exits 1 on a regression.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.harness import (
    check_regression,
    load_report,
    run_suite,
    write_report,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the pinned iterated-SpMV benchmark matrix, or "
                    "check a report against the committed baseline.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workload matrix")
    parser.add_argument("--tag", default="dev",
                        help="report written to BENCH_<tag>.json (default dev)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_<tag>.json (default .)")
    parser.add_argument("--worker-plane", choices=("thread", "process"),
                        default=None,
                        help="force every workload onto one worker plane "
                             "(default: each workload's pinned plane)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="also export the out-of-core workload's Chrome "
                             "trace to PATH")
    parser.add_argument("--convergence", action="store_true",
                        help="also run the pinned incremental/async "
                             "convergence workload into the report")
    parser.add_argument("--convergence-only", action="store_true",
                        help="run only the convergence workload (the CI "
                             "convergence-gate leg)")
    parser.add_argument("--check", action="store_true",
                        help="compare a report against the baseline instead "
                             "of (only) benchmarking")
    parser.add_argument("--candidate", metavar="PATH", default=None,
                        help="report to check (default: BENCH_ci.json if "
                             "present, else a fresh --quick run)")
    parser.add_argument("--baseline", metavar="PATH",
                        default="BENCH_baseline.json",
                        help="baseline report (default BENCH_baseline.json)")
    parser.add_argument("--tolerance", type=float, default=25.0,
                        metavar="PCT",
                        help="allowed wall-time regression in percent "
                             "(default 25; bytes-copied tolerance is always 0)")
    args = parser.parse_args(argv)

    if args.check:
        try:
            baseline = load_report(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"bench: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        candidate_path = args.candidate
        if candidate_path is None and Path("BENCH_ci.json").exists():
            candidate_path = "BENCH_ci.json"
        if candidate_path is not None:
            try:
                current = load_report(candidate_path)
            except (OSError, ValueError) as exc:
                print(f"bench: cannot load candidate: {exc}", file=sys.stderr)
                return 2
            print(f"checking {candidate_path} against {args.baseline} "
                  f"(tolerance {args.tolerance:g}%)")
        else:
            print(f"no candidate report; running a fresh "
                  f"{baseline.get('mode', 'quick')} suite to check against "
                  f"{args.baseline}")
            current = run_suite(quick=baseline.get("mode") != "full",
                                tag="check", worker_plane=args.worker_plane)
        failures = check_regression(current, baseline,
                                    tolerance_pct=args.tolerance)
        if failures:
            for f in failures:
                print(f"REGRESSION: {f}", file=sys.stderr)
            return 1
        print("bench check passed")
        return 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_suite(quick=args.quick, tag=args.tag,
                       worker_plane=args.worker_plane,
                       trace_path=args.trace,
                       convergence=args.convergence,
                       convergence_only=args.convergence_only)
    path = write_report(report, out_dir / f"BENCH_{args.tag}.json")
    totals = report["totals"]
    print(f"wrote {path}")
    for name, wl in report["workloads"].items():
        print(f"  {name:12s} {wl['wall_seconds']:8.3f}s "
              f"{wl['tasks_per_second']:8.1f} tasks/s "
              f"copied {wl['bytes_copied']:>12,d} B "
              f"cache {wl['opcache']['hit_rate']:.0%} "
              f"{'bit-identical' if wl['bit_identical'] else 'MISMATCH'}")
    print(f"  {'total':12s} {totals['wall_seconds']:8.3f}s "
          f"{totals['tasks_per_second']:8.1f} tasks/s "
          f"copied {totals['bytes_copied']:>12,d} B")
    for codec, wl in report.get("codec_sweep", {}).items():
        io = wl["io_bytes"]
        print(f"  codec {codec:12s} {wl['wall_seconds']:8.3f}s "
              f"ratio {io['compression_ratio']:6.3f} "
              f"disk read {io['disk_read']:>12,d} B "
              f"effective {io['effective_read_mb_s']:8.1f} MB/s "
              f"{'bit-identical' if wl['bit_identical'] else 'MISMATCH'}")
    conv = report.get("convergence")
    if conv:
        sync, inc, asy = conv["sync"], conv["incremental"], conv["async"]
        print(f"  convergence  sync {sync['iterations']} sweeps "
              f"{sync['tasks']} tasks {sync['disk_bytes_read']:,d} B read")
        print(f"               incremental {inc['iterations']} sweeps "
              f"{inc['tasks']} tasks {inc['disk_bytes_read']:,d} B read "
              f"(first freeze sweep {inc['first_freeze_sweep']})")
        print(f"               async {asy['rounds']} rounds "
              f"residual {asy['residual_norm']:.3e} "
              f"bound {asy['bound']:.3e}")
        for name, ok in sorted(conv["verdicts"].items()):
            print(f"               {'ok  ' if ok else 'FAIL'} {name}")
    sweep = report.get("codec_sweep", {}).values()
    if not all(wl["bit_identical"]
               for wl in (*report["workloads"].values(), *sweep)):
        print("bench: result mismatch against the SciPy reference",
              file=sys.stderr)
        return 1
    if conv and not all(conv["verdicts"].values()):
        print("bench: convergence invariant violated", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

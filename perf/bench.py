"""Drive one workload: set up several times, warm up, repeat for the asked
number of seconds, check every answer, and reduce to named metrics."""

from __future__ import annotations

import gc
import sys
import traceback
from pathlib import Path

from measure import (Spans, at_reference_speed, cpu_seconds, iqr, median, now,
                     open_descriptors, peak_rss_mb, percentile, reset_peak_rss,
                     slowdown, stolen_seconds, supported_percentile)
from tracing import KeepTracer, export, trace_metrics
from workloads import Repeat

#: set-up is repeated at least 3 times, and up to 45 while the samples after
#: the first stay inside 1.5 s in total (the 2 ms set-up of `server_mix` read
#: 1.5 to 1.9 ms from run to run at 15 samples, a 19 % spread over ten runs;
#: 11 % at 45).  The budget is also at most the ``--seconds`` asked, so the
#: self-test (0 s) sets up 3 times.  The first is 3-4x the later ones
#: (first touch of the page cache) and would use up the budget of the
#: workloads that write 100 MB; their later ones meet fsync hiccups of 2x,
#: so three samples are too few for a steady median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 45, 1.5
MEASURED_MIN = 3


def run_repeat(w, label: str, *, traced: bool = False) -> Repeat:
    w.spans.repeat = label
    w.tracer.enabled = traced
    reset_peak_rss()
    descriptors = open_descriptors()
    slow = slowdown()
    cpu0, stolen0 = cpu_seconds(), stolen_seconds()
    try:
        rep = w.repeat()
    except Exception as exc:  # noqa: BLE001 - a failed repeat, counted
        traceback.print_exc(file=sys.stderr)
        rep = Repeat(ok=False, ops=w.ops_per_repeat, failed=w.ops_per_repeat,
                     problems=[f"raised {exc!r}"])
    finally:
        w.tracer.enabled = False
    rep.cpu_s = cpu_seconds() - cpu0
    rep.stolen_s = stolen_seconds() - stolen0
    rep.peak_rss_mb = peak_rss_mb()
    rep.slowdown = (slow + slowdown()) / 2
    gc.collect()  # what the collector can close is not left open
    rep.layers["engine.descriptors_left_open"] = (
        open_descriptors() - descriptors)
    rep.problems = [f"{label}: {p}" for p in rep.problems]
    return rep


def measure_workload(w, *, seed: int, seconds: float, trace: bool,
                     scratch: Path, trace_path: Path | None = None) -> dict:
    """Returns ``{"values", "spread", "attempted", "failed", "problems"}``.

    Untraced: ``seconds`` of measured repeats (at least 3).  Traced: half of
    that untraced (at least 2), then one repeat with the engine's tracer on;
    end-to-end numbers never come from the traced repeat.  ``setup_s`` and
    ``run_s`` are at the reference CPU speed (``measure.at_reference_speed``);
    ``setup_wall_s`` and ``run_wall_s`` are the same samples as the clock
    read them.
    """
    w.spans, w.tracer = Spans(), KeepTracer()
    w.prepare(seed)
    setup_wall, setup_s, setup_layers = [], [], []
    try:
        spent = 0.0
        while (len(setup_s) < (1 if trace else SETUP_MIN)
               or (not trace and len(setup_s) < SETUP_MAX
                   and spent < min(SETUP_BUDGET_S, seconds))):
            w.discard_setup()  # the previous sample's teardown is not set-up
            slow, cpu0, stolen0 = slowdown(), cpu_seconds(), stolen_seconds()
            with w.spans.span("setup") as rec:
                layers = w.setup(scratch / f"setup{len(setup_s)}")
            wall, cpu = rec["end"] - rec["start"], cpu_seconds() - cpu0
            stolen = stolen_seconds() - stolen0
            spent += wall if setup_wall else 0.0
            setup_wall.append(wall)
            setup_s.append(at_reference_speed(
                wall, cpu, (slow + slowdown()) / 2, stolen))
            setup_layers.append(layers)
        once = w.untimed_layers() if trace else {}
        w.release_inputs()
        gc.collect()

        warmup = run_repeat(w, "warmup")
        measured: list[Repeat] = []
        need = 2 if trace else MEASURED_MIN
        deadline = now() + (seconds / 2 if trace else seconds)
        # another repeat only while at least half of it fits the time asked
        while (len(measured) < need
               or now() + measured[-1].run_s / 2 < deadline):
            measured.append(run_repeat(w, f"r{len(measured)}"))
        traced = run_repeat(w, "traced", traced=True) if trace else None
    finally:
        w.discard_setup()

    every = [warmup, *measured] + ([traced] if traced else [])
    good = [r for r in measured if r.ok]
    values: dict[str, float] = dict(once)
    spread: dict[str, tuple[float, int]] = {}

    def reduce(name: str, samples) -> None:
        samples = list(samples)
        values[name] = median(samples)
        spread[name] = (iqr(samples), len(samples))

    reduce("setup_s", setup_s)
    reduce("setup_wall_s", setup_wall)
    reduce("run_s", (at_reference_speed(r.run_s, r.cpu_s, r.slowdown,
                                        r.stolen_s) for r in good))
    reduce("run_wall_s", (r.run_s for r in good))
    reduce("host.slowdown", (r.slowdown for r in good))
    values["host.stolen_s"] = sum(r.stolen_s for r in good)
    reduce("cpu_s", (r.cpu_s for r in good))
    reduce("peak_rss_mb", (r.peak_rss_mb for r in good))
    for name in {n for layers in setup_layers for n in layers}:
        reduce(name, (layers[name] for layers in setup_layers))
    for name in {n for r in good for n in r.layers}:
        reduce(name, (r.layers[name] for r in good))
    pooled = {key: [x for r in good for x in r.samples.get(key, [])]
              for key in ("sweep_ms", "job_ms", "queue_ms", "exec_ms")}
    for key, p50, p90 in (
            ("sweep_ms", "solvers.jacobi.sweep_p50_ms",
             "solvers.jacobi.sweep_p90_ms"),
            ("job_ms", "server.job_p50_ms", "server.job_p90_ms"),
            ("queue_ms", "server.queue_wait_p50_ms", None),
            ("exec_ms", "server.exec_p50_ms", None)):
        if pooled[key]:
            values[p50] = percentile(pooled[key], 50)
            spread[p50] = (iqr(pooled[key]), len(pooled[key]))
            if p90:
                values[p90] = percentile(pooled[key], 90)
                spread[p90] = (0.0, len(pooled[key]))
    values["server.drain_s"] = getattr(w, "drain_s", 0.0)
    if traced is not None:
        values.update(trace_metrics(w.tracer, traced.inner_s))
        if values["run_wall_s"]:
            values["trace.overhead_pct"] = (
                (traced.run_s / values["run_wall_s"] - 1.0) * 100.0)
        if trace_path is not None:
            import json
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(export(w.tracer, w.spans.records)))
    problems = [p for r in every for p in r.problems]
    if not good:
        problems.append("no measured repeat succeeded")
    return {"values": values, "spread": spread,
            "attempted": sum(r.ops for r in every),
            "failed": sum(r.failed for r in every),
            "problems": problems, "repeats": len(measured),
            "samples": {k: len(v) for k, v in pooled.items() if v}}


def format_table(wanted, values: dict, spread: dict) -> str:
    """``name value unit`` lines for the declared metrics ``wanted``, with
    IQR and sample count where known."""
    lines = []
    for name, unit in ((m["name"], m["unit"]) for m in wanted):
        line = f"  {name:36s} {values.get(name, 0.0):14.4f} {unit:8s}"
        if name in spread:
            width, n = spread[name]
            line += f" IQR {width:.4g}  n={n}"
            if name.endswith("_p90_ms"):
                line += (f"  (highest supported percentile: "
                         f"p{supported_percentile(n):.0f})")
        lines.append(line)
    return "\n".join(lines)

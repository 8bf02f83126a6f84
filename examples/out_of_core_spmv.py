#!/usr/bin/env python
"""The paper's use case at laptop scale: out-of-core iterated SpMV.

Generates a gap-uniform random matrix (the paper's testbed generator),
partitions it on a K x K grid across three DOoC nodes (each owning one
grid column, the Fig. 5 setting), and runs several SpMV iterations under
both reduction policies with memory for about one sub-matrix per node.
Prints per-policy matrix-load counts against the Fig. 5 plans and
validates the result against an in-core reference.

    python examples/out_of_core_spmv.py [--n 1500] [--iterations 3]
    python examples/out_of_core_spmv.py --trace run.json   # chrome://tracing
"""

import argparse
import tempfile

import numpy as np

from repro.core import DOoCEngine
from repro.spmv.csrfile import serialize_csr
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
from repro.spmv.partition import GridPartition, column_owner
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import (
    iterated_spmv_reference,
    loads_back_and_forth_plan,
    loads_regular_plan,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1500, help="matrix dimension")
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="export the 'simple'-policy run as a Chrome trace JSON "
             "(open with chrome://tracing or https://ui.perfetto.dev)")
    args = parser.parse_args()

    k = 3
    rng = np.random.default_rng(args.seed)
    partition = GridPartition(args.n, k)
    # Dense enough that the sub-matrix files dwarf the working vectors
    # (the paper's regime: 4 GB sub-matrices vs 80 MB sub-vectors).
    matrix = gap_uniform_csr(
        args.n, args.n, choose_gap_parameter(args.n, args.n / 8.0), rng)
    blocks = partition.split_matrix(matrix)
    x0 = rng.normal(size=args.n)
    want = iterated_spmv_reference(matrix, x0, args.iterations)
    a_bytes = max(len(serialize_csr(b)) for b in blocks.values())
    print(f"matrix: {args.n} x {args.n}, {matrix.nnz} nnz, "
          f"{k}x{k} grid, ~{a_bytes / 1e6:.2f} MB per sub-matrix file")

    for policy in ("simple", "interleaved"):
        result = build_iterated_spmv(
            blocks, partition.split_vector(x0), iterations=args.iterations,
            n_nodes=k, policy=policy, owner=column_owner(k, k))
        with tempfile.TemporaryDirectory() as scratch:
            # Budget: ~1.5 sub-matrices plus room for the working vectors —
            # the Fig. 5 regime where only one sub-matrix fits at a time.
            engine = DOoCEngine(
                n_nodes=k, workers=1,
                memory_budget_per_node=int(1.5 * a_bytes) + 64 * args.n,
                scratch_dir=scratch,
                trace=bool(args.trace),
            )
            report = engine.run(result.program, timeout=600)
            got = result.fetch_final(engine)
        np.testing.assert_allclose(got, want, rtol=1e-9)
        if args.trace and policy == "simple":
            report.save_chrome_trace(args.trace)
            print(f"[{policy:11s}] trace: {len(report.trace_events)} events "
                  f"-> {args.trace}")
        matrix_loads = sum(
            c for m in report.metrics.values()
            for a, c in m.get("loads_by_label", {}).items()
            if a.startswith("A_")
        )
        print(f"[{policy:11s}] verified; matrix loads: {matrix_loads} "
              f"(naive plan: {k * loads_regular_plan(k, args.iterations)}, "
              f"back-and-forth: "
              f"{k * loads_back_and_forth_plan(k, args.iterations)}); "
              f"remote vector fetches: {report.total_remote_fetches}; "
              f"wall {report.wall_seconds:.2f} s")


if __name__ == "__main__":
    main()

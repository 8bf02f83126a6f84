#!/usr/bin/env python
"""Quickstart: run a task DAG out-of-core through DOoC.

Declares two global arrays and a two-stage computation, runs it on a
two-node (threaded) DOoC engine with a deliberately small memory budget,
and prints what the storage layer did: the out-of-core machinery (loads,
spills, scheduling) is fully exercised even by this toy program.

    python examples/quickstart.py
"""

import tempfile

import numpy as np

from repro.core import DOoCEngine, Program


def scale(ins, outs, meta):
    outs["y"][:] = meta["factor"] * ins["x"]


def shift(ins, outs, meta):
    outs["z"][:] = ins["y"] + meta["offset"]


def main() -> None:
    n = 1 << 16  # 64k doubles = 512 KiB per array
    prog = Program("quickstart", default_block_elems=1 << 14)

    x = np.linspace(0.0, 1.0, n)
    prog.initial_array("x", x, home=0)
    prog.array("y", n)
    prog.array("z", n)
    prog.add_task("scale", scale, ["x"], ["y"], factor=3.0)
    prog.add_task("shift", shift, ["y"], ["z"], offset=1.0)

    with tempfile.TemporaryDirectory() as scratch:
        engine = DOoCEngine(
            n_nodes=2,
            workers=2,
            memory_budget_per_node=1 << 20,  # 1 MiB: forces out-of-core
            scratch_dir=scratch,
        )
        report = engine.run(prog)
        z = engine.fetch("z")

    np.testing.assert_allclose(z, 3.0 * x + 1.0)
    print("result verified: z = 3x + 1 on", n, "elements")
    print("task placement:", report.assignment)
    for node, m in report.metrics.items():
        print(
            f"node {node}: loads={m.get('loads', 0)} "
            f"spills={m.get('spills', 0)} drops={m.get('drops', 0)} "
            f"remote_fetches={m.get('remote_fetches', 0)}"
        )
    print(f"wall time: {report.wall_seconds:.3f} s")


if __name__ == "__main__":
    main()

"""Command-line entry point: regenerate paper artefacts, inspect traces.

    python -m repro list
    python -m repro table1
    python -m repro table3 --nodes 1 4 9
    python -m repro all --quick
    python -m repro trace run.trace.jsonl -o run.json
    python -m repro lint src tests
    python -m repro serve --port 8787
    python -m repro submit --kind cg --n 256 --wait
    python -m repro status j0001 --trace
    python -m repro cancel j0001
    python -m repro sweep --dry-run
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS, run_experiment

_NEEDS_NODES = {"table3", "table4", "fig6", "fig7", "colocated", "energy"}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "trace":
        from repro.obs.cli import main as trace_main
        return trace_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main
        return lint_main(argv[1:])
    if argv and argv[0] in ("serve", "submit", "status", "cancel", "sweep"):
        from repro.server import cli as server_cli
        return getattr(server_cli, f"{argv[0]}_main")(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of Zhou et al., ICPP 2012.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), or 'list', or 'all'",
    )
    parser.add_argument(
        "--nodes", type=int, nargs="+", default=None,
        help="node counts for testbed sweeps (default: the paper's 1..36)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--quick", action="store_true",
        help="with 'all': restrict testbed sweeps to 1,4,9 nodes",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0

    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for exp_id in targets:
        if exp_id not in EXPERIMENTS:
            print(f"unknown experiment {exp_id!r}; try 'list'", file=sys.stderr)
            return 2
        kwargs = {}
        if exp_id in _NEEDS_NODES:
            if args.nodes:
                kwargs["node_counts"] = tuple(args.nodes)
            elif args.quick:
                kwargs["node_counts"] = (1, 4, 9)
            kwargs["seed"] = args.seed
        elif exp_id in ("table1", "fig5"):
            kwargs["seed"] = args.seed if exp_id == "table1" else 3
        started = time.monotonic()
        _, text = run_experiment(exp_id, **kwargs)
        elapsed = time.monotonic() - started
        print(text)
        print(f"[{exp_id} regenerated in {elapsed:.1f} s]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

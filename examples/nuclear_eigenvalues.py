#!/usr/bin/env python
"""The motivating application: eigenvalues of a CI-style Hamiltonian.

1. Counts the exact M-scheme basis dimensions of the paper's 10B cases
   (Table I) from first principles.
2. Builds a laptop-scale synthetic symmetric "Hamiltonian", stores it as
   binary-CSR sub-matrix files, and finds its lowest eigenvalues with the
   out-of-core Lanczos solver whose SpMV runs through DOoC.

    python examples/nuclear_eigenvalues.py [--n 600] [--eigenvalues 3]
"""

import argparse
import tempfile

import numpy as np

from repro.ci.cases import TABLE1_CASES
from repro.lanczos import lanczos
from repro.spmv.generator import symmetric_test_matrix
from repro.spmv.ooc_operator import OutOfCoreMatrix
from repro.spmv.partition import GridPartition


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=600)
    parser.add_argument("--eigenvalues", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("Exact M-scheme dimensions of the paper's 10B spaces (Table I):")
    for case in TABLE1_CASES[:2]:  # the larger two take a few seconds more
        d = case.space().dimension()
        print(f"  Nmax={case.nmax}, Mj={case.mj}: D = {d:,} "
              f"(paper: {case.published_dimension:.3g})")

    print(f"\nOut-of-core Lanczos on a synthetic {args.n}-dim Hamiltonian:")
    rng = np.random.default_rng(args.seed)
    hamiltonian = symmetric_test_matrix(args.n, 12.0, rng, diag_shift=40.0)
    partition = GridPartition(args.n, 3)
    blocks = partition.split_matrix(hamiltonian)
    exact = np.linalg.eigvalsh(hamiltonian.to_dense())[: args.eigenvalues]

    with tempfile.TemporaryDirectory() as scratch:
        operator = OutOfCoreMatrix(blocks, n_nodes=3, scratch_dir=scratch)
        result = lanczos(
            operator.matvec, operator.n,
            k=min(args.n, 80), n_eigenvalues=args.eigenvalues,
            rng=np.random.default_rng(1), tol=1e-9)

    print(f"  Lanczos iterations: {result.iterations} "
          f"(each SpMV ran out-of-core on 3 DOoC nodes; "
          f"{operator.matvec_count} distributed SpMVs)")
    for i, (got, want) in enumerate(zip(result.eigenvalues, exact, strict=True)):
        print(f"  E_{i}: {got:+.8f}   (dense reference {want:+.8f}, "
              f"residual bound {result.residuals[i]:.1e})")
    np.testing.assert_allclose(result.eigenvalues, exact, rtol=1e-6)
    print("  lowest eigenvalues verified against the dense solver")


if __name__ == "__main__":
    main()

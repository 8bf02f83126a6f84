"""The generated matrices are pinned bit for bit.

The job server regenerates every problem from its seed on every attempt,
and the paper's sub-matrices come from one seeded generator; a change to
either must not alter a matrix silently.  The digests were recorded with
the row-by-row generator that the vectorised one replaced.
"""

import hashlib

import numpy as np
import pytest

from repro.server.jobs import JOB_KINDS, JobSpec
from repro.server.runner import _build_problem
from repro.spmv.partition import GridPartition

#: sha256 of ``_build_problem`` for n=512, parts=2 and seeds 0, 1, 2
#: (jacobi, cg and lanczos share one operator and right-hand side)
PROBLEM_DIGESTS = {
    "spmv": (
        "06bac888f3995d1cc6c71c58cbd2673da51d67bc0b7bb6fb5c2229dfd9696f54",
        "cff5966abac9638f40d41c14449480b39096d18e347765b277122593ae57f795",
        "3c13b3c740e8b311be3b8bd2188c59a8272af27e0e3ce3fbff82033cdb01356b",
    ),
    **dict.fromkeys(("jacobi", "cg", "lanczos"), (
        "a8d139cc8fe4ad6e4ffe1f09211837ba1f673de3937beb5dc9454bae989ea337",
        "aea8cea4f4198c34651d46f419387e25302ac261a54b736f113c7f4255d71d11",
        "a5edc00e8bcd85474594da96543376ab34f14a7c77c5dc7016c27b2e76c5c595",
    )),
}

#: sha256 of a 3 x 3 grid of n=1000, d=4 generated sub-matrix by sub-matrix
GRID_DIGEST = "1b9e2e4b967e082c7d23eca7ed65b9591fbd574fca30a514f6a427fb4c2d08ef"


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _block_arrays(blocks):
    for key in sorted(blocks):
        b = blocks[key]
        yield np.array([*key, b.nrows, b.ncols])
        yield from (b.indptr, b.indices, b.values)


def test_every_kind_is_named():
    assert set(PROBLEM_DIGESTS) == set(JOB_KINDS)


@pytest.mark.parametrize("kind", JOB_KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_server_problem_digest(kind, seed):
    _, blocks, vec = _build_problem(
        JobSpec(tenant="t", kind=kind, n=512, parts=2, seed=seed))
    assert _digest([*_block_arrays(blocks), vec]) == PROBLEM_DIGESTS[kind][seed]


def test_generated_grid_digest():
    grid = GridPartition(1000, 3).generate_submatrices(
        4.0, lambda u, v: np.random.default_rng([7, u, v]))
    assert _digest(_block_arrays(grid)) == GRID_DIGEST

"""DOoC: an out-of-core dataflow middleware for large-scale iterative solvers.

A comprehensive reproduction of Zhou et al., "An Out-of-Core Dataflow
Middleware to Reduce the Cost of Large Scale Iterative Solvers"
(ICPP 2012).  See DESIGN.md for the system inventory, EXPERIMENTS.md for
paper-vs-measured numbers, and the ``examples/`` directory for runnable
entry points.

Top-level convenience re-exports cover the primary public API; subpackages
carry the full surface:

* :mod:`repro.core` — the DOoC engine (arrays, storage, schedulers);
* :mod:`repro.datacutter` — the filter-stream middleware substrate;
* :mod:`repro.spmv` — blocked sparse matrices and iterated-SpMV programs;
* :mod:`repro.lanczos` — in-core and out-of-core eigensolvers;
* :mod:`repro.ci` — configuration-interaction basis combinatorics;
* :mod:`repro.sim` / :mod:`repro.cluster` / :mod:`repro.testbed` — the
  discrete-event SSD-testbed simulator;
* :mod:`repro.models` — calibrated analytic baselines;
* :mod:`repro.experiments` — one runner per paper table/figure.
"""

from repro.core import DOoCEngine, Program
from repro.datacutter import DataBuffer, Filter, Layout, ThreadedRuntime
from repro.faults import FaultPlan, RetryPolicy
from repro.lanczos import lanczos
from repro.spmv import CSRBlock, GridPartition, build_iterated_spmv
from repro.testbed import run_testbed_spmv

__version__ = "1.0.0"

__all__ = [
    "DOoCEngine",
    "Program",
    "DataBuffer",
    "Filter",
    "Layout",
    "ThreadedRuntime",
    "FaultPlan",
    "RetryPolicy",
    "CSRBlock",
    "GridPartition",
    "build_iterated_spmv",
    "lanczos",
    "run_testbed_spmv",
    "__version__",
]

"""DOoC: distributed data storage and scheduling with out-of-core capabilities.

This package is the paper's primary contribution, layered on the DataCutter
substrate (:mod:`repro.datacutter`):

* :mod:`repro.core.array` / :mod:`repro.core.interval` — immutable global
  one-dimensional arrays structured in blocks, accessed through per-block
  intervals with read or write permission;
* :mod:`repro.core.storage` — the per-node storage layer: write-once
  semantics, reference counting, LRU memory reclamation, asynchronous
  loads/spills, prefetching (a pure effect-emitting state machine;
  :mod:`repro.core.storage_filter` is the filter that drives it);
* :mod:`repro.core.directory` — the partitioned global map with
  random-peer query resolution;
* :mod:`repro.core.task` / :mod:`repro.core.dag` — tasks declaring whole
  arrays as inputs/outputs, from which the dependency DAG is derived;
* :mod:`repro.core.global_scheduler` — affinity-based task placement;
* :mod:`repro.core.local_scheduler` — per-node splitting, data-aware
  reordering (which discovers the "back-and-forth" plan of Fig. 5b), and
  prefetch management, each beside the filter that carries it out;
* :mod:`repro.core.worker` — the computing filter running task bodies;
* :mod:`repro.core.engine` — the threaded out-of-core execution engine
  wiring these filters to real files and real NumPy kernels.
"""

from repro.core.array import ArrayDesc
from repro.core.errors import (
    DoocError,
    ImmutabilityError,
    IOFailedError,
    StallError,
    StorageError,
    TaskFailedError,
    UnknownArrayError,
)
from repro.core.interval import Interval
from repro.core.task import TaskSpec
from repro.core.dag import TaskDAG
from repro.core.engine import DOoCEngine, Program

__all__ = [
    "ArrayDesc",
    "Interval",
    "TaskSpec",
    "TaskDAG",
    "DOoCEngine",
    "Program",
    "DoocError",
    "StorageError",
    "StallError",
    "ImmutabilityError",
    "IOFailedError",
    "TaskFailedError",
    "UnknownArrayError",
]

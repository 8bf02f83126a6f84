"""Deterministic discrete-event simulation kernel.

A minimal, dependency-free core in the style of SimPy: generator-based
processes communicate through :class:`Event` objects, and an
:class:`Environment` advances virtual time over a binary heap of scheduled
events.  Determinism is guaranteed by breaking ties on (time, priority,
sequence number).

On top of the kernel, :mod:`repro.sim.primitives` provides capacity-limited
resources and a reusable barrier, and :mod:`repro.sim.flow` provides a max-min
fair fluid-flow bandwidth network used to model the SSD testbed's GPFS and
InfiniBand fabric.
"""

from repro.sim.kernel import (
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.primitives import Barrier, Resource
from repro.sim.flow import FlowNetwork, Link

__all__ = [
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "Resource",
    "Barrier",
    "FlowNetwork",
    "Link",
]

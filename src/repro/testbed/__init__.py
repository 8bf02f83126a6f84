"""Discrete-event simulation of the SSD-testbed experiments.

Runs the out-of-core iterated SpMV of Section V on the simulated Carver
SSD testbed (:mod:`repro.cluster`) under the two scheduling policies, and
produces the rows of Tables III and IV, the relative-runtime series of
Fig. 6, and the CPU-hour points of Fig. 7 (including the oversubscribed
9-node "star" run).
"""

from repro.testbed.app import (
    TestbedParams,
    TestbedRow,
    TruncatedTraceError,
    run_testbed_spmv,
)
from repro.testbed.gantt import simulated_gantt

__all__ = ["TestbedParams", "TestbedRow", "TruncatedTraceError",
           "run_testbed_spmv", "simulated_gantt"]

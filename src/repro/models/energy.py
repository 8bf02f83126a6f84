"""Energy-efficiency analysis (Section VI-B, implemented as an extension).

The paper argues that SSD-equipped clusters could cut energy as well as
CPU-hours: fewer powered nodes, non-volatile storage needing no refresh —
but notes that the testbed's separated I/O nodes "must be powered up" at
all times and that shipping every byte across InfiniBand is costly.  It
proposes the comparison as future work; this module carries it out with a
transparent wall-power model.

Power numbers are catalog-level estimates for the 2011-era hardware and
are deliberately round; the *comparison* (which architecture burns less
energy per iteration) is robust to tens of watts either way:

* Carver compute node — 2x Xeon X5550 (95 W TDP each) + 24 GB DDR3 +
  board/NIC: ~280 W under load;
* Virident tachIOn card: ~25 W active;
* Carver I/O node: compute-node base + 2 cards: ~330 W;
* Hopper XE6 node — 2x 12-core Magny-Cours + 32 GB + Gemini: ~350 W.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ci.cases import Table1Case
from repro.models.mfdn_hopper import MFDnHopperModel
from repro.testbed.app import TestbedRow


@dataclass(frozen=True)
class PowerModel:
    """Wall power per node type, in watts."""

    compute_node_w: float = 280.0
    ssd_card_w: float = 25.0
    io_node_w: float = 330.0   # compute base + 2 cards
    io_nodes: int = 10
    hopper_node_w: float = 350.0
    hopper_cores_per_node: int = 24

    def __post_init__(self) -> None:
        if min(self.compute_node_w, self.ssd_card_w, self.io_node_w,
               self.hopper_node_w) <= 0:
            raise ValueError("power figures must be positive")


@dataclass(frozen=True)
class EnergyPerIteration:
    """kWh burned by one SpMV/Lanczos iteration."""

    label: str
    kwh: float
    powered_watts: float
    seconds: float


def testbed_energy(row: TestbedRow, *, power: PowerModel = PowerModel(),
                   colocated: bool = False) -> EnergyPerIteration:
    """Energy of one iteration of a testbed run.

    The separated design keeps all ten I/O nodes powered regardless of how
    few compute nodes participate; the colocated design (Section VI-A)
    powers only the compute nodes, each carrying its two cards.
    """
    t_iter = row.time_s / row.iterations
    if colocated:
        watts = row.nodes * (power.compute_node_w + 2 * power.ssd_card_w)
        label = f"{row.nodes}-node colocated SSD"
    else:
        watts = row.nodes * power.compute_node_w + power.io_nodes * power.io_node_w
        label = f"{row.nodes}-node testbed (+{power.io_nodes} I/O nodes)"
    return EnergyPerIteration(
        label=label,
        kwh=watts * t_iter / 3.6e6,
        powered_watts=watts,
        seconds=t_iter,
    )


def hopper_energy(case: Table1Case, *, power: PowerModel = PowerModel(),
                  model: MFDnHopperModel | None = None) -> EnergyPerIteration:
    """Energy of one modelled MFDn iteration on Hopper."""
    model = model or MFDnHopperModel()
    it = model.iteration(
        case.published_dimension, case.published_nnz,
        case.published_processors, case.diag_processors,
    )
    nodes = -(-case.published_processors // power.hopper_cores_per_node)
    watts = nodes * power.hopper_node_w
    return EnergyPerIteration(
        label=f"Hopper {case.name} ({nodes} nodes)",
        kwh=watts * it.total_seconds / 3.6e6,
        powered_watts=watts,
        seconds=it.total_seconds,
    )

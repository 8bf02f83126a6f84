"""Permanent-failure recovery: membership, lineage, checkpoint/restart.

PR 2's fault machinery handles *transient* trouble (an I/O retry, a lost
message, a crashed task attempt).  This package handles the failure mode
the paper's target machines actually exhibit over multi-hour runs: a node
that goes away and never comes back.

* :mod:`repro.recovery.membership` — a heartbeat-driven failure detector
  (alive → suspect → dead) the global scheduler polls;
* :mod:`repro.recovery.lineage` — durable block lineage and the planner
  computing the minimal transitive set of producer tasks to re-execute,
  exploiting write-once immutability (a lost block is deterministically
  recomputable, and survivors' cached copies stay byte-valid);
* :mod:`repro.recovery.checkpoint` — iteration-boundary solver-state
  checkpoints: checksummed block payloads under an atomic
  temp-file → fsync → rename manifest, with latest-good fallback.
"""

from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointCadence,
    CheckpointManager,
    restore_rng,
    rng_state,
)
from repro.recovery.lineage import (
    LineageLog,
    ReconstructionPlan,
    plan_reconstruction,
)
from repro.recovery.membership import (
    ALIVE,
    DEAD,
    SUSPECT,
    MembershipConfig,
    MembershipTracker,
)

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "MembershipConfig",
    "MembershipTracker",
    "LineageLog",
    "ReconstructionPlan",
    "plan_reconstruction",
    "Checkpoint",
    "CheckpointManager",
    "CheckpointCadence",
    "rng_state",
    "restore_rng",
]

"""Resilience layer: supervised execution, interval checkpoints, and
deterministic fault injection (see docs/resilience.md).

The layer leans on two guarantees the engine already provides — interval
barriers are consistent global states, and execution backends never
change simulated results — to turn host-side failures (killed or
stopped worker processes, corrupted event queues) into recoverable
events: the supervisor replays the faulted interval serially from an
in-memory snapshot, and the checkpointer persists barrier snapshots so
a killed run resumes to an identical stats tree.
"""

from repro.resilience.backoff import DEFAULT_CAP, DecorrelatedJitter
from repro.resilience.checkpoint import (Checkpointer, capture_state,
                                         checkpoints, discard, latest,
                                         read_checkpoint,
                                         read_latest_checkpoint, restore,
                                         snapshot, write_checkpoint,
                                         FORMAT_VERSION)
from repro.resilience.faults import (CorruptEvent, Fault, FaultPlan,
                                     ProcessSignalFault, SigKillWorker,
                                     SigStopWorker)
from repro.resilience.integrity import (IntegritySentinel,
                                        audit_invariants,
                                        fingerprint_components,
                                        verify_state)
from repro.resilience.supervisor import Supervisor

__all__ = [
    "Checkpointer", "CorruptEvent", "DEFAULT_CAP", "DecorrelatedJitter",
    "Fault", "FaultPlan", "FORMAT_VERSION", "IntegritySentinel",
    "ProcessSignalFault", "SigKillWorker", "SigStopWorker", "Supervisor",
    "audit_invariants", "capture_state", "checkpoints", "discard",
    "fingerprint_components", "latest", "read_checkpoint",
    "read_latest_checkpoint", "restore", "snapshot", "verify_state",
    "write_checkpoint",
]

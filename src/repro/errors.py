"""Typed error hierarchy for the simulator.

Every failure the engine can diagnose raises a subclass of
:class:`SimulationError` carrying structured context (the offending
core/domain/worker, the interval, blocked-thread reports) instead of a
bare ``RuntimeError`` whose only payload is its message.  The split that
matters operationally:

* :class:`ExecutionFault` — something went wrong *executing* an interval
  (the process pool failed, the weave horizon invariant tripped, or the
  integrity sentinel caught silent corruption).  Interval barriers are
  consistent global states, so these are **recoverable**: the
  resilience supervisor re-runs the interval on the serial backend
  from the interval-boundary snapshot (see :mod:`repro.resilience`).
* Everything else — deadlocked simulated threads, bad configs, corrupt
  checkpoints, an exhausted wall-clock budget — is a property of the
  simulation itself and is never retried.
"""

from __future__ import annotations


class SimulationError(RuntimeError):
    """Base class for all typed simulator errors."""


class ConfigError(SimulationError, ValueError):
    """Invalid configuration (also a ValueError for backward
    compatibility with callers catching the old untyped raises)."""


class DeadlockError(SimulationError):
    """No runnable threads, no sleepers, no attached cores: the
    simulated program can never make progress again.

    Attributes:
        blocked: list of per-thread dicts (name, state, last core,
            wake_cycle, blocked/syscall counts) from
            ``Scheduler.blocked_report()``.
        next_wake: earliest sleeper wake cycle (always None here — a
            pending sleeper would not be a deadlock).
        interval: 1-based interval number at detection time.
    """

    def __init__(self, message, blocked=(), next_wake=None, interval=None):
        super().__init__(message)
        self.blocked = list(blocked)
        self.next_wake = next_wake
        self.interval = interval


class ExecutionFault(SimulationError):
    """Base class for faults in *how* an interval executed (not in the
    simulated program).  Recoverable by interval replay."""

    def __init__(self, message, phase=None, interval=None, worker=None,
                 core=None, domain=None):
        super().__init__(message)
        self.phase = phase          # "bound" | "weave" | "audit" | ...
        self.interval = interval    # 1-based interval number
        self.worker = worker        # pool worker index (if known)
        self.core = core            # offending core id (bound jobs)
        self.domain = domain        # offending weave domain id


class HorizonViolation(ExecutionFault):
    """A weave domain popped an event below its per-interval cycle
    floor: event timestamps are corrupt or an executor broke the
    horizon discipline (pops per domain are nondecreasing within an
    interval in every legal execution)."""

    def __init__(self, message, cycle=None, floor=None, **ctx):
        super().__init__(message, **ctx)
        self.cycle = cycle
        self.floor = floor


class IntegrityError(ExecutionFault):
    """The state-integrity sentinel caught silent corruption: an online
    invariant audit failed (MESI single-writer, inclusion, weave queue
    discipline, scheduler bookkeeping, slab hygiene) or an interval
    fingerprint diverged from its recorded chain value.  Recoverable —
    but unlike other execution faults the damage may predate detection,
    so the supervisor rewinds to the last *fingerprint-verified*
    snapshot (not just the current interval) and replays the whole span
    serially (see repro.resilience.integrity).

    Attributes:
        component: dotted path of the guilty subsystem
            (e.g. ``mem.l1d-3`` or ``weave.domain1``).
        excerpt: short state excerpt pinpointing the violation.
        fingerprint: observed digest (fingerprint divergences only).
        expected: recorded digest the observation was checked against.
    """

    def __init__(self, message, component=None, excerpt=None,
                 fingerprint=None, expected=None, **ctx):
        super().__init__(message, **ctx)
        self.component = component
        self.excerpt = excerpt
        self.fingerprint = fingerprint
        self.expected = expected


class ProcessPoolError(ExecutionFault):
    """The process backend's worker pool failed systemically: fork
    itself errored, the whole pool died repeatedly, or a speculation
    replay diverged from its validated prefix.  Individual worker
    deaths never raise this — they degrade to inline execution — so
    when it does surface, the supervisor's degradation ladder demotes
    the run to the serial backend."""


class WallClockExceeded(SimulationError):
    """The run outlived ``--max-wall-seconds``.  When checkpointing is
    on, ``checkpoint_path`` names the snapshot written on the way out
    so the run can be resumed."""

    def __init__(self, message, budget_s=None, elapsed_s=None,
                 intervals=None, checkpoint_path=None):
        super().__init__(message)
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s
        self.intervals = intervals
        self.checkpoint_path = checkpoint_path


class RunInterrupted(WallClockExceeded):
    """The run was stopped by an external request (SIGTERM/SIGINT to
    ``repro run``).  A subclass of :class:`WallClockExceeded` on
    purpose: an interrupted run takes exactly the budget-exhausted exit
    path — final checkpoint when checkpointing is on, exit code 75,
    resumable — instead of dying with a traceback."""

    def __init__(self, message, reason=None, **kwargs):
        super().__init__(message, **kwargs)
        self.reason = reason


class FleetError(SimulationError):
    """A campaign-level failure in the fleet orchestrator: an invalid
    sweep spec, an unreadable journal, or a campaign directory in a
    state that cannot be resumed.  Per-job failures never raise this —
    they are retried and, past the quarantine threshold, parked as
    :class:`JobQuarantined`."""


class JobQuarantined(FleetError):
    """A sweep job failed ``quarantine_after`` consecutive attempts and
    was parked by the circuit breaker.  Raised internally by the
    orchestrator's failure bookkeeping (and caught there: one rotten
    spec must not burn the fleet's retry budget); carries the evidence
    a post-mortem needs."""

    def __init__(self, message, job=None, attempts=None, exit_code=None,
                 capsules=()):
        super().__init__(message)
        self.job = job                  # job id
        self.attempts = attempts        # attempts consumed
        self.exit_code = exit_code      # last exit code observed
        self.capsules = list(capsules)  # post-mortem capsule paths


class CheckpointError(SimulationError):
    """A checkpoint could not be written, read, or applied."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint's format version does not match this build."""

    def __init__(self, message, found=None, expected=None):
        super().__init__(message)
        self.found = found
        self.expected = expected

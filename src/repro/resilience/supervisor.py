"""The resilience supervisor: supervised interval execution.

Wraps the simulator's interval loop with a recovery policy built on two
engine guarantees:

1. **Interval barriers are consistent global states** — so an interval
   that faulted mid-flight can be rewound (in-memory snapshot, see
   :mod:`repro.resilience.checkpoint`) and replayed.
2. **Backends never change simulated results, only wall time** — so the
   replay can run on the serial reference backend and the final stats
   tree is identical to what the faulted backend would have produced.

Per supervised interval: snapshot, execute on the configured backend,
and on any :class:`~repro.errors.ExecutionFault` (horizon violation,
process-pool failure, integrity violation) quiesce the backend
(``recover()``), restore the snapshot, and re-run the interval serially.

After a recovery the next few intervals run serially too, with
*decorrelated jitter* on the stretch length (AWS-style: each backoff is
drawn between the base and three times the previous draw, capped at
eight times the base) so that a periodic external disturbance cannot
phase-lock with the retry schedule.  The jitter RNG is seeded from the
engine seed: the schedule is random-looking but reproducible.

``max_retries`` *consecutive* faulted intervals demote the run down the
one-rung **degradation ladder**, ``process -> serial``: the supervisor
adopts its serial backend (handing it the fault plan) for the rest of
the run.  Serial is the permanent fallback — it is the reference
semantics and cannot execution-fault.

**Span mode** (integrity sentinel aboard with auditing on): corruption
caught by an audit may predate detection by up to the audit stride, so
per-interval snapshots are not enough.  The supervisor instead keeps
one snapshot at the last *fingerprint-verified* barrier (the previous
audited barrier, or the end of a serial replay) and records the limit
cycle of every interval since.  On any fault — typed or
:class:`~repro.errors.IntegrityError` — it rewinds to the verified
snapshot and replays the whole span serially.  An integrity fault
demotes the backend immediately (a rung that corrupts state silently
has forfeited its trust), and a *second* divergence at the same
(interval, component) raises out of the supervisor so the process exits
non-zero and the fleet's circuit breaker quarantines the job.

Faults that are not execution faults — deadlocks, wall-clock budget,
simulated-program errors — are properties of the simulation itself and
propagate untouched.
"""

from __future__ import annotations

import time

from repro.errors import ExecutionFault, IntegrityError
from repro.obs.log import get_logger
from repro.resilience.backoff import DecorrelatedJitter
from repro.resilience.checkpoint import discard, restore, snapshot

_log = get_logger("resilience.supervisor")

def _stamp_interval(fault, sim):
    """Faults raised below the engine's interval bookkeeping (a weave
    domain's horizon check) carry no interval; it is the one that was
    executing."""
    if fault.interval is None:
        fault.interval = sim.bound.intervals


class Supervisor:
    """Supervised execution of the simulator's interval loop."""

    def __init__(self, sim, max_retries=3, backoff_intervals=2,
                 seed=None):
        from repro.exec.serial import SerialBackend
        self.sim = sim
        self.max_retries = max(1, int(max_retries))
        #: Base (minimum) serial stretch after a recovery; the actual
        #: stretch is jittered (see ``_next_backoff``).  0 disables.
        self.backoff_intervals = max(0, int(backoff_intervals))
        if seed is None:
            seed = getattr(sim.config.boundweave, "seed", 0)
        self._jitter = DecorrelatedJitter(self.backoff_intervals,
                                          seed=seed)
        self._serial = SerialBackend()
        self._serial.start(sim)
        self._consecutive = 0
        self._backoff_left = 0
        # Span mode (integrity sentinel with auditing on): the snapshot
        # at the last fingerprint-verified barrier, the limit cycle of
        # every interval executed since, and the strike counts per
        # (interval, component) — two strikes escalate to the fleet.
        self._verified = None
        self._span_limits = []
        self._strikes = {}
        self.integrity_rollbacks = 0
        self.recoveries = 0
        self.fallback_permanent = False
        self.last_backoff_intervals = 0
        self.total_backoff_intervals = 0
        #: Ladder demotions, in order: dicts with interval/from/to.
        self.demotions = []
        #: Handled-fault history: dicts with interval/kind/message/
        #: context/attempt/backoff, in order of occurrence.
        self.history = []
        sim.supervisor = self

    # ------------------------------------------------------------------

    def run_interval(self, limit):
        """Execute one interval under supervision; returns the same
        telemetry tuple as ``ZSim._execute_interval``."""
        sim = self.sim
        sentinel = getattr(sim, "integrity", None)
        if sentinel is not None and sentinel.audit_every:
            return self._run_span(limit)
        if self.fallback_permanent:
            return sim._execute_interval(limit, backend=self._serial)
        if self._backoff_left > 0:
            # Degraded stretch after a recovery: serial execution is
            # the reference semantics, so no snapshot is needed.
            self._backoff_left -= 1
            return sim._execute_interval(limit, backend=self._serial)
        payload = snapshot(sim)
        try:
            outcome = sim._execute_interval(limit)
        except ExecutionFault as fault:
            return self._recover(fault, payload, limit)
        self._consecutive = 0
        self._jitter.reset()
        discard(sim)
        return outcome

    # ------------------------------------------------------------------
    # Span mode: rollback-to-verified (integrity sentinel aboard)
    # ------------------------------------------------------------------

    def _run_span(self, limit):
        """One interval in span mode.  A snapshot is taken only at
        audited (fingerprint-verified) barriers; the stream replay logs
        stay armed across the span, so a fault anywhere inside it can
        rewind all the way back.  Serial is *not* exempt here: silent
        corruption is detectable (and injectable) on every backend."""
        sim = self.sim
        if self._verified is None:
            self._verified = snapshot(sim)
            self._span_limits = []
        backend = None
        if self.fallback_permanent:
            backend = self._serial
        elif self._backoff_left > 0:
            self._backoff_left -= 1
            backend = self._serial
        try:
            outcome = sim._execute_interval(limit, backend=backend)
        except ExecutionFault as fault:
            return self._recover_span(fault, limit)
        self._span_limits.append(limit)
        self._consecutive = 0
        self._jitter.reset()
        sentinel = sim.integrity
        if sentinel is not None \
                and sim.bound.intervals % sentinel.audit_every == 0:
            # This barrier passed its audit: it is the new verified
            # floor.  Drop the old span's logs and re-arm.
            self._commit_span()
        return outcome

    def _commit_span(self):
        """Advance the verified floor to the current barrier."""
        sim = self.sim
        discard(sim)
        self._verified = snapshot(sim)
        self._span_limits = []

    def _recover_span(self, fault, limit):
        """Rewind to the last fingerprint-verified barrier and replay
        the whole span serially.  See the module docs for the
        demote-immediately and two-strike escalation rules."""
        sim = self.sim
        _stamp_interval(fault, sim)
        integrity = isinstance(fault, IntegrityError)
        self._consecutive += 1
        self.recoveries += 1
        span = len(self._span_limits) + 1
        entry = {
            "interval": fault.interval,
            "kind": type(fault).__name__,
            "message": str(fault),
            "phase": fault.phase,
            "worker": fault.worker,
            "core": fault.core,
            "domain": fault.domain,
            "attempt": self.recoveries,
            "consecutive": self._consecutive,
            "rollback_intervals": span,
        }
        if integrity:
            entry["component"] = fault.component
            self.integrity_rollbacks += 1
        self.history.append(entry)
        _log.warning("%s in interval %s: %s — rewinding %d interval(s) "
                     "to the last verified barrier and replaying "
                     "serially", entry["kind"], entry["interval"], fault,
                     span)
        self._note_telemetry(entry)
        flight = getattr(sim, "flight", None)
        if flight is not None:
            flight.record("recovery", fault=entry["kind"],
                          interval=entry["interval"],
                          phase=entry["phase"], worker=entry["worker"],
                          component=entry.get("component"),
                          rollback_intervals=span,
                          consecutive=self._consecutive)
            flight.capture(
                sim, kind=entry["kind"], message=entry["message"],
                recovery="rewound %d interval(s) to the last "
                         "fingerprint-verified barrier and replayed "
                         "on the serial backend" % span,
                worker=entry["worker"], interval=entry["interval"],
                phase=entry["phase"])
        if integrity:
            key = (fault.interval, fault.component)
            strikes = self._strikes.get(key, 0) + 1
            self._strikes[key] = strikes
            if strikes >= 2:
                # The same fingerprint diverged twice: the damage
                # reproduces across rungs, so recovery cannot be
                # trusted.  Raising out of the supervisor fails the
                # attempt; the fleet's breaker quarantines the job.
                _log.error("integrity fault at interval %s (%s) "
                           "diverged twice; escalating for quarantine",
                           fault.interval, fault.component)
                raise fault
        recover_start = time.perf_counter()
        sim.backend.recover()
        restore(sim, self._verified)
        if integrity:
            # A backend that corrupted state silently has forfeited its
            # trust: demote immediately, not after max_retries.
            self._demote(entry["interval"])
        elif self._consecutive >= self.max_retries:
            self._demote(entry["interval"])
        backoff = 0
        if not self.fallback_permanent:
            backoff = self._next_backoff()
            self._backoff_left = backoff
        entry["backoff_intervals"] = backoff
        self.last_backoff_intervals = backoff
        self.total_backoff_intervals += backoff
        replay = self._span_limits + [limit]
        self._span_limits = []
        outcome = None
        for replay_limit in replay:
            # A violation that reproduces on the serial reference is a
            # genuine engine bug (or tampering), not host corruption:
            # it propagates and fails the run loudly.
            outcome = sim._execute_interval(replay_limit,
                                            backend=self._serial)
        self._commit_span()
        _log.info("span of %d interval(s) replayed serially in %.3f s",
                  span, time.perf_counter() - recover_start)
        return outcome

    # ------------------------------------------------------------------

    def _next_backoff(self):
        """Decorrelated-jitter backoff draw (in intervals): uniform in
        ``[base, min(3 * previous, cap * base)]``.  Consecutive faults
        stretch the window geometrically; a success (or a demotion)
        resets it.  (The draw sequence lives in
        :class:`repro.resilience.backoff.DecorrelatedJitter`, shared
        with the fleet orchestrator's retry pacing.)"""
        return self._jitter.next()

    def _recover(self, fault, payload, limit):
        sim = self.sim
        _stamp_interval(fault, sim)
        self._consecutive += 1
        self.recoveries += 1
        entry = {
            "interval": fault.interval,
            "kind": type(fault).__name__,
            "message": str(fault),
            "phase": fault.phase,
            "worker": fault.worker,
            "core": fault.core,
            "domain": fault.domain,
            "attempt": self.recoveries,
            "consecutive": self._consecutive,
        }
        self.history.append(entry)
        _log.warning("execution fault (%s) in interval %s: %s — "
                     "rewinding to the interval barrier and replaying "
                     "serially", entry["kind"], entry["interval"], fault)
        self._note_telemetry(entry)
        flight = getattr(sim, "flight", None)
        if flight is not None:
            flight.record("recovery", fault=entry["kind"],
                          interval=entry["interval"],
                          phase=entry["phase"], worker=entry["worker"],
                          consecutive=self._consecutive)
            # The recovery capsule is the post-mortem for the fault the
            # run *survived*: captured before the rewind, so the ring
            # still holds the backend's events leading up to it.
            flight.capture(
                sim, kind=entry["kind"], message=entry["message"],
                recovery="interval rewound to the barrier and replayed "
                         "on the serial backend",
                worker=entry["worker"], interval=entry["interval"],
                phase=entry["phase"])
        # Order matters: quiesce the pool BEFORE restoring, so no
        # straggler worker races the rewound state.
        recover_start = time.perf_counter()
        sim.backend.recover()
        restore(sim, payload)
        if self._consecutive >= self.max_retries:
            self._demote(entry["interval"])
        backoff = 0
        if not self.fallback_permanent:
            backoff = self._next_backoff()
            self._backoff_left = backoff
        entry["backoff_intervals"] = backoff
        self.last_backoff_intervals = backoff
        self.total_backoff_intervals += backoff
        outcome = sim._execute_interval(limit, backend=self._serial)
        _log.info("interval %s replayed serially in %.3f s",
                  entry["interval"],
                  time.perf_counter() - recover_start)
        return outcome

    def _demote(self, interval):
        """Fall back to the serial backend for the rest of the run (see
        module docs)."""
        if self.fallback_permanent:
            return
        self.fallback_permanent = True
        sim = self.sim
        old = sim.backend
        if old is self._serial or old.name == "serial":
            # Already at the floor (faults can still reach us here via
            # the scribble seam); just stop snapshotting.
            return
        self.demotions.append({"interval": interval,
                               "from": old.name, "to": "serial"})
        flight = getattr(sim, "flight", None)
        if flight is not None:
            flight.record("demotion", interval=interval,
                          from_backend=old.name, to_backend="serial",
                          consecutive=self._consecutive)
        _log.warning("%d consecutive faulted intervals on the %s "
                     "backend: degrading to serial",
                     self._consecutive, old.name)
        self._serial.fault_plan = old.fault_plan
        old.shutdown()
        sim.backend = self._serial
        sim.host_model.backend_name = "serial"
        self._consecutive = 0
        self._jitter.reset()

    def _note_telemetry(self, entry):
        telem = self.sim._telem
        if telem is None:
            return
        if telem.metrics is not None:
            telem.metrics.inc("resilience.faults")
            telem.metrics.inc("resilience.faults.%s" % entry["kind"])
        if telem.tracer is not None:
            from repro.obs.tracer import TID_MAIN
            telem.tracer.instant("execution fault", "resilience",
                                 TID_MAIN, dict(entry))

    # ------------------------------------------------------------------

    def summary(self):
        """Counters for the stats tree (``host/resilience``)."""
        return {
            "recoveries": self.recoveries,
            "integrity_rollbacks": self.integrity_rollbacks,
            "fallback_permanent": int(self.fallback_permanent),
            "consecutive": self._consecutive,
            "last_backoff_intervals": self.last_backoff_intervals,
            "total_backoff_intervals": self.total_backoff_intervals,
            "demotions": len(self.demotions),
            "demotion_path": "->".join(
                [d["from"] for d in self.demotions]
                + [self.demotions[-1]["to"]]) if self.demotions else "",
        }

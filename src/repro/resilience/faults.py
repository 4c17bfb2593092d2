"""Deterministic fault injection for the execution backends.

A :class:`FaultPlan` is a seeded, fully deterministic schedule of host
faults — *worker process N is SIGKILLed at interval K*, *an event
timestamp is corrupted so the horizon invariant fires*, *a cache line
silently vanishes*.  The simulator and backends consult the plan at
three seams:

* **Weave-queue corruption** (``plan.corrupt``, the ``weave-queue``
  seam): on the process backend, between the weave engine's seeding
  and its drain, matching :class:`CorruptEvent` faults rewrite one
  queued timestamp in the engine heap — the heap surfaces it out of
  order and :class:`~repro.errors.HorizonViolation` fires on pop.
* **State scribbling** (``plan.scribble``): between the bound and weave
  phases of every interval, on every backend, core-selector corrupt
  faults damage architectural state that only the integrity sentinel
  can see.
* **Process signals** (``plan.process_faults``): the process backend
  delivers SIGKILL/SIGSTOP to a live OS worker right after forking its
  pool.

:meth:`FaultPlan.install` refuses a plan holding a fault that the
target backend has no seam for, so an injected fault can never be a
silent no-op.

Faults simulate *host* failures, never simulated-program behavior, so a
supervised run that recovers from every injected fault must produce a
stats tree identical to a fault-free run — that is the property
``tests/test_resilience.py`` asserts and the CI smoke job guards.

The plan grammar (CLI ``--inject-faults``) is ``;``-separated entries::

    kind@interval[:selector]

    corrupt@4:d1       corrupt a queued timestamp in weave domain 1
    corrupt@4          ... in a (seeded-)random weave domain
    corrupt@4:c2       silently drop a parent's copy of a line core 2's
                       L1D holds (only ``--audit-every`` can see it)
    sigkill@3:w0       SIGKILL worker process 0 at interval 3
    sigstop@4          SIGSTOP a (seeded-)random worker at interval 4

Selectors: ``w<N>`` worker index, ``c<N>`` core id, ``d<N>`` domain id.
Intervals are 1-based, matching the engine's interval counters.
"""

from __future__ import annotations

import heapq
import random
import signal

from repro.errors import ConfigError

#: Selector prefix -> Fault attribute.
_SELECTORS = {"w": "worker", "c": "core", "d": "domain"}


class Fault:
    """One scheduled fault.  Subclasses define ``kind`` and the
    ``seam`` (see module docs) that applies them."""

    kind = "fault"
    seam = None

    def __init__(self, interval, worker=None, core=None, domain=None):
        self.interval = interval
        self.worker = worker
        self.core = core
        self.domain = domain
        self.fired = False

    def describe(self):
        sel = [s for s in ("w%s" % self.worker if self.worker is not None
                           else None,
                           "c%s" % self.core if self.core is not None
                           else None,
                           "d%s" % self.domain if self.domain is not None
                           else None) if s]
        return "%s@%d%s" % (self.kind, self.interval,
                            ":".join([""] + sel) if sel else "")

    def __repr__(self):
        return "%s(%s%s)" % (type(self).__name__, self.describe(),
                             ", fired" if self.fired else "")


class CorruptEvent(Fault):
    """State corruption, in two flavors selected by the selector:

    * ``corrupt@I[:dN]`` (domain selector or none) rewrites one of
      domain N's queued weave timestamps to a wildly early cycle and
      re-files the entry as the engine heap's last leaf; the first pop
      promotes it to the root, the second pop surfaces it below the
      interval floor and :class:`~repro.errors.HorizonViolation` fires
      with ``domain=N`` — a *loud* fault.
    * ``corrupt@I:cN`` (core selector) silently invalidates a line the
      core's L1D still holds from the parent cache's array, leaving the
      coherence directory untouched — an inclusion violation with **no
      typed symptom at all**.  Only the integrity sentinel's auditor
      (``--audit-every``) detects it; an unaudited run carries the
      damage into every downstream interval and checkpoint (see
      repro.resilience.integrity).
    """

    kind = "corrupt"
    DELTA = 1 << 40

    @property
    def seam(self):
        return "scribble" if self.core is not None else "weave-queue"

    def apply(self, weave, rng):
        domains = [d.domain_id for d in weave.domains]
        if self.domain is not None:
            domains = [d for d in domains if d == self.domain]
        else:
            rng.shuffle(domains)
        heap = weave.heap
        for domain in domains:
            # Need >= 2 entries: the corrupted one must not be the very
            # first pop (no floor yet, nothing to violate).
            mine = [i for i, entry in enumerate(heap) if entry[1] == domain]
            if len(mine) >= 2:
                cycle, dom, seq, item = heap.pop(mine[-1])
                heapq.heapify(heap)
                heap.append((cycle - self.DELTA, dom, seq, item))
                self.fired = True
                return True
        return False

    def apply_state(self, sim, rng):
        """Silent flavor (``c<N>`` selector): drop the parent cache's
        copy of a line the victim core's L1D still holds.  The
        directory is deliberately left stale — the corruption must be
        symptomless until an audit walks the hierarchy.  Deterministic:
        residency iteration order is insertion order, identical across
        same-seeded runs."""
        core = self.core or 0
        l1d = sim.hierarchy.l1d[min(core, len(sim.hierarchy.l1d) - 1)]
        for line, _state in l1d.array.resident_lines():
            parent, _net = l1d.parent_select(line)
            array = getattr(parent, "array", None)
            if array is None:
                continue  # parent is main memory: nothing to corrupt
            if array.lookup(line, touch=False) is not None:
                array.invalidate(line)
                self.fired = True
                return True
        return False


class ProcessSignalFault(Fault):
    """Base for real-process faults: a signal delivered to a live OS
    worker process (the process backend's pool).  Applied by the
    backend right after it forks the pool for the matching interval;
    the ``w<N>`` selector picks the victim slot, otherwise a seeded
    random worker dies."""

    seam = "process"
    signum = None

    def pick_worker(self, num_workers, rng=None):
        """Victim slot when no ``w<N>`` selector was given (or the
        selector is out of range for this pass)."""
        rng = rng or random
        return rng.randrange(max(1, num_workers))


class SigKillWorker(ProcessSignalFault):
    """SIGKILL a live worker process mid-interval: the hard host fault
    (OOM killer, operator kill).  The driver sees the pipe close and
    runs the worker's cores inline; the pool is respawned at the next
    barrier."""

    kind = "sigkill"
    signum = signal.SIGKILL


class SigStopWorker(ProcessSignalFault):
    """SIGSTOP a live worker process: it stays alive but silent, so the
    only symptom is missing heartbeats — the heartbeat budget is what
    surfaces it (the driver kills the stopped worker and degrades its
    cores to inline execution)."""

    kind = "sigstop"
    signum = signal.SIGSTOP


_KINDS = {cls.kind: cls for cls in (CorruptEvent, SigKillWorker,
                                    SigStopWorker)}


class FaultPlan:
    """A deterministic schedule of faults (see module docs)."""

    def __init__(self, faults=(), seed=0):
        self.faults = list(faults)
        self.seed = seed
        self._rng = random.Random(seed)

    # -- construction --------------------------------------------------

    @classmethod
    def parse(cls, spec, seed=0):
        """Parse a ``;``-separated plan string; raises
        :class:`~repro.errors.ConfigError` on malformed entries."""
        faults = [cls._parse_one(part)
                  for part in (p.strip() for p in spec.split(";")) if part]
        if not faults:
            raise ConfigError("Empty fault plan: %r" % (spec,))
        return cls(faults, seed=seed)

    @staticmethod
    def _parse_one(part):
        head, sep, rest = part.partition("@")
        if not sep or head not in _KINDS:
            raise ConfigError(
                "Bad fault spec %r: want kind@interval[:selector...] "
                "with kind in %s" % (part, sorted(_KINDS)))
        fields = rest.split(":")
        try:
            interval = int(fields[0])
        except (ValueError, IndexError):
            raise ConfigError("Bad fault interval in %r" % (part,))
        kwargs = {}
        for field in fields[1:]:
            if not field:
                continue
            key = _SELECTORS.get(field[0])
            if key is None or not field[1:].isdigit():
                raise ConfigError(
                    "Bad fault selector %r in %r" % (field, part))
            kwargs[key] = int(field[1:])
        return _KINDS[head](interval, **kwargs)

    def install(self, backend):
        """Attach the plan to ``backend`` after checking that every
        fault can fire there: its seam is one the backend consults, and
        a ``d<N>`` selector names a weave domain of the adopted
        simulator.  Raises :class:`~repro.errors.ConfigError` naming the
        faults that never could.  (A supervisor demotion hands an
        installed plan down without this check: the serial floor is
        allowed to leave process faults unfired.)"""
        weave = getattr(getattr(backend, "_sim", None), "weave", None)
        domains = len(weave.domains) if weave is not None else None
        dead = [fault.describe() for fault in self.faults
                if fault.seam not in backend.fault_seams
                or (fault.domain is not None and domains is not None
                    and fault.domain >= domains)]
        if dead:
            raise ConfigError(
                "fault(s) %s can never fire on the %s backend (it "
                "consults the %s seam(s)%s)"
                % (", ".join(dead), backend.name,
                   ", ".join(sorted(backend.fault_seams)),
                   "" if domains is None
                   else "; the weave has %d domain(s)" % domains))
        backend.fault_plan = self
        return self

    # -- backend seams -------------------------------------------------

    def corrupt(self, weave, interval, flight=None):
        """Called between the weave engine's seeding and its drain
        (``run_interval``'s ``after_seed`` hook).  Core-
        selector corrupt faults are the *silent* flavor and belong to
        the :meth:`scribble` seam, never to a weave queue."""
        for fault in self.faults:
            if (fault.seam == "weave-queue" and not fault.fired
                    and fault.interval == interval
                    and fault.apply(weave, self._rng)
                    and flight is not None):
                flight.record("fault_injected", fault=fault.kind,
                              interval=interval, domain=fault.domain)

    def scribble(self, sim, interval):
        """Silent state-corruption seam: called by the simulator between
        the bound and weave phases of every interval (all backends,
        serial included).  Matching ``corrupt@I:cN`` faults damage
        architectural state directly — the integrity sentinel is the
        only thing that can detect them."""
        for fault in self.faults:
            if (fault.seam == "scribble" and not fault.fired
                    and fault.interval == interval):
                if fault.apply_state(sim, self._rng):
                    flight = getattr(sim, "flight", None)
                    if flight is not None:
                        flight.record("fault_injected", fault=fault.kind,
                                      interval=interval, core=fault.core,
                                      silent=True)

    def process_faults(self, interval):
        """Unfired real-process faults for ``interval`` (the process
        backend applies them right after forking its pool; the backend
        marks them fired once the signal is delivered)."""
        return [fault for fault in self.faults
                if fault.seam == "process" and not fault.fired
                and fault.interval == interval]

    @property
    def rng(self):
        """The plan's seeded RNG (victim selection for process faults
        without a ``w<N>`` selector stays deterministic per seed)."""
        return self._rng

    # -- bookkeeping ---------------------------------------------------

    def remaining(self):
        """Faults that have not fired (a test asserting full coverage
        of its matrix checks this is empty)."""
        return [f for f in self.faults if not f.fired]

    def reset(self):
        for fault in self.faults:
            fault.fired = False
        self._rng = random.Random(self.seed)

    def __repr__(self):
        return "FaultPlan(%s)" % "; ".join(f.describe()
                                           for f in self.faults)

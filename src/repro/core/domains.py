"""Weave-phase domains: vertical slices of the chip.

Components (cores, shared cache banks, memory controllers) are statically
partitioned into domains by tile (Section 3.2.2, Figure 3).  In real zsim
each domain owns an event queue and a host thread.  Here the domains'
events share one heap owned by :class:`~repro.core.weave.WeaveEngine`,
keyed ``(cycle, domain_id, seq)`` so that it always advances the domain
with the earliest pending event (a conservative, deterministic emulation
of the parallel execution); a :class:`Domain` keeps only its clock and
counters.
"""

from __future__ import annotations

#: Attributes of older builds' pickled domains, dropped on load (their
#: event queues moved to the engine heap).
_RETIRED = ("_queue", "_pop_floor")


class Domain:
    """One weave domain: its clock and its last interval's event
    counters."""

    def __init__(self, domain_id):
        self.domain_id = domain_id
        #: Entries ever pushed for this domain (events and probes).
        self._seq = 0
        self.current_cycle = 0
        self.events_executed = 0
        self.crossings = 0
        self.crossing_requeues = 0

    def __setstate__(self, state):
        for attr in _RETIRED:
            state.pop(attr, None)
        self.__dict__.update(state)

    def integrity_items(self, queued=()):
        """Digest items for the integrity sentinel: clocks, counters,
        and ``queued`` — this domain's (cycle, seq) pairs still in the
        engine heap, normally none, since the weave phase drains the
        heap before the barrier."""
        yield (self.domain_id, self.current_cycle, self.events_executed,
               self.crossings, self.crossing_requeues, self._seq,
               len(queued))
        if queued:
            yield tuple(sorted(queued))

    def __repr__(self):
        return "Domain(%d, cycle %d)" % (self.domain_id, self.current_cycle)


class CoreWeave:
    """The weave-phase stand-in for a core: core events have no service
    time and no occupancy; the component exists to give core events a
    domain and to accumulate per-core contention delay."""

    def __init__(self, name, core_id, tile=0):
        self.name = name
        self.core_id = core_id
        self.tile = tile
        self.domain = 0
        self.events_executed = 0

    def occupy(self, cycle, kind, line=0):
        self.events_executed += 1
        return cycle

    def zero_load_service(self, kind):
        return 0

    def reset(self):
        self.events_executed = 0

    def __repr__(self):
        return "CoreWeave(%s)" % self.name


def assign_domains(components, num_tiles, num_domains):
    """Statically partition components into domains by tile (vertical
    slices).  Returns the list of :class:`Domain` objects."""
    if num_domains <= 0:
        num_domains = max(1, num_tiles)
    num_domains = min(num_domains, max(1, num_tiles))
    tiles_per_domain = max(1, (num_tiles + num_domains - 1) // num_domains)
    domains = [Domain(i) for i in range(num_domains)]
    for comp in components:
        comp.domain = min(comp.tile // tiles_per_domain, num_domains - 1)
    return domains

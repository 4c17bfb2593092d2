"""The weave phase: parallel event-driven simulation of bound traces.

Takes the per-core traces recorded in the bound phase (accesses that
escaped the private cache levels, each with its chain of component visits
at zero-load offsets) and replays them through the weave timing models in
full order, computing the contention delays the bound phase ignored.

Event-graph construction follows Figure 4: per access, a core request
event, one event per component visited, and a core response event, all
serially linked.  Consecutive accesses of one core are chained through an
MLP window: access *i* cannot issue before the response of access
*i - mlp*, which serializes blocking (IPC1) cores and preserves overlap
for OOO cores.  Writebacks hang off the chain as side events.

Domains execute cooperatively on one engine-owned heap of
``(cycle, domain_id, seq, item)`` entries, ``seq`` counting the
interval's pushes.  That order is exactly "advance the domain with the
earliest pending event, ties to the lowest domain index, FIFO within a
domain" — a deterministic, conservative emulation of zsim's
one-thread-per-domain execution, at O(log events) per pop however many
domains there are.  Every push lands at or above the cycle of the pop
that caused it, so pops are nondecreasing across all domains and one
interval-wide floor checks the horizon discipline.  Cross-domain
dependencies are tracked as domain-crossing events with requeue
accounting, including the paper's crossing-dependency optimization (and
its ablation).
"""

from __future__ import annotations

import heapq
import time

from repro.core.events import EventPool, WeaveEvent
from repro.core.domains import CoreWeave, assign_domains
from repro.errors import HorizonViolation
from repro.obs.tracer import TID_DOMAIN


#: The floor before an interval's first pop.
_NO_FLOOR = float("-inf")


class _Crossing:
    """Premature-synchronization probe for a cross-domain edge (only
    materialized when the crossing-dependency optimization is off)."""

    __slots__ = ("parent", "gap")

    #: No component: the drain tells probes from events by this.
    component = None

    def __init__(self, parent, gap):
        self.parent = parent
        self.gap = gap


class WeaveStats:
    """Aggregate weave-phase statistics."""

    def __init__(self):
        self.intervals = 0
        self.events = 0
        self.crossings = 0
        self.crossing_requeues = 0
        self.total_delay = 0

    def __repr__(self):
        return ("WeaveStats(intervals=%d, events=%d, crossings=%d, "
                "requeues=%d, delay=%d)"
                % (self.intervals, self.events, self.crossings,
                   self.crossing_requeues, self.total_delay))


class WeaveEngine:
    """Builds and executes the weave-phase event graph per interval."""

    def __init__(self, core_weaves, components, num_tiles, num_domains=0,
                 crossing_deps=True, mlp_window=None, journal=None,
                 telemetry=None):
        self.core_weaves = core_weaves
        self.components = list(components)
        self.crossing_deps = crossing_deps
        #: Per-core MLP window: how many accesses may overlap.
        self.mlp_window = mlp_window or {}
        self.domains = assign_domains(
            list(core_weaves) + self.components, num_tiles, num_domains)
        self.pool = EventPool()
        self.stats = WeaveStats()
        #: (component, kind) -> zero-load service cycles.  Service times
        #: are pure per key, so one call each is enough for the run.
        self._svc_cache = {}
        self._telem = telemetry
        #: Optional list collecting (component, kind, min_cycle, start,
        #: done, core_id) per executed event — the Figure 4 trace, for
        #: debugging and structural tests.
        self.journal = journal
        #: Per-domain executed-event counts of the last interval, for the
        #: host-parallelism model.
        self.last_interval_domain_events = [0] * len(self.domains)
        #: The interval's event heap: ``(cycle, domain_id, seq, item)``
        #: entries, empty at every barrier.
        self.heap = []

    def __setstate__(self, state):
        # Engines pickled by older builds predate the service-time cache
        # and the engine heap (their queues lived on the domains).
        state.setdefault("_svc_cache", {})
        state.setdefault("heap", [])
        self.__dict__.update(state)

    # ------------------------------------------------------------------

    def run_interval(self, traces, after_seed=None):
        """Simulate one interval.  ``traces`` maps core_id -> list of
        (issue_cycle, AccessResult).  Returns {core_id: delay}.

        ``after_seed`` — a no-argument callable — runs once the root
        events sit in :attr:`heap` and before the first pop (the process
        backend's queue-corruption seam).  It may edit the heap; it
        cannot replace the drain."""
        self.stats.intervals += 1
        telem = self._telem
        start = time.perf_counter() if telem is not None else 0.0
        events, last_resp = self._build_events(traces)
        self._drain(events, after_seed)
        if self.journal is not None:
            # In start order (ties by domain, then build order): an
            # event starts at its final ``ready`` cycle.
            self.journal.extend(
                (event.component.name, event.kind, event.min_cycle,
                 event.ready, event.done, event.core_id)
                for event in sorted(events, key=lambda event: (
                    event.ready, event.component.domain)))
        delays = {}
        for core_id, resp in last_resp.items():
            delay = (resp.done or resp.min_cycle) - resp.min_cycle
            delays[core_id] = max(0, delay)
            self.stats.total_delay += delays[core_id]
        self.last_interval_domain_events = [
            d.events_executed for d in self.domains]
        for domain in self.domains:
            self.stats.events += domain.events_executed
            self.stats.crossings += domain.crossings
            self.stats.crossing_requeues += domain.crossing_requeues
        self.pool.free_all(events)
        if telem is not None:
            self._record_interval_telemetry(telem, start,
                                            time.perf_counter(),
                                            len(events))
        return delays

    def attach_telemetry(self, telemetry):
        self._telem = telemetry

    def _record_interval_telemetry(self, telem, start_s, end_s,
                                   num_events):
        """Per-domain spans and queue/crossing histograms for one
        interval.  Domains execute cooperatively (interleaved on one host
        thread), so each domain's span is the interval's weave wall time
        apportioned by its share of executed events — the same model the
        host-parallelism estimate uses."""
        tracer = telem.tracer
        metrics = telem.metrics
        total = sum(d.events_executed for d in self.domains)
        wall = end_s - start_s
        if tracer is not None:
            cursor_us = (start_s - tracer._t0) * 1e6
            for domain in self.domains:
                if domain.events_executed == 0:
                    continue
                share_us = (wall * 1e6 * domain.events_executed / total
                            if total else 0.0)
                tracer.complete(
                    "domain%d" % domain.domain_id, "weave", cursor_us,
                    share_us, TID_DOMAIN + domain.domain_id,
                    {"interval": self.stats.intervals,
                     "events": domain.events_executed,
                     "crossings": domain.crossings,
                     "requeues": domain.crossing_requeues})
                cursor_us += share_us
        if metrics is not None:
            metrics.histogram("weave.events_per_interval").record(
                num_events)
            for domain in self.domains:
                metrics.histogram("weave.domain_queue_events").record(
                    domain.events_executed)
                metrics.histogram("weave.domain_crossings").record(
                    domain.crossings)
            metrics.inc("weave.intervals")
            metrics.inc("weave.events", num_events)

    # ------------------------------------------------------------------

    def _build_events(self, traces):
        # Allocation and linking are inlined (the slab pop, the reset,
        # and the gap arithmetic of WeaveEvent.link) — this runs once per
        # traced access per interval and the call overhead dominates the
        # work.  Chain/resp/wback events always have exactly one parent,
        # so their parents_left is assigned, not incremented; only REQ
        # events can pick up a second (MLP-window) edge.
        pool = self.pool
        free_list = pool._free
        svc_cache = self._svc_cache
        svc_get = svc_cache.get
        events = []
        events_append = events.append
        last_resp = {}
        mlp_get = self.mlp_window.get
        core_weaves = self.core_weaves
        for core_id, trace in traces.items():
            if not trace:
                continue
            core_weave = core_weaves[core_id]
            mlp = mlp_get(core_id, 1)
            resp_history = []
            resp_append = resp_history.append
            for issue_cycle, result in trace:
                line = result.line
                if free_list:
                    pool.recycled += 1
                    req = free_list.pop()
                else:
                    pool.allocated += 1
                    req = WeaveEvent()
                # WeaveEvent.reset, inlined at each allocation site
                # below: plain field stores, children left alone (the
                # pool cleared them on free).
                req.component = core_weave
                req.kind = "REQ"
                req.line = line
                req.min_cycle = issue_cycle
                req.service = 0
                req.core_id = core_id
                req.parents_left = 0
                req.ready = issue_cycle
                req.done = None
                req.is_response = False
                events_append(req)
                if len(resp_history) >= mlp:
                    parent = resp_history[-mlp]
                    gap = issue_cycle - parent.min_cycle - parent.service
                    parent.children.append((req, gap if gap > 0 else 0))
                    req.parents_left += 1
                prev = req
                prev_base = issue_cycle    # prev.min_cycle + prev.service
                steps = result.steps
                for comp, offset, kind in steps:
                    min_cycle = issue_cycle + offset
                    service = svc_get((comp, kind))
                    if service is None:
                        service = svc_cache[(comp, kind)] = \
                            comp.zero_load_service(kind)
                    if free_list:
                        pool.recycled += 1
                        ev = free_list.pop()
                    else:
                        pool.allocated += 1
                        ev = WeaveEvent()
                    ev.component = comp
                    ev.kind = kind
                    ev.line = line
                    ev.min_cycle = min_cycle
                    ev.service = service
                    ev.core_id = core_id
                    ev.ready = min_cycle
                    ev.done = None
                    ev.is_response = False
                    events_append(ev)
                    gap = min_cycle - prev_base
                    prev.children.append((ev, gap if gap > 0 else 0))
                    ev.parents_left = 1
                    prev = ev
                    prev_base = min_cycle + service
                resp_cycle = issue_cycle + result.latency
                if free_list:
                    pool.recycled += 1
                    resp = free_list.pop()
                else:
                    pool.allocated += 1
                    resp = WeaveEvent()
                resp.component = core_weave
                resp.kind = "RESP"
                resp.line = line
                resp.min_cycle = resp_cycle
                resp.service = 0
                resp.core_id = core_id
                resp.ready = resp_cycle
                resp.done = None
                resp.is_response = True
                events_append(resp)
                gap = resp_cycle - prev_base
                prev.children.append((resp, gap if gap > 0 else 0))
                resp.parents_left = 1
                anchor = events[-len(steps) - 1] if steps else req
                anchor_base = anchor.min_cycle + anchor.service
                for comp, offset, kind in result.wbacks:
                    min_cycle = issue_cycle + offset
                    if free_list:
                        pool.recycled += 1
                        wb = free_list.pop()
                    else:
                        pool.allocated += 1
                        wb = WeaveEvent()
                    service = svc_get((comp, kind))
                    if service is None:
                        service = svc_cache[(comp, kind)] = \
                            comp.zero_load_service(kind)
                    wb.component = comp
                    wb.kind = kind
                    wb.line = line
                    wb.min_cycle = min_cycle
                    wb.service = service
                    wb.core_id = core_id
                    wb.ready = min_cycle
                    wb.done = None
                    wb.is_response = False
                    events_append(wb)
                    gap = min_cycle - anchor_base
                    anchor.children.append((wb, gap if gap > 0 else 0))
                    wb.parents_left = 1
                resp_append(resp)
                if len(resp_history) > mlp + 64:
                    del resp_history[:32]
            last_resp[core_id] = resp
        return events, last_resp

    # ------------------------------------------------------------------

    def _drain(self, events, after_seed):
        """Seed the heap with the root events (no pending parents), run
        ``after_seed``, then pop earliest-first until the heap is empty.

        With the crossing-dependency optimization ablated (premature
        synchronization), every cross-domain edge additionally gets an
        eager :class:`_Crossing` probe on the child's side, requeued
        until its parent finishes; the delivery itself still comes from
        the parent.  Domain clocks and the interval's counters live in
        locals and are written back on every exit, so an aborted
        interval still reports honestly."""
        domains = self.domains
        heap = []
        for event in events:
            if event.parents_left == 0:
                heap.append((event.min_cycle, event.component.domain,
                             len(heap) + 1, event))
        if not self.crossing_deps:
            for event in events:
                domain = event.component.domain
                for child, gap in event.children:
                    child_domain = child.component.domain
                    if child_domain != domain:
                        heap.append((child.min_cycle, child_domain,
                                     len(heap) + 1, _Crossing(event, gap)))
        heapq.heapify(heap)
        self.heap = heap
        seq = len(heap)
        if after_seed is not None:
            after_seed()
        heappop = heapq.heappop
        heappush = heapq.heappush
        num = len(domains)
        executed = [0] * num
        crossings = [0] * num
        requeues = [0] * num
        # Popped entries that executed no event: probes, and a pop that
        # broke the floor.
        other_pops = [0] * num
        clocks = [domain.current_cycle for domain in domains]
        last_pop = clocks[:]
        floor = _NO_FLOOR
        try:
            while heap:
                cycle, dom, _seq, item = heappop(heap)
                if cycle < floor:
                    other_pops[dom] += 1
                    raise HorizonViolation(
                        "domain %d popped an event at cycle %d below the "
                        "interval floor %d: corrupt event timestamp or "
                        "broken horizon discipline" % (dom, cycle, floor),
                        cycle=cycle, floor=floor, phase="weave",
                        domain=dom)
                floor = cycle
                last_pop[dom] = cycle
                # An event is pushed once its last parent delivered, at
                # its final ``ready`` cycle, so it starts at ``cycle``.
                comp = item.component
                if type(comp) is CoreWeave:
                    # CoreWeave.occupy, inlined: REQ/RESP events (about
                    # half of all events) have no occupancy state.
                    comp.events_executed += 1
                    done = cycle
                elif comp is None:
                    # A crossing probe.  If its parent has not finished,
                    # requeue at the parent domain's clock plus the
                    # parent->child delay (Section 3.2.2).
                    other_pops[dom] += 1
                    parent = item.parent
                    if parent.done is None:
                        parent_dom = parent.component.domain
                        now = max(clocks[parent_dom], last_pop[parent_dom])
                        requeues[dom] += 1
                        seq += 1
                        heappush(heap, (max(cycle + 1,
                                            now + max(1, item.gap)),
                                        dom, seq, item))
                    continue
                else:
                    done = comp.occupy(cycle, item.kind, item.line)
                item.done = done
                executed[dom] += 1
                for child, gap in item.children:
                    left = child.parents_left - 1
                    child.parents_left = left
                    candidate = done + gap
                    if candidate > child.ready:
                        child.ready = candidate
                    if left == 0:
                        # ``ready`` starts at ``min_cycle`` and only grows.
                        child_dom = child.component.domain
                        if child_dom != dom:
                            crossings[child_dom] += 1
                        seq += 1
                        heappush(heap, (child.ready, child_dom, seq, child))
        finally:
            left_queued = [0] * num
            for entry in heap:
                left_queued[entry[1]] += 1
            for i, domain in enumerate(domains):
                domain.events_executed = executed[i]
                domain.crossings = crossings[i]
                domain.crossing_requeues = requeues[i]
                domain._seq += executed[i] + other_pops[i] + left_queued[i]
                domain.current_cycle = max(clocks[i], last_pop[i])

    def queued(self, domain_id):
        """``(cycle, seq)`` of ``domain_id``'s entries still in the heap
        (none at a barrier unless a drain aborted)."""
        return [(cycle, seq) for cycle, dom, seq, _item in self.heap
                if dom == domain_id]

    # ------------------------------------------------------------------

    def reset(self):
        for comp in self.components:
            comp.reset()
        for core_weave in self.core_weaves:
            core_weave.reset()
        self.stats = WeaveStats()

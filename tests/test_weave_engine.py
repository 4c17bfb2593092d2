"""Tests for the weave engine: event graphs, domains, delays, crossings."""

import itertools
import random

import pytest

from repro.core.domains import CoreWeave
from repro.core.events import EventPool
from repro.core.weave import WeaveEngine
from repro.memory.access import AccessContext, AccessResult, StepKind
from repro.memory.weave import CacheBankWeave


def make_result(core_id, line, latency, steps):
    """Fabricate an AccessResult with an explicit weave chain."""
    ctx = AccessContext(core_id, line, write=False)
    ctx.latency = latency
    for comp, offset, kind in steps:
        ctx.add_step_at(comp, offset, kind)
    return AccessResult(ctx)


def engine_with_bank(num_cores=2, bank_tile=0, tiles=1, ports=1,
                     latency=14, crossing_deps=True, mlp=1):
    cores = [CoreWeave("core%d" % i, i, tile=min(i, tiles - 1))
             for i in range(num_cores)]
    bank = CacheBankWeave("l3b0", latency=latency, ports=ports,
                          tile=bank_tile)
    engine = WeaveEngine(cores, [bank], num_tiles=tiles, num_domains=0,
                         crossing_deps=crossing_deps,
                         mlp_window={i: mlp for i in range(num_cores)})
    return engine, bank


class TestRetiming:
    def test_uncontended_access_has_zero_delay(self):
        engine, bank = engine_with_bank(num_cores=1)
        res = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        delays = engine.run_interval({0: [(100, res)]})
        assert delays == {0: 0}

    def test_bank_contention_delays_one_core(self):
        engine, bank = engine_with_bank(num_cores=2, ports=1)
        res0 = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        res1 = make_result(1, 9, 30, [(bank, 10, StepKind.HIT)])
        delays = engine.run_interval({0: [(100, res0)],
                                      1: [(100, res1)]})
        assert sorted(delays.values()) == [0, bank.PORT_OCCUPANCY]

    def test_delay_propagates_through_serial_chain(self):
        """With MLP=1, a delayed first access pushes the second."""
        engine, bank = engine_with_bank(num_cores=2, ports=1, mlp=1)
        t0 = {0: [(100, make_result(0, 1, 30, [(bank, 10, StepKind.HIT)])),
                  (140, make_result(0, 2, 30, [(bank, 10, StepKind.HIT)]))],
              1: [(100, make_result(1, 3, 30, [(bank, 10, StepKind.HIT)]))]}
        delays = engine.run_interval(t0)
        # One of the cores loses the port race at cycle 110 and its
        # second access (core 0) inherits any accumulated delay.
        assert max(delays.values()) >= 2

    def test_mlp_allows_overlap(self):
        """With a wide MLP window, two accesses of one core overlap, so
        total delay is smaller than with MLP=1."""
        def run(mlp):
            engine, bank = engine_with_bank(num_cores=1, ports=1, mlp=mlp)
            trace = {0: [
                (100, make_result(0, 1, 30, [(bank, 0, StepKind.HIT)])),
                (100, make_result(0, 2, 30, [(bank, 0, StepKind.HIT)])),
                (100, make_result(0, 3, 30, [(bank, 0, StepKind.HIT)])),
            ]}
            return engine.run_interval(trace)[0]
        assert run(4) <= run(1)

    def test_writeback_events_execute(self):
        engine, bank = engine_with_bank(num_cores=1)
        ctx = AccessContext(0, 7, write=True)
        ctx.latency = 30
        ctx.add_step_at(bank, 10, StepKind.MISS)
        ctx.add_wback(bank)
        res = AccessResult(ctx)
        engine.run_interval({0: [(50, res)]})
        assert bank.events_executed == 2  # miss + writeback

    def test_empty_interval(self):
        engine, _bank = engine_with_bank()
        assert engine.run_interval({}) == {}
        assert engine.run_interval({0: []}) == {}


class TestDomainsAndCrossings:
    def test_cross_domain_dependency_counted(self):
        engine, bank = engine_with_bank(num_cores=2, bank_tile=1, tiles=2)
        # Core 0 is in domain 0; the bank is in domain 1.
        res = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        engine.run_interval({0: [(100, res)]})
        crossings = sum(d.crossings for d in engine.domains)
        assert crossings >= 2  # req->bank and bank->resp

    def test_same_domain_no_crossings(self):
        engine, bank = engine_with_bank(num_cores=1, bank_tile=0, tiles=1)
        res = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        engine.run_interval({0: [(100, res)]})
        assert sum(d.crossings for d in engine.domains) == 0

    def test_crossing_ablation_counts_requeues(self):
        """Without crossing dependencies, premature crossings requeue."""
        engine, bank = engine_with_bank(num_cores=2, bank_tile=1, tiles=2,
                                        crossing_deps=False)
        traces = {core: [(100 + i * 7,
                          make_result(core, i, 30,
                                      [(bank, 10, StepKind.HIT)]))
                         for i in range(10)]
                  for core in range(2)}
        engine.run_interval(traces)
        assert sum(d.crossing_requeues for d in engine.domains) > 0

    def test_stats_accumulate(self):
        engine, bank = engine_with_bank()
        res = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        engine.run_interval({0: [(100, res)]})
        engine.run_interval({0: [(2100, res)]})
        assert engine.stats.intervals == 2
        assert engine.stats.events == 6  # (req + bank + resp) x 2


class TestDeterminismAndReuse:
    def test_deterministic(self):
        def run():
            engine, bank = engine_with_bank(num_cores=4, ports=1)
            traces = {c: [(100 + c, make_result(c, i, 30,
                                                [(bank, 10,
                                                  StepKind.HIT)]))
                          for i in range(5)]
                      for c in range(4)}
            return engine.run_interval(traces)
        assert run() == run()

    def test_event_pool_recycled_between_intervals(self):
        engine, bank = engine_with_bank()
        res = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        engine.run_interval({0: [(100, res)]})
        allocated = engine.pool.allocated
        engine.run_interval({0: [(2100, res)]})
        assert engine.pool.allocated == allocated  # fully recycled

    def test_reset_clears_components(self):
        engine, bank = engine_with_bank()
        res = make_result(0, 5, 30, [(bank, 10, StepKind.HIT)])
        engine.run_interval({0: [(100, res)]})
        engine.reset()
        assert bank.events_executed == 0
        assert engine.stats.intervals == 0


class TestConservatism:
    def test_response_never_before_lower_bound(self):
        """Every core's response is at or after its bound cycle (delays
        are always >= 0), the invariant feedback relies on."""
        engine, bank = engine_with_bank(num_cores=4, ports=1)
        traces = {}
        for core in range(4):
            traces[core] = [(100 * i + core,
                             make_result(core, i * 4 + core, 25,
                                         [(bank, 8, StepKind.HIT)]))
                            for i in range(8)]
        delays = engine.run_interval(traces)
        assert all(d >= 0 for d in delays.values())


class TestJournal:
    def test_journal_records_figure4_chains(self):
        """With a journal attached, every executed event is recorded and
        per-access chains show the Figure 4 structure: REQ -> component
        events -> RESP, in nondecreasing time, each started at or after
        its lower bound."""
        cores = [CoreWeave("core0", 0)]
        bank = CacheBankWeave("l3b0", latency=14, ports=1)
        journal = []
        engine = WeaveEngine(cores, [bank], num_tiles=1,
                             mlp_window={0: 1}, journal=journal)
        trace = {0: [
            (100, make_result(0, 1, 30, [(bank, 10, StepKind.HIT)])),
            (200, make_result(0, 2, 30, [(bank, 10, StepKind.MISS)])),
        ]}
        engine.run_interval(trace)
        assert len(journal) == 6  # (REQ, bank, RESP) x 2
        kinds = [entry[1] for entry in journal]
        assert kinds.count("REQ") == 2
        assert kinds.count("RESP") == 2
        for _name, _kind, min_cycle, start, done, core_id in journal:
            assert start >= min_cycle
            assert done >= start
            assert core_id == 0
        # Events execute in nondecreasing start order (single domain).
        starts = [entry[3] for entry in journal]
        assert starts == sorted(starts)


# ---------------------------------------------------------------------
# The one drain vs a brute-force earliest-first reference
# ---------------------------------------------------------------------


class _Port:
    """A one-port weave component that logs the events it serves, so
    the service order — which timing depends on — is observable."""

    def __init__(self, name, tile):
        self.name = name
        self.tile = tile
        self.domain = 0
        self.free_at = 0
        self.served = []

    def occupy(self, cycle, kind, line=0):
        self.served.append(line)
        self.free_at = max(cycle, self.free_at) + 3
        return self.free_at


def _random_dag(rng, comps, num_events):
    """Events with random lower bounds on random components; edges run
    from lower to higher index (a DAG), many across domains."""
    pool = EventPool()
    events = [pool.alloc(rng.choice(comps), "X", i, rng.randrange(200),
                         rng.randrange(4), 0) for i in range(num_events)]
    for i, event in enumerate(events):
        for child in rng.sample(events[i + 1:],
                                min(rng.randrange(3), num_events - i - 1)):
            event.link(child)
    return events


def _reference_drain(events, clocks, crossing_deps, stats):
    """Linear scan over per-domain lists: the domain with the earliest
    head (ties to the lowest index) pops its (cycle, push order)
    minimum.  ``stats[d]`` collects [executed, crossings, requeues]."""
    queues = [[] for _ in clocks]
    seq = itertools.count()

    def push(dom, cycle, item):
        queues[dom].append((cycle, next(seq), item))

    for event in events:
        if event.parents_left == 0:
            push(event.component.domain, event.min_cycle, event)
    for event in events if not crossing_deps else ():
        for child, gap in event.children:
            if child.component.domain != event.component.domain:
                push(child.component.domain, child.min_cycle, (event, gap))
    while any(queues):
        dom = min((i for i, q in enumerate(queues) if q),
                  key=lambda i: (min(queues[i])[0], i))
        entry = min(queues[dom])
        queues[dom].remove(entry)
        cycle, _seq, item = entry
        clocks[dom] = max(clocks[dom], cycle)
        if isinstance(item, tuple):  # crossing probe: (parent, gap)
            parent, gap = item
            if parent.done is None:
                stats[dom][2] += 1
                push(dom, max(cycle + 1, clocks[parent.component.domain]
                              + max(1, gap)), item)
            continue
        item.done = item.component.occupy(max(cycle, item.ready),
                                          item.kind, item.line)
        stats[dom][0] += 1
        for child, gap in item.children:
            child.parents_left -= 1
            child.ready = max(child.ready, item.done + gap)
            if child.parents_left == 0:
                child_dom = child.component.domain
                if child_dom != dom:
                    stats[child_dom][1] += 1
                push(child_dom, max(child.ready, child.min_cycle), child)


class TestOneDrain:
    """The engine's single heap keyed (cycle, domain, seq) reproduces the
    per-domain earliest-first scan exactly: service order at every
    component, every event's completion, and every domain's clock and
    counters, with crossing probes both off and on."""

    TILES = 4

    def _build(self):
        comps = []
        for tile in range(self.TILES):
            comps.append(CoreWeave("core%d" % tile, tile, tile=tile))
            comps += [_Port("port%d.%d" % (tile, k), tile) for k in range(2)]
        cores = [c for c in comps if isinstance(c, CoreWeave)]
        ports = [c for c in comps if isinstance(c, _Port)]
        return WeaveEngine(cores, ports, num_tiles=self.TILES), comps

    @pytest.mark.parametrize("crossing_deps", (True, False))
    @pytest.mark.parametrize("seed", range(12))
    def test_heap_drain_matches_linear_scan(self, seed, crossing_deps):
        engine, comps = self._build()
        engine.crossing_deps = crossing_deps
        _ref_engine, ref_comps = self._build()  # assigns ref domains
        clocks = [0] * self.TILES
        rng = random.Random(seed)
        for _interval in range(3):
            num_events = rng.randrange(5, 60)
            dag_seed = rng.randrange(1 << 30)
            events = _random_dag(random.Random(dag_seed), comps, num_events)
            ref_events = _random_dag(random.Random(dag_seed), ref_comps,
                                     num_events)
            engine._drain(events, None)
            stats = [[0, 0, 0] for _ in clocks]
            _reference_drain(ref_events, clocks, crossing_deps, stats)

            assert engine.heap == []
            assert [e.done for e in events] == [e.done for e in ref_events]
            for comp, ref in zip(comps, ref_comps):
                assert getattr(comp, "served", None) == \
                    getattr(ref, "served", None), comp.name
            assert [(d.current_cycle, d.events_executed, d.crossings,
                     d.crossing_requeues) for d in engine.domains] == \
                [(clock, *counts) for clock, counts in zip(clocks, stats)]
        if not crossing_deps:
            assert sum(d.crossing_requeues for d in engine.domains) > 0

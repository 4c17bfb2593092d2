"""Tests for weave events, the event pool, and domain assignment."""

from repro.core.domains import CoreWeave, assign_domains
from repro.core.events import EventPool
from repro.memory.weave import CacheBankWeave


class TestWeaveEvent:
    def test_link_gap_from_lower_bounds(self):
        pool = EventPool()
        parent = pool.alloc(None, "REQ", 0, min_cycle=100, service=10,
                            core_id=0)
        child = pool.alloc(None, "RESP", 0, min_cycle=130, service=0,
                           core_id=0)
        parent.link(child)
        (linked, gap), = parent.children
        assert linked is child
        assert gap == 20  # 130 - 100 - 10
        assert child.parents_left == 1

    def test_negative_gap_clamped(self):
        pool = EventPool()
        parent = pool.alloc(None, "REQ", 0, 100, 50, 0)
        child = pool.alloc(None, "X", 0, 120, 0, 0)  # 120 < 100+50
        parent.link(child)
        assert parent.children[0][1] == 0

    def test_multiple_parents_counted(self):
        pool = EventPool()
        child = pool.alloc(None, "X", 0, 10, 0, 0)
        for _ in range(3):
            pool.alloc(None, "P", 0, 0, 0, 0).link(child)
        assert child.parents_left == 3


class TestEventPool:
    def test_recycles_lifo(self):
        pool = EventPool()
        event = pool.alloc(None, "A", 0, 0, 0, 0)
        pool.free_all([event])
        again = pool.alloc(None, "B", 1, 5, 2, 1)
        assert again is event  # recycled object
        assert again.kind == "B" and again.min_cycle == 5
        assert again.children == []
        assert again.done is None

    def test_alloc_counts(self):
        pool = EventPool()
        events = [pool.alloc(None, "A", 0, 0, 0, 0) for _ in range(5)]
        assert pool.allocated == 5
        pool.free_all(events)
        pool.alloc(None, "B", 0, 0, 0, 0)
        assert pool.recycled == 1
        assert pool.allocated == 5


class TestAssignDomains:
    def components(self, tiles):
        comps = []
        for tile in range(tiles):
            comps.append(CoreWeave("core%d" % tile, tile, tile=tile))
            comps.append(CacheBankWeave("l3b%d" % tile, 10, tile=tile))
        return comps

    def test_one_domain_per_tile_default(self):
        comps = self.components(4)
        domains = assign_domains(comps, num_tiles=4, num_domains=0)
        assert len(domains) == 4
        for comp in comps:
            assert comp.domain == comp.tile

    def test_vertical_slices(self):
        """Components of one tile land in one domain together."""
        comps = self.components(8)
        assign_domains(comps, num_tiles=8, num_domains=4)
        by_tile = {}
        for comp in comps:
            by_tile.setdefault(comp.tile, set()).add(comp.domain)
        assert all(len(doms) == 1 for doms in by_tile.values())

    def test_domain_count_capped_by_tiles(self):
        comps = self.components(2)
        domains = assign_domains(comps, num_tiles=2, num_domains=16)
        assert len(domains) == 2

    def test_single_tile(self):
        comps = self.components(1)
        domains = assign_domains(comps, num_tiles=1, num_domains=0)
        assert len(domains) == 1
        assert all(c.domain == 0 for c in comps)

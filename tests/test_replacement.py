"""Tests for replacement policies (one object per array, sets by index)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.replacement import (
    LRU,
    RandomRepl,
    TreePLRU,
    make_policy,
)


def _one_set(policy, idx=0):
    policy.add_set(idx)
    return policy


class TestLRU:
    def test_initial_victim_is_way_zero(self):
        assert _one_set(LRU(4)).victim(0) == 0

    def test_victim_is_least_recent(self):
        lru = _one_set(LRU(4))
        for way in (0, 1, 2, 3):
            lru.touch(0, way)
        assert lru.victim(0) == 0
        lru.touch(0, 0)
        assert lru.victim(0) == 1

    def test_touch_reorders(self):
        lru = _one_set(LRU(3))
        lru.touch(0, 0)
        lru.touch(0, 1)
        lru.touch(0, 2)
        lru.touch(0, 0)  # 1 is now LRU
        assert lru.victim(0) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=60))
    def test_victim_matches_reference_model(self, touches):
        """The victim is always the way touched least recently."""
        lru = _one_set(LRU(8))
        order = list(range(8))
        for way in touches:
            lru.touch(0, way)
            order.remove(way)
            order.append(way)
        assert lru.victim(0) == order[0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3)),
                    min_size=1, max_size=60))
    def test_sets_are_independent(self, touches):
        """Two sets share the array-wide clock but not their order:
        each set's victim is its own least recently touched way."""
        lru = LRU(4)
        orders = {}
        for idx in (0, 1):
            lru.add_set(idx)
            orders[idx] = list(range(4))
        for idx, way in touches:
            lru.touch(idx, way)
            orders[idx].remove(way)
            orders[idx].append(way)
        assert [lru.victim(idx) for idx in (0, 1)] == \
            [orders[idx][0] for idx in (0, 1)]


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TreePLRU(6)

    def test_victim_in_range(self):
        plru = _one_set(TreePLRU(8))
        assert 0 <= plru.victim(0) < 8

    def test_never_evicts_just_touched(self):
        plru = _one_set(TreePLRU(8))
        for way in range(8):
            plru.touch(0, way)
            assert plru.victim(0) != way

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    def test_victim_always_valid(self, touches):
        plru = _one_set(TreePLRU(4))
        for way in touches:
            plru.touch(0, way)
            victim = plru.victim(0)
            assert 0 <= victim < 4
            assert victim != way

    def test_two_way_behaves_like_lru(self):
        plru, lru = _one_set(TreePLRU(2)), _one_set(LRU(2))
        for way in (0, 1, 0, 0, 1):
            plru.touch(0, way)
            lru.touch(0, way)
            assert plru.victim(0) == lru.victim(0)

    def test_sets_are_independent(self):
        plru = TreePLRU(4)
        plru.add_set(0)
        plru.add_set(1)
        plru.touch(0, 0)
        assert plru.victim(0) == 2
        assert plru.victim(1) == 0


class TestRandom:
    def test_deterministic_for_seed(self):
        a = RandomRepl(8, seed=42)
        b = RandomRepl(8, seed=42)
        assert [a.victim(3) for _ in range(10)] == \
            [b.victim(3) for _ in range(10)]

    def test_in_range(self):
        policy = RandomRepl(4, seed=1)
        assert all(0 <= policy.victim(0) < 4 for _ in range(50))

    def test_sets_draw_own_streams(self):
        """Set ``idx`` draws from seed + idx, untouched by other sets'
        draws."""
        mixed, alone = RandomRepl(8, seed=42), RandomRepl(8, seed=43)
        draws = []
        for _ in range(10):
            mixed.victim(0)
            draws.append(mixed.victim(1))
        assert draws == [alone.victim(0) for _ in range(10)]


class TestFactory:
    @pytest.mark.parametrize("name,cls", [("lru", LRU),
                                          ("tree", TreePLRU),
                                          ("random", RandomRepl)])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name, 4), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("clock", 4)

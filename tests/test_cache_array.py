"""Tests for the set-associative cache array."""

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_system, tiled_chip
from repro.memory.cache_array import CacheArray
from repro.memory.coherence import MESI
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.replacement import LRU, RandomRepl, TreePLRU


class TestBasics:
    def test_miss_returns_none(self):
        array = CacheArray(4, 2)
        assert array.lookup(0x10) is None

    def test_fill_then_hit(self):
        array = CacheArray(4, 2)
        array.fill(0x10, MESI.E)
        assert array.lookup(0x10) == MESI.E

    def test_update_state(self):
        array = CacheArray(4, 2)
        array.fill(0x10, MESI.S)
        array.update_state(0x10, MESI.M)
        assert array.lookup(0x10) == MESI.M

    def test_double_fill_raises(self):
        array = CacheArray(4, 2)
        array.fill(0x10, MESI.E)
        with pytest.raises(ValueError):
            array.fill(0x10, MESI.E)

    def test_invalidate(self):
        array = CacheArray(4, 2)
        array.fill(0x10, MESI.M)
        assert array.invalidate(0x10) == MESI.M
        assert array.lookup(0x10) is None
        assert array.invalidate(0x10) is None

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheArray(0, 2)


class TestEviction:
    def test_no_eviction_until_full(self):
        array = CacheArray(1, 4)
        for i in range(4):
            victim, _ = array.fill(i, MESI.E)
            assert victim is None

    def test_eviction_when_set_full(self):
        array = CacheArray(1, 2)
        array.fill(0, MESI.E)
        array.fill(1, MESI.M)
        victim, state = array.fill(2, MESI.E)
        assert victim == 0  # LRU
        assert state == MESI.E

    def test_eviction_respects_lru_touch(self):
        array = CacheArray(1, 2)
        array.fill(0, MESI.E)
        array.fill(1, MESI.E)
        array.lookup(0)  # touch 0; 1 becomes LRU
        victim, _ = array.fill(2, MESI.E)
        assert victim == 1

    def test_sets_are_independent(self):
        array = CacheArray(2, 1)
        array.fill(0, MESI.E)  # set 0
        victim, _ = array.fill(1, MESI.E)  # set 1
        assert victim is None

    def test_would_evict_is_pure(self):
        array = CacheArray(1, 2)
        array.fill(0, MESI.E)
        assert array.would_evict(5) is None  # free way remains
        array.fill(1, MESI.E)
        candidate = array.would_evict(5)
        assert candidate == 0
        # No mutation happened.
        assert array.lookup(0, touch=False) == MESI.E
        assert array.would_evict(0) is None  # already present


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63),
                          st.sampled_from([MESI.S, MESI.E, MESI.M])),
                min_size=1, max_size=200))
def test_array_invariants(ops):
    """Occupancy never exceeds capacity; resident lines are findable;
    victims are always lines that were resident."""
    array = CacheArray(4, 2)
    resident = {}
    for line, state in ops:
        if array.lookup(line, touch=False) is not None:
            array.update_state(line, state)
            resident[line] = state
            continue
        victim, vstate = array.fill(line, state)
        if victim is not None:
            assert resident.pop(victim) == vstate
        resident[line] = state
        assert array.occupancy() <= 4 * 2
    assert dict(array.resident_lines()) == resident
    for line, state in resident.items():
        assert array.lookup(line, touch=False) == state


def test_occupancy_counts():
    array = CacheArray(2, 2)
    for line in range(4):
        array.fill(line, MESI.E)
    assert array.occupancy() == 4


# ---------------------------------------------------------------------
# Lazy sets vs an eager per-set reference
# ---------------------------------------------------------------------


class EagerArray:
    """Reference model: every set's dict, way list and replacement
    state built up front, one policy per set (the pre-lazy layout)."""

    def __init__(self, num_sets, ways, repl, seed, hash_sets):
        self.num_sets, self.ways, self.repl = num_sets, ways, repl
        self.index = CacheArray(num_sets, ways, hash_sets=hash_sets).set_index
        self.lines = [dict() for _ in range(num_sets)]
        self.way_lists = [[None] * ways for _ in range(num_sets)]
        self.free = [ways] * num_sets
        self.order = [list(range(ways)) for _ in range(num_sets)]
        self.trees = [TreePLRU(ways) if repl == "tree" else None
                      for _ in range(num_sets)]
        for tree in self.trees:
            if tree is not None:
                tree.add_set(0)
        self.rngs = [random.Random(seed + i) for i in range(num_sets)]

    def touch(self, idx, way):
        self.order[idx].remove(way)
        self.order[idx].append(way)
        if self.repl == "tree":
            self.trees[idx].touch(0, way)

    def victim(self, idx):
        if self.repl == "lru":
            return self.order[idx][0]
        if self.repl == "tree":
            return self.trees[idx].victim(0)
        return self.rngs[idx].randrange(self.ways)

    def lookup(self, line, touch):
        idx = self.index(line)
        entry = self.lines[idx].get(line)
        if entry is not None and touch:
            self.touch(idx, entry[0])
        return None if entry is None else entry[1]

    def update_state(self, line, state):
        idx = self.index(line)
        self.lines[idx][line] = (self.lines[idx][line][0], state)

    def fill(self, line, state):
        idx = self.index(line)
        lines, ways = self.lines[idx], self.way_lists[idx]
        victim = vstate = None
        if self.free[idx]:
            way = ways.index(None)
            self.free[idx] -= 1
        else:
            way = self.victim(idx)
            victim = ways[way]
            vstate = lines.pop(victim)[1]
        ways[way] = line
        lines[line] = (way, state)
        self.touch(idx, way)
        return victim, vstate

    def invalidate(self, line):
        idx = self.index(line)
        entry = self.lines[idx].pop(line, None)
        if entry is None:
            return None
        self.way_lists[idx][entry[0]] = None
        self.free[idx] += 1
        return entry[1]

    def would_evict(self, line):
        idx = self.index(line)
        if line in self.lines[idx] or self.free[idx]:
            return None
        return self.way_lists[idx][self.victim(idx)]

    def resident_lines(self):
        return [(line, entry[1]) for lines in self.lines
                for line, entry in lines.items()]

    def deep_items(self):
        return [(idx, tuple(sorted((line, way, int(state))
                                   for line, (way, state) in lines.items())))
                for idx, lines in enumerate(self.lines) if lines]

    def per_set_state(self):
        """The array's pickled state in the per-set form, as
        ``CacheArray.__setstate__`` receives it from an old capsule.
        LRU sets alternate between stamp and recency-list state."""
        policies = []
        for idx in range(self.num_sets):
            if self.repl == "lru":
                old = LRU.__new__(LRU)
                if idx % 2:
                    old.__dict__.update(ways=self.ways,
                                        _order=list(self.order[idx]))
                else:
                    stamp = [0] * self.ways
                    for pos, way in enumerate(self.order[idx]):
                        stamp[way] = 7 * idx + pos
                    old.__dict__.update(ways=self.ways, _stamp=stamp,
                                        _clock=7 * idx + self.ways)
            elif self.repl == "tree":
                old = TreePLRU.__new__(TreePLRU)
                old.__dict__.update(ways=self.ways,
                                    _bits=list(self.trees[idx]._bits[0]))
            else:
                old = RandomRepl.__new__(RandomRepl)
                rng = random.Random()
                rng.setstate(self.rngs[idx].getstate())
                old.__dict__.update(ways=self.ways, _rng=rng)
            policies.append(old)
        return {"num_sets": self.num_sets, "ways": self.ways,
                "hash_sets": self.index.__self__.hash_sets,
                "_lines": [dict(lines) for lines in self.lines],
                "_ways": [list(ways) for ways in self.way_lists],
                "_repl": policies}


def _deep_items(array):
    return list(array.integrity_items(deep=True))[1:]


def _assert_same(array, ref):
    assert array._free == ref.free
    assert list(array.resident_lines()) == ref.resident_lines()
    assert _deep_items(array) == ref.deep_items()
    assert array.occupancy() == sum(map(len, ref.lines))
    assert array.audit_invariants("a") == []


_OPS = st.lists(st.tuples(
    st.sampled_from(["fill"] * 3 + ["lookup"] * 2
                    + ["peek", "update", "inval", "evict"]),
    st.integers(0, 31),
    st.sampled_from([MESI.S, MESI.E, MESI.M])), min_size=30, max_size=150)


def _drive(array, ref, ops):
    for op, line, state in ops:
        present = ref.lookup(line, touch=False) is not None
        if op == "fill" and not present:
            assert array.fill(line, state) == ref.fill(line, state)
        elif op == "update" and present:
            array.update_state(line, state)
            ref.update_state(line, state)
        elif op in ("lookup", "peek"):
            touch = op == "lookup"
            assert array.lookup(line, touch) == ref.lookup(line, touch)
        elif op == "inval":
            assert array.invalidate(line) == ref.invalidate(line)
        elif op == "evict":
            assert array.would_evict(line) == ref.would_evict(line)


_GEOMETRY = [(1, 2), (4, 2), (5, 4), (8, 1)]


@pytest.mark.parametrize("repl", ["lru", "tree", "random"])
@pytest.mark.parametrize("hash_sets", [False, True])
@settings(max_examples=40, deadline=None)
@given(geometry=st.sampled_from(_GEOMETRY), ops=_OPS, more=_OPS)
def test_lazy_array_matches_eager_reference(repl, hash_sets, geometry,
                                            ops, more):
    """Lookups, victims, would_evict, free counts, resident order and
    deep digests all match the eager per-set model; so does an array
    restored from the per-set pickled form and driven on."""
    num_sets, ways = geometry
    array = CacheArray(num_sets, ways, repl=repl, seed=11,
                       hash_sets=hash_sets)
    ref = EagerArray(num_sets, ways, repl, 11, hash_sets)
    _drive(array, ref, ops)
    _assert_same(array, ref)

    restored = CacheArray.__new__(CacheArray)
    restored.__setstate__(ref.per_set_state())
    _assert_same(restored, ref)
    _drive(restored, ref, more)
    _assert_same(restored, ref)


class TestLazySets:
    def test_construction_makes_no_per_set_state(self):
        array = CacheArray(1 << 16, 16)
        assert array._lines == {} and array._sets == {}
        assert array._repl._stamps == {}
        array.fill(5, MESI.E)
        assert list(array._sets) == [5]
        assert list(array._repl._stamps) == [5]

    @pytest.mark.parametrize("hash_sets", [False, True])
    def test_resident_order_is_set_then_fill_order(self, hash_sets):
        array = CacheArray(8, 4, hash_sets=hash_sets)
        scrambled = random.Random(3).sample(range(200), 24)
        for line in scrambled:
            array.fill(line, MESI.E)
        array.invalidate(scrambled[5])
        want = sorted(((array.set_index(line), pos, line)
                       for pos, line in enumerate(scrambled)
                       if array.lookup(line, touch=False) is not None))
        assert [line for line, _ in array.resident_lines()] == \
            [line for _, _, line in want]
        digest = _deep_items(array)
        assert [idx for idx, _ in digest] == \
            sorted({idx for idx, _, _ in want})

    def test_audit_checks_every_sets_free_count(self):
        array = CacheArray(16, 2)
        array.fill(3, MESI.E)
        assert array.audit_invariants("c") == []
        array._free[11] -= 1      # a set that was never filled
        array._sets[3][0] = 99    # a stale way back-pointer
        assert array.audit_invariants("c") == [
            ("c", "set 3 way 0 holds 99 but the line map says 0x3"),
            ("c", "set 11 free-way count 1 != 2 ways - 0 resident")]

    @pytest.mark.parametrize("repl,ways", [("clock", 4), ("tree", 6)])
    def test_bad_policy_raises_at_construction(self, repl, ways):
        match = "Unknown replacement|power-of-two"
        with pytest.raises(ValueError, match=match):
            CacheArray(4, ways, repl=repl)
        cfg = small_test_system(num_cores=1)
        cfg.l2 = dataclasses.replace(cfg.l2, repl=repl, ways=ways,
                                     size_kb=ways * 4)
        with pytest.raises(ValueError, match=match):
            MemoryHierarchy(cfg)


def test_thousand_core_hierarchy_is_lazy_and_small():
    """The Table-3 1024-core chip builds with no per-set state and
    pickles small: a checkpoint of a fresh chip pays for the sets the
    run touched, not for the modelled capacity."""
    hier = MemoryHierarchy(tiled_chip(num_tiles=64))
    assert len(hier.l1d) == 1024
    for cache in hier.all_caches():
        array = cache.array
        assert array._lines == {} and array._sets == {}
        assert array._repl._stamps == {}
    assert len(pickle.dumps(hier, protocol=pickle.HIGHEST_PROTOCOL)) \
        < 8 * 2 ** 20

"""Set-associative cache array, fully decoupled from coherence logic.

The array stores MESI states for lines and answers lookup / fill /
invalidate, delegating victim choice to a replacement policy.  Shared
caches are banked at a level above this (one array per bank).

Sets are lazy.  The array keeps one array-wide ``line -> (way,
state)`` map, so a lookup is one dict read and the set index is only
computed when a hit touches replacement state.  A set's way list (and
its replacement metadata, see :mod:`repro.memory.replacement`) is made
on the set's first :meth:`CacheArray.fill`; the only eager per-set
structure is the free-way vector.  Construction therefore costs the
same for a 4 KB L1 and a 32 MB L3, and a run pays only for the sets it
touches.
"""

from __future__ import annotations

import zlib

from repro.memory.replacement import LRU, RandomRepl, TreePLRU, make_policy


class CacheArray:
    """One bank's worth of sets x ways."""

    def __init__(self, num_sets, ways, repl="lru", seed=0,
                 hash_sets=False):
        if num_sets < 1 or ways < 1:
            raise ValueError("Array needs at least one set and one way")
        self.num_sets = num_sets
        #: XOR-fold the upper address bits into the set index (zsim's
        #: hashed arrays): spreads pathological strides across sets.
        self.hash_sets = hash_sets
        self.ways = ways
        #: Resident line -> (way, state), across all sets.
        self._lines = {}
        #: Set index -> way list (way -> line or None), made on the
        #: set's first fill.
        self._sets = {}
        #: One policy object for the whole array.
        self._repl = make_policy(repl, ways, seed)
        #: Free ways per set: lets a steady-state fill() (full set) skip
        #: the way scan and go straight to the replacement policy.
        self._free = [ways] * num_sets

    def __setstate__(self, state):
        if isinstance(state.get("_lines"), list):
            state = _migrate_per_set_state(state)
        self.__dict__.update(state)

    def set_index(self, line):
        if self.hash_sets:
            line = line ^ (line // self.num_sets) \
                ^ (line // (self.num_sets * self.num_sets))
        return line % self.num_sets

    def lookup(self, line, touch=True):
        """Return the MESI state of ``line`` or None if not present."""
        entry = self._lines.get(line)
        if entry is None:
            return None
        if touch:
            self._repl.touch(self.set_index(line), entry[0])
        return entry[1]

    def update_state(self, line, state):
        """Change the state of a resident line."""
        self._lines[line] = (self._lines[line][0], state)

    def fill(self, line, state):
        """Insert ``line``; returns (victim_line, victim_state) if an
        eviction was needed, else (None, None).  The caller must handle
        the victim (writeback + inclusive invalidations) before relying on
        the fill."""
        lines = self._lines
        if line in lines:
            raise ValueError("fill() of already-present line 0x%x" % line)
        idx = self.set_index(line)
        repl = self._repl
        victim_line = victim_state = None
        if self._free[idx]:
            ways = self._sets.get(idx)
            if ways is None:
                ways = self._sets[idx] = [None] * self.ways
                repl.add_set(idx)
            # Lowest free way, matching the historical scan order.
            way = ways.index(None)
            self._free[idx] -= 1
        else:
            ways = self._sets[idx]
            way = repl.victim(idx)
            victim_line = ways[way]
            victim_state = lines.pop(victim_line)[1]
        ways[way] = line
        lines[line] = (way, state)
        repl.touch(idx, way)
        return victim_line, victim_state

    def invalidate(self, line):
        """Remove ``line``; returns its state, or None if absent."""
        entry = self._lines.pop(line, None)
        if entry is None:
            return None
        idx = self.set_index(line)
        self._sets[idx][entry[0]] = None
        self._free[idx] += 1
        return entry[1]

    def occupancy(self):
        """Total resident lines (for tests and stats)."""
        return len(self._lines)

    def _by_set(self):
        """Resident ``(line, way, state)`` triples grouped by set index;
        within a set the triples keep fill order (the line map's
        insertion order).  Sorting the items gives set order."""
        set_index = self.set_index
        groups = {}
        for line, (way, state) in self._lines.items():
            groups.setdefault(set_index(line), []).append((line, way, state))
        return groups

    def resident_lines(self):
        """All resident (line, state) pairs, in set order and fill order
        within a set (test/debug helper; fault injection corrupts the
        first one)."""
        for _idx, triples in sorted(self._by_set().items()):
            for line, _way, state in triples:
                yield line, state

    def integrity_items(self, deep=False):
        """Digest items for the integrity sentinel: geometry, occupancy
        and the free-way vector (cheap, O(sets)); ``deep`` adds the
        full tag+MESI contents, sorted per set so the digest is stable
        across pickle round-trips (see repro.resilience.integrity)."""
        # Occupancy is deliberately NOT summed here: the free-way
        # vector digest below already encodes per-set occupancy
        # exactly, and an O(sets) len() walk at every barrier blows
        # the sentinel's hotpath budget on large L3 arrays.
        free = self._free
        yield (self.num_sets, self.ways,
               zlib.crc32(bytes(free)) & 0xFFFFFFFF
               if self.ways < 256 else tuple(free))
        if deep:
            for idx, triples in sorted(self._by_set().items()):
                yield (idx, tuple(sorted(
                    (line, way, int(state))
                    for line, way, state in triples)))

    def audit_invariants(self, component):
        """Bookkeeping invariants the sentinel's auditor checks: the
        free-way count of every set matches its residency, and each
        resident line's way back-pointer agrees with the set's way
        list.  Returns ``(component, excerpt)`` violation pairs, in set
        order."""
        ways, free, sets = self.ways, self._free, self._sets
        resident = self._by_set()
        # Every set's expected free count, compared in one list ==;
        # only mismatched and resident sets are walked.
        expected = [ways] * len(free)
        for idx, triples in resident.items():
            expected[idx] -= len(triples)
        walk = set(resident)
        if expected != free:
            walk.update(idx for idx, (have, want)
                        in enumerate(zip(free, expected)) if have != want)
        violations = []
        for idx in sorted(walk):
            triples = resident.get(idx, ())
            if free[idx] != expected[idx]:
                violations.append(
                    (component,
                     "set %d free-way count %d != %d ways - %d resident"
                     % (idx, free[idx], ways, len(triples))))
            way_list = sets.get(idx)
            for line, way, _state in triples:
                held = way_list[way] if way_list is not None else None
                if held != line:
                    violations.append(
                        (component,
                         "set %d way %d holds %r but the line map says "
                         "0x%x" % (idx, way, held, line)))
                    break
        return violations

    def would_evict(self, line):
        """Line that filling ``line`` would evict right now, or None.

        Used by the interference profiler to detect eviction-driven
        path-altering interference without mutating the array (the
        random policy's per-set RNG does advance, as it always has).
        """
        if line in self._lines:
            return None
        idx = self.set_index(line)
        if self._free[idx]:
            return None
        return self._sets[idx][self._repl.victim(idx)]


def _migrate_per_set_state(state):
    """Convert a pickled array from the per-set form (``_lines`` and
    ``_ways`` lists with one entry per set, a list of per-set policy
    objects in ``_repl``, possibly no ``_free``) into the lazy form.

    Only sets holding lines keep a way list and LRU/TreePLRU metadata:
    a victim is only chosen from a full set, and every way of a set
    that is not holding a line is touched (filled) before the set is
    full again, so the dropped metadata could never be read.  Random
    RNGs carry their stream position across emptiness and are all
    kept.  LRU stamps are kept as they are and the array clock starts
    at the largest per-set clock, so every later touch outranks every
    migrated stamp."""
    state = dict(state)
    per_set_lines = state.pop("_lines")
    way_lists = state.pop("_ways")
    policies = state.pop("_repl")
    ways = state["ways"]
    if "_free" not in state:
        state["_free"] = [sum(way is None for way in way_list)
                          for way_list in way_lists]
    lines = {}
    sets = {}
    for idx, set_lines in enumerate(per_set_lines):
        if set_lines:
            lines.update(set_lines)
            sets[idx] = way_lists[idx]
    state["_lines"] = lines
    state["_sets"] = sets
    first = policies[0]
    if isinstance(first, LRU):
        repl = LRU(ways)
        clock = ways
        for idx, old in enumerate(policies):
            old = old.__dict__
            if "_order" in old:
                # Recency-list builds: positions are the relative stamps.
                stamp = [0] * ways
                for pos, way in enumerate(old["_order"]):
                    stamp[way] = pos
                old_clock = ways
            else:
                stamp, old_clock = old["_stamp"], old["_clock"]
            clock = max(clock, old_clock)
            if idx in sets:
                repl._stamps[idx] = stamp
        repl._clock = clock
    elif isinstance(first, TreePLRU):
        repl = TreePLRU(ways)
        for idx in sets:
            repl._bits[idx] = policies[idx].__dict__["_bits"]
    else:
        # Random: every set keeps its RNG, so the seed is never read.
        repl = RandomRepl(ways)
        repl._rngs = {idx: old.__dict__["_rng"]
                      for idx, old in enumerate(policies)}
    state["_repl"] = repl
    return state

"""Cache replacement policies.

Each cache array owns one policy object covering all of its sets; a
set's metadata is addressed by set index (``touch(idx, way)``,
``victim(idx)``) and is made lazily: :meth:`ReplacementPolicy.add_set`
runs on the set's first fill, so a chip's start-up cost follows the
sets a run touches, not the modelled capacity.  Policies stay fully
decoupled from the associative array (the paper stresses that zsim's
cache models keep array, replacement, and coherence separate for
modularity).

``victim(idx)`` is only asked of a full set (or, in tests, of a set
made by ``add_set``).
"""

from __future__ import annotations

import random


class ReplacementPolicy:
    """Interface: one array's policy over sets of ``ways`` ways."""

    def __init__(self, ways):
        self.ways = ways

    def add_set(self, idx):
        """Make set ``idx``'s metadata (called on its first fill)."""

    def touch(self, idx, way):
        """Record a hit/fill on ``way`` of set ``idx``."""
        raise NotImplementedError

    def victim(self, idx):
        """Pick the way of set ``idx`` to evict (the set is full)."""
        raise NotImplementedError


class LRU(ReplacementPolicy):
    """True least-recently-used, as per-way recency stamps.

    A touch writes one stamp from a single array-wide clock (O(1)); the
    victim is the way with the smallest stamp, the lowest such way on
    a tie.  A new set starts with all stamps 0 and the clock never
    reads 0, so an untouched way loses to every touched one and the
    lowest untouched way goes first, exactly as in a recency list
    that starts ``0..ways-1``.  Touched stamps are distinct and
    ordered by touch, so the victim sequence is the per-set
    recency-list one: the clock ticking for other sets only widens the
    gaps between a set's stamps.
    """

    def __init__(self, ways):
        super().__init__(ways)
        self._stamps = {}
        self._clock = ways

    def add_set(self, idx):
        self._stamps[idx] = [0] * self.ways

    def touch(self, idx, way):
        self._stamps[idx][way] = self._clock
        self._clock += 1

    def victim(self, idx):
        stamp = self._stamps[idx]
        return stamp.index(min(stamp))


class TreePLRU(ReplacementPolicy):
    """Tree pseudo-LRU, the common hardware approximation.

    Ways must be a power of two; each set keeps a binary tree of
    direction bits.
    """

    def __init__(self, ways):
        if ways & (ways - 1):
            raise ValueError("TreePLRU requires power-of-two ways")
        super().__init__(ways)
        self._bits = {}

    def add_set(self, idx):
        self._bits[idx] = [0] * max(1, self.ways - 1)

    def touch(self, idx, way):
        # Walk from root to the leaf for `way`, pointing bits away from it.
        bits = self._bits[idx]
        node = 0
        lo, hi = 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                bits[node] = 1  # point at the right half
                node = 2 * node + 1
                hi = mid
            else:
                bits[node] = 0  # point at the left half
                node = 2 * node + 2
                lo = mid

    def victim(self, idx):
        bits = self._bits[idx]
        node = 0
        lo, hi = 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bits[node] == 0:
                node = 2 * node + 1
                hi = mid
            else:
                node = 2 * node + 2
                lo = mid
        return lo


class RandomRepl(ReplacementPolicy):
    """Random replacement with a deterministic per-set RNG.

    Set ``idx`` draws from ``Random(seed + idx)``, made at its first
    ``victim()`` call.
    """

    def __init__(self, ways, seed=0):
        super().__init__(ways)
        self.seed = seed
        self._rngs = {}

    def touch(self, idx, way):
        return None

    def victim(self, idx):
        rng = self._rngs.get(idx)
        if rng is None:
            rng = self._rngs[idx] = random.Random(self.seed + idx)
        return rng.randrange(self.ways)


_POLICIES = {"lru": LRU, "tree": TreePLRU, "random": RandomRepl}


def make_policy(name, ways, seed=0):
    """Instantiate an array's replacement policy by config name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError("Unknown replacement policy: %r" % (name,))
    if cls is RandomRepl:
        return cls(ways, seed)
    return cls(ways)

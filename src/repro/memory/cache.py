"""Coherent cache models: MESI, inclusive, with in-cache directories.

Mirrors zsim's cache design (Section 3.2.1): each cache composes a fully
decoupled associative array, replacement policy, and coherence controller,
plus an optional weave timing model.  Accesses travel *up* the hierarchy
(fetches, writebacks) and *down* (invalidations, downgrades); coherence is
maintained in the order accesses are simulated in the bound phase, which
is inaccurate only for same-line races — exactly the rare path-altering
interference the bound-weave algorithm tolerates.

Shared caches are banked: each bank is its own :class:`Cache` instance;
all banks of a level share one children list so child identities are
stable across banks.

Every access that misses the L1 fast path (``MemoryHierarchy.access``)
takes one walk, the recursion in this module: :meth:`Cache.handle_access`
-> :meth:`Cache._fetch_and_fill` -> the parent's ``handle_access`` (ending
at :meth:`MainMemory.handle_access`), then :meth:`Cache._grant_to_child`
and :meth:`Cache._evict` on the way back.  Prefetch fills and subtree
coherence (invalidations, downgrades) use the same methods.

The walk runs on integers: every cache carries a stable ``child_id`` —
its index in its parent level's shared children list — and directories
store **bitmasks over child indices** instead of sets of cache objects.
Sharer updates are single OR/AND-NOT int ops, owner lookups are
dict-of-int reads, and invalidation/downgrade fan-out iterates set bits.
Routing is precomputed: each cache's parent table (``_parent_banks`` /
``_parent_net`` / ``_parent_hashed``) is installed by the hierarchy
builder, with the per-line bank arithmetic inlined in
:meth:`Cache._fetch_and_fill`, and main memory keeps its controller
tables (``_ctrl_tiles`` / ``_net_to_ctrl``).  Nothing unpickleable is
installed (a :meth:`Cache.parent_select` method remains for
introspection).
"""

from __future__ import annotations

from repro.memory.access import StepKind
from repro.memory.cache_array import CacheArray
from repro.memory.coherence import MESI

_MESI_S = MESI.S
_MESI_E = MESI.E
_MESI_M = MESI.M

_HASH_MULT = 0x9E3779B1


class Cache:
    """One coherent cache (a private cache or one bank of a shared one)."""

    def __init__(self, name, level, num_sets, ways, latency, repl="lru",
                 tile=0, seed=0, hash_sets=False):
        self.name = name
        self.level = level            # "l1i" | "l1d" | "l2" | "l3"
        self.latency = latency
        self.tile = tile
        self.array = CacheArray(num_sets, ways, repl=repl, seed=seed,
                                hash_sets=hash_sets)
        #: Wired by the hierarchy builder:
        self.children = []            # caches below (empty for L1s)
        self.child_id = 0             # index in the parent's children list
        self.down_latency = 0         # cost of inv/downgrade round trip
        self.weave = None             # weave component, shared caches only
        self.noc_routes = None        # (src,dst) -> NoC weave component
        # Routing table (replaces the old parent_select closure): the
        # candidate parent banks, the per-bank zero-load net latency,
        # and whether the line is hashed across banks.  Dropped from
        # pickles (parent references point *up* the hierarchy) and
        # reinstalled by MemoryHierarchy._rewire_parents.
        self._parent_banks = None     # tuple of parent objects
        self._parent_net = None       # tuple of ints, same order
        self._parent_hashed = False
        # In-cache directory over children (bitmasks of child indices).
        self._sharers = {}            # line -> int bitmask of child ids
        self._owner = {}              # line -> child id holding E/M
        # Stats (plain attributes: these are hot counters).
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0           # dirty evictions sent to parent
        self.invalidations = 0        # lines invalidated from above
        self.downgrades = 0
        self.upgrades = 0             # S->E transitions requested
        self.prefetch_fills = 0
        #: Host-side odometer: bitmask directory reads/updates (one per
        #: grant / upgrade / eviction bookkeeping op).  Surfaced under
        #: stats()["host"]["dbt"]["dir_bitmask_ops"]; never digested.
        self.dir_ops = 0

    def __getstate__(self):
        """The routing table points *up* the hierarchy; shipping it
        would put reference cycles in every capsule.  It is dropped
        here and re-created by ``MemoryHierarchy.__setstate__``
        (checkpoint support), exactly like the closures it replaced."""
        state = self.__dict__.copy()
        state["_parent_banks"] = None
        state["_parent_net"] = None
        state.pop("parent_select", None)  # legacy instance attribute
        return state

    def __setstate__(self, state):
        """Restore, migrating legacy capsules (ISSUE 10): checkpoints
        written before the bitmask directories hold ``_sharers`` as
        line -> set-of-child-Cache and ``_owner`` as line -> Cache;
        both convert to child-index form via the pickled children list
        (the same order the ids are assigned from)."""
        state.pop("parent_select", None)  # pre-table capsules store None
        self.__dict__.update(state)
        d = self.__dict__
        d.setdefault("child_id", 0)
        d.setdefault("dir_ops", 0)
        d.setdefault("_parent_banks", None)
        d.setdefault("_parent_net", None)
        d.setdefault("_parent_hashed", False)
        sharers = self._sharers
        if any(not isinstance(mask, int) for mask in sharers.values()):
            index = {id(child): i for i, child in enumerate(self.children)}
            self._sharers = {
                line: sum(1 << index[id(child)] for child in members)
                for line, members in sharers.items()}
            self._owner = {line: index[id(owner)]
                           for line, owner in self._owner.items()}

    # ------------------------------------------------------------------
    # Requests from below (the "up" path)
    # ------------------------------------------------------------------

    def parent_select(self, line):
        """Route ``line`` to its parent: returns ``(parent, net_latency)``.

        Introspection-friendly wrapper over the routing table; the miss
        path in :meth:`_fetch_and_fill` inlines the same arithmetic."""
        banks = self._parent_banks
        if banks is None:
            return None, 0
        if len(banks) == 1:
            return banks[0], self._parent_net[0]
        key = ((line * _HASH_MULT) & 0xFFFFFFFF) >> 8 \
            if self._parent_hashed else line
        idx = key % len(banks)
        return banks[idx], self._parent_net[idx]

    def handle_access(self, line, write, requester, ctx):
        """Serve a GETS/GETX from ``requester`` (a child cache, or None
        when this is an L1 being accessed by a core).  Returns the MESI
        state granted to the requester."""
        self.accesses += 1
        arrival = ctx.latency
        ctx.latency = arrival + self.latency
        array = self.array
        lines = array._lines
        entry = lines.get(line)
        if entry is None:
            self.misses += 1
            ctx.missed_levels.append(self.level)
            if self.weave is not None:
                ctx.steps.append((self.weave, arrival, StepKind.MISS))
            state = self._fetch_and_fill(line, write, ctx)
        else:
            array._repl.touch(line % array.num_sets if not array.hash_sets
                              else array.set_index(line), entry[0])
            state = entry[1]
            self.hits += 1
            if ctx.hit_level is None:
                ctx.hit_level = self.level
            if self.weave is not None:
                ctx.steps.append((self.weave, arrival, StepKind.HIT))
            if write and state == _MESI_S:
                # Upgrade: gain exclusivity from the parent level.
                self.upgrades += 1
                parent, net = self.parent_select(line)
                ctx.latency += net
                parent.acquire_exclusive(line, self, ctx)
                state = _MESI_E
                lines[line] = (entry[0], state)
        if self.children:
            return self._grant_to_child(line, write, requester, state, ctx)
        # Leaf (L1): apply the access to our own copy.
        if write:
            state = _MESI_M
            lines[line] = (lines[line][0], state)
        return state

    def _fetch_and_fill(self, line, write, ctx):
        """Miss path: fetch from parent, fill, handle the victim."""
        banks = self._parent_banks
        if len(banks) == 1:
            parent = banks[0]
            net = self._parent_net[0]
        else:
            key = ((line * _HASH_MULT) & 0xFFFFFFFF) >> 8 \
                if self._parent_hashed else line
            bank = key % len(banks)
            parent = banks[bank]
            net = self._parent_net[bank]
        if self.noc_routes is not None:
            route = self.noc_routes.get(
                (self.tile, getattr(parent, "tile", self.tile)))
            if route is not None:
                ctx.steps.append((route, ctx.latency, StepKind.NOC))
        ctx.latency += net
        granted = parent.handle_access(line, write, self, ctx)
        victim, vstate = self.array.fill(line, granted)
        if victim is not None:
            self._evict(victim, vstate, ctx)
        return granted

    def prefetch_fill(self, line, ctx):
        """Bring ``line`` into this cache without a requesting child
        (hardware prefetch).  No directory entry is created — the first
        demand access installs sharers as usual.  Returns True if a fill
        happened (False on a prefetch hit)."""
        if self.array.lookup(line, touch=False) is not None:
            return False
        self.prefetch_fills += 1
        self._fetch_and_fill(line, False, ctx)
        return True

    def acquire_exclusive(self, line, requester, ctx):
        """Upgrade request from ``requester``: invalidate every other copy
        below this level and ensure this level itself is exclusive."""
        rid = requester.child_id
        self.dir_ops += 1
        dirty = False
        others = self._sharers.get(line, 0) & ~(1 << rid)
        if others:
            children = self.children
            down = self.down_latency
            while others:
                low = others & -others
                others ^= low
                dirty |= children[low.bit_length() - 1] \
                    .invalidate_subtree(line, ctx)
                ctx.latency += down
                ctx.invalidations += 1
        state = self.array.lookup(line, touch=False)
        if state == _MESI_S:
            parent, net = self.parent_select(line)
            ctx.latency += net
            parent.acquire_exclusive(line, self, ctx)
            state = _MESI_E
        if dirty and state == _MESI_E:
            state = _MESI_M
        if state is not None:
            self.array.update_state(line, state)
        self._sharers[line] = 1 << rid
        self._owner[line] = rid

    def child_evicted(self, line, child, dirty, ctx):
        """A child evicted its copy (writeback if dirty)."""
        self.dir_ops += 1
        sharers = self._sharers
        mask = sharers.get(line)
        if mask is not None:
            mask &= ~(1 << child.child_id)
            if mask:
                sharers[line] = mask
            else:
                del sharers[line]
        if self._owner.get(line) == child.child_id:
            del self._owner[line]
        if dirty:
            # Dirty data lands in this cache; inclusion guarantees the
            # line is resident.
            state = self.array.lookup(line, touch=False)
            if state is not None:
                self.array.update_state(line, _MESI_M)

    # ------------------------------------------------------------------
    # Coherence actions from above (the "down" path)
    # ------------------------------------------------------------------

    def invalidate_subtree(self, line, ctx=None):
        """Invalidate this cache's copy and every copy below.  Returns
        True if any invalidated copy was dirty."""
        dirty = False
        mask = self._clear_directory(line)
        if mask:
            children = self.children
            while mask:
                low = mask & -mask
                mask ^= low
                dirty |= children[low.bit_length() - 1] \
                    .invalidate_subtree(line, ctx)
        state = self.array.invalidate(line)
        if state is not None:
            self.invalidations += 1
            dirty |= state == _MESI_M
        return dirty

    def downgrade_subtree(self, line, ctx=None):
        """Downgrade this cache's copy (and the owning subtree) to S.
        Returns True if dirty data was flushed."""
        dirty = False
        owner = self._owner.pop(line, None)
        if owner is not None:
            dirty |= self.children[owner].downgrade_subtree(line, ctx)
        state = self.array.lookup(line, touch=False)
        if state is not None and state != _MESI_S:
            self.downgrades += 1
            dirty |= state == _MESI_M
            self.array.update_state(line, _MESI_S)
        return dirty

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _grant_to_child(self, line, write, requester, own_state, ctx):
        """Directory bookkeeping: decide the child's granted state and
        invalidate/downgrade other children as needed."""
        rid = requester.child_id
        rbit = 1 << rid
        sharers = self._sharers
        mask = sharers.get(line, 0)
        self.dir_ops += 1
        if write:
            dirty = False
            others = mask & ~rbit
            if others:
                children = self.children
                down = self.down_latency
                while others:
                    low = others & -others
                    others ^= low
                    dirty |= children[low.bit_length() - 1] \
                        .invalidate_subtree(line, ctx)
                    ctx.latency += down
                    ctx.invalidations += 1
            sharers[line] = rbit
            self._owner[line] = rid
            if dirty:
                self.array.update_state(line, _MESI_M)
            return _MESI_E
        owner = self._owner.get(line)
        if owner is not None and owner != rid:
            dirty = self.children[owner].downgrade_subtree(line, ctx)
            ctx.latency += self.down_latency
            del self._owner[line]
            if dirty:
                self.array.update_state(line, _MESI_M)
                own_state = _MESI_M
        mask |= rbit
        sharers[line] = mask
        if mask == rbit and own_state >= _MESI_E:
            self._owner[line] = rid
            return _MESI_E
        return _MESI_S

    def _evict(self, line, state, ctx):
        """Evict ``line`` (inclusive: purge the subtree below first)."""
        self.evictions += 1
        if ctx is not None and self.children:
            # Shared-cache victims feed the interference profiler's
            # eviction-driven path-altering class (Figure 2).
            ctx.shared_evictions += (line,)
        dirty = state == _MESI_M
        mask = self._clear_directory(line)
        if mask:
            children = self.children
            while mask:
                low = mask & -mask
                mask ^= low
                dirty |= children[low.bit_length() - 1] \
                    .invalidate_subtree(line, ctx)
        parent, _net = self.parent_select(line)
        parent.child_evicted(line, self, dirty, ctx)
        if dirty:
            self.writebacks += 1

    def _clear_directory(self, line):
        """Drop all directory state for ``line``; returns the prior
        sharer bitmask."""
        self._owner.pop(line, None)
        return self._sharers.pop(line, 0)

    # ------------------------------------------------------------------
    # Introspection (tests, stats)
    # ------------------------------------------------------------------

    def line_state(self, line):
        """MESI state of ``line`` here (MESI.I if absent); no LRU touch."""
        state = self.array.lookup(line, touch=False)
        return MESI.I if state is None else state

    def sharers_of(self, line):
        """Sharing children of ``line`` as a set of cache objects
        (bitmask decoded; introspection only)."""
        mask = self._sharers.get(line, 0)
        children = self.children
        members = set()
        while mask:
            low = mask & -mask
            mask ^= low
            members.add(children[low.bit_length() - 1])
        return members

    def owner_of(self, line):
        """Owning child of ``line`` (the one granted E/M), or None."""
        owner = self._owner.get(line)
        return None if owner is None else self.children[owner]

    def integrity_items(self, deep=False):
        """Digest items for the integrity sentinel: name, hot counters,
        directory sizes, and the array summary; ``deep`` adds the full
        directory contents (children named, never repr'd — object reprs
        would leak host addresses into the digest).  The named form also
        keeps deep digests identical across the bitmask migration:
        a converted legacy capsule digests to the same values."""
        yield self.name
        yield (self.accesses, self.hits, self.misses, self.evictions,
               self.writebacks, self.invalidations, self.downgrades,
               self.upgrades, self.prefetch_fills)
        yield (len(self._sharers), len(self._owner))
        yield from self.array.integrity_items(deep=deep)
        if deep:
            yield tuple(sorted(
                (line, tuple(sorted(child.name for child in
                                    self.sharers_of(line))))
                for line in self._sharers))
            children = self.children
            yield tuple(sorted((line, children[owner].name)
                               for line, owner in self._owner.items()))

    def fill_stats(self, node):
        """Dump counters into a :class:`~repro.stats.StatsNode`."""
        node.set("accesses", self.accesses)
        node.set("hits", self.hits)
        node.set("misses", self.misses)
        node.set("evictions", self.evictions)
        node.set("writebacks", self.writebacks)
        node.set("invalidations", self.invalidations)
        node.set("downgrades", self.downgrades)
        node.set("upgrades", self.upgrades)
        node.set("prefetch_fills", self.prefetch_fills)

    def __repr__(self):
        return "Cache(%s)" % self.name


class MainMemory:
    """Terminal level: memory controllers with a directory over the top
    cache level.  The directory is only exercised when the top level is
    not a single shared cache (e.g., multiple per-tile L2s and no L3);
    like :class:`Cache` it is bitmask-over-children (``children`` holds
    every potential requester — the L3 banks, or the top private level
    when there is no L3)."""

    def __init__(self, config, network, num_tiles):
        self.config = config
        self.network = network
        self.num_tiles = num_tiles
        self.level = "mem"
        self.name = "mem"
        self.children = []
        self.down_latency = 0
        #: One weave component per controller, set by the hierarchy.
        self.ctrl_weaves = [None] * config.controllers
        self.noc_routes = None
        self._build_routing()
        self._sharers = {}            # line -> int bitmask of child ids
        self._owner = {}              # line -> child id
        self.reads = 0
        self.writebacks = 0
        self.dir_ops = 0

    def __setstate__(self, state):
        """Same legacy-capsule migration as :meth:`Cache.__setstate__`.
        Pre-bitmask capsules also ship ``children`` empty when there is
        no L3; ``MemoryHierarchy.__setstate__`` re-wires it before the
        conversion can be needed, so by the time a directory entry
        exists the children list covers every requester."""
        self.__dict__.update(state)
        self.__dict__.setdefault("dir_ops", 0)
        self._build_routing()
        self._migrate_directory()

    def _build_routing(self):
        """Precompute the controller tables :meth:`handle_access` reads:
        the tile of every controller and the zero-load network latency
        from every source tile to it.  Both are pure functions of the
        static topology, so a load rebuilds them (older capsules lack
        them)."""
        config = self.config
        self._num_ctrls = config.controllers
        self._zero_load = config.zero_load_latency
        self._ctrl_tiles = tuple(self.controller_tile(ctrl)
                                 for ctrl in range(config.controllers))
        self._net_to_ctrl = tuple(
            tuple(self.network.latency(src, tile)
                  for tile in self._ctrl_tiles)
            for src in range(self.num_tiles))

    def _migrate_directory(self):
        """Convert legacy set-of-objects directory entries to bitmask
        form (idempotent; called from __setstate__ and again by the
        hierarchy once the children list is rebuilt).  Conversion is
        deferred — entries left as sets — while the children list does
        not yet cover every tracked requester (pre-bitmask capsules
        ship ``children`` empty when there is no L3)."""
        sharers = self._sharers
        if all(isinstance(mask, int) for mask in sharers.values()):
            return
        index = {id(child): i for i, child in enumerate(self.children)}
        if any(id(member) not in index
               for members in sharers.values() for member in members):
            return
        self._sharers = {
            line: sum(1 << index[id(child)] for child in members)
            for line, members in sharers.items()}
        self._owner = {line: index[id(owner)]
                       for line, owner in self._owner.items()}

    def controller_of(self, line):
        return line % self.config.controllers

    def controller_tile(self, ctrl):
        if self.config.controllers >= self.num_tiles:
            return ctrl % self.num_tiles
        stride = self.num_tiles // self.config.controllers
        return (ctrl * stride) % self.num_tiles

    def handle_access(self, line, write, requester, ctx):
        self.reads += 1
        ctrl = line % self._num_ctrls
        src_tile = requester.tile
        if self.noc_routes is not None:
            ctrl_tile = self._ctrl_tiles[ctrl]
            if src_tile != ctrl_tile:
                route = self.noc_routes.get((src_tile, ctrl_tile))
                if route is not None:
                    ctx.steps.append((route, ctx.latency, StepKind.NOC))
        arrival = ctx.latency + self._net_to_ctrl[src_tile][ctrl]
        ctx.latency = arrival + self._zero_load
        weave = self.ctrl_weaves[ctrl]
        if weave is not None:
            ctx.steps.append((weave, arrival, StepKind.READ))
        # Directory over top-level caches (same policy as Cache).
        rid = requester.child_id
        rbit = 1 << rid
        sharers = self._sharers
        mask = sharers.get(line, 0)
        self.dir_ops += 1
        if write:
            others = mask & ~rbit
            if others:
                children = self.children
                while others:
                    low = others & -others
                    others ^= low
                    children[low.bit_length() - 1] \
                        .invalidate_subtree(line, ctx)
                    ctx.invalidations += 1
            sharers[line] = rbit
            self._owner[line] = rid
            return _MESI_E
        owner = self._owner.get(line)
        if owner is not None and owner != rid:
            self.children[owner].downgrade_subtree(line, ctx)
            del self._owner[line]
        mask |= rbit
        sharers[line] = mask
        if mask == rbit:
            self._owner[line] = rid
            return _MESI_E
        return _MESI_S

    def acquire_exclusive(self, line, requester, ctx):
        rid = requester.child_id
        self.dir_ops += 1
        others = self._sharers.get(line, 0) & ~(1 << rid)
        if others:
            children = self.children
            while others:
                low = others & -others
                others ^= low
                children[low.bit_length() - 1].invalidate_subtree(line, ctx)
                ctx.invalidations += 1
        self._sharers[line] = 1 << rid
        self._owner[line] = rid

    def child_evicted(self, line, child, dirty, ctx):
        self.dir_ops += 1
        sharers = self._sharers
        mask = sharers.get(line)
        if mask is not None:
            mask &= ~(1 << child.child_id)
            if mask:
                sharers[line] = mask
            else:
                del sharers[line]
        if self._owner.get(line) == child.child_id:
            del self._owner[line]
        if dirty:
            self.writebacks += 1
            if ctx is not None:
                ctx.add_wback(self.ctrl_weaves[line % self.config.controllers])

    def sharers_of(self, line):
        """Sharing top-level caches of ``line`` (introspection only)."""
        mask = self._sharers.get(line, 0)
        children = self.children
        members = set()
        while mask:
            low = mask & -mask
            mask ^= low
            members.add(children[low.bit_length() - 1])
        return members

    def integrity_items(self, deep=False):
        """Digest items for the integrity sentinel (same shape as
        :meth:`Cache.integrity_items`, minus the array)."""
        yield self.name
        yield (self.reads, self.writebacks)
        yield (len(self._sharers), len(self._owner))
        if deep:
            yield tuple(sorted(
                (line, tuple(sorted(child.name for child in
                                    self.sharers_of(line))))
                for line in self._sharers))
            children = self.children
            yield tuple(sorted((line, children[owner].name)
                               for line, owner in self._owner.items()))

    def fill_stats(self, node):
        node.set("reads", self.reads)
        node.set("writebacks", self.writebacks)

    def __repr__(self):
        return "MainMemory(%d controllers)" % self.config.controllers

"""Memory hierarchy builder: wires cores, caches, NoC, and controllers.

Builds the arbitrarily configurable hierarchies the paper supports from a
:class:`~repro.config.SystemConfig`: per-core split L1s, an optional
private-per-core or shared-per-tile L2, a banked fully-shared inclusive
L3, a zero-load NoC, and per-tile memory controllers.  Shared levels get
weave timing models; private levels are bound-phase only (contention in
private levels is predominantly due to the core itself, Section 3.2.1).
"""

from __future__ import annotations

from repro.memory.access import AccessContext, AccessResult
from repro.memory.cache import Cache, MainMemory
from repro.memory.coherence import MESI
from repro.memory.network import Network
from repro.memory.replacement import LRU as _LRU
from repro.memory.weave import CacheBankWeave, MemCtrlWeave
from repro.obs.histogram import Log2Histogram

_HASH_MULT = 0x9E3779B1

_MESI_E = MESI.E
_MESI_M = MESI.M

#: Attributes of older builds' capsules that no longer exist; dropped
#: on load.
_RETIRED_ATTRS = ("enable_flat_walk", "enable_l2_fastpath", "_walk_caches",
                  "_walk_idx", "l2_fastpath_hits")

#: Upper bound on pooled AccessResults; beyond this, recycled results are
#: simply dropped to the GC (an interval with a pathological miss storm
#: must not pin memory forever).
_RESULT_POOL_CAP = 4096


def hash_line(line):
    """Cheap address hash used to spread lines across banks (Table 2's
    "hashed" shared L3)."""
    return ((line * _HASH_MULT) & 0xFFFFFFFF) >> 8


class MemoryHierarchy:
    """The full memory system for one simulated chip."""

    def __init__(self, config, build_weave=True, profiler=None,
                 telemetry=None):
        config.validate()
        self.config = config
        self.profiler = profiler
        #: Zero-load latency distribution of every access (log-2
        #: buckets); always on — recording is one list increment — and
        #: dumped as the ``access_latency`` histogram in fill_stats.
        self.access_latency = Log2Histogram("access_latency")
        self._metrics_latency = None
        self.attach_telemetry(telemetry)
        self.line_bits = config.l1d.line_bytes.bit_length() - 1
        num_tiles = config.num_tiles
        num_cores = config.num_cores
        self.network = Network(config.network, num_tiles)
        self.mainmem = MainMemory(config.memory, self.network, num_tiles)
        self.weave_components = []

        # Optional weave-phase NoC (the paper's future work, see
        # repro.memory.noc_weave): one route component per tile pair.
        self.noc_fabric = None
        self.noc_routes = None
        if build_weave and config.network.weave_model \
                and config.network.topology != "ideal" and num_tiles > 1:
            from repro.memory.noc_weave import NocFabric, NocRouteWeave
            self.noc_fabric = NocFabric(self.network, num_tiles,
                                        config.network.link_occupancy)
            self.noc_routes = {}
            for src in range(num_tiles):
                for dst in range(num_tiles):
                    if src != dst:
                        route = NocRouteWeave(self.noc_fabric, src, dst)
                        self.noc_routes[(src, dst)] = route
                        self.weave_components.append(route)
            self.mainmem.noc_routes = self.noc_routes

        if build_weave:
            for ctrl in range(config.memory.controllers):
                weave = MemCtrlWeave("memctrl%d" % ctrl, config.memory,
                                     config.core.freq_mhz,
                                     tile=self.mainmem.controller_tile(ctrl))
                self.mainmem.ctrl_weaves[ctrl] = weave
                self.weave_components.append(weave)

        # --- L3: banked, fully shared, inclusive ----------------------
        self.l3_banks = []
        if config.l3 is not None:
            l3 = config.l3
            for bank in range(l3.banks):
                cache = Cache("l3b%d" % bank, "l3", l3.num_sets, l3.ways,
                              l3.latency, repl=l3.repl,
                              tile=bank % num_tiles, seed=bank,
                              hash_sets=l3.hash_sets)
                cache.down_latency = (self.network.round_trip(0, 0)
                                      + config.l1d.latency)
                if build_weave:
                    weave = CacheBankWeave(
                        cache.name, l3.latency, ports=l3.ports,
                        mshrs=l3.mshrs,
                        miss_hold_cycles=config.memory.zero_load_latency,
                        tile=cache.tile)
                    cache.weave = weave
                    self.weave_components.append(weave)
                self.l3_banks.append(cache)

        # --- L2: private per core, or shared per tile -----------------
        self.l2s = []
        if config.l2 is not None:
            l2 = config.l2
            count = num_tiles if config.l2_shared_per_tile else num_cores
            for idx in range(count):
                tile = idx if config.l2_shared_per_tile \
                    else config.core_tile(idx)
                cache = Cache("l2-%d" % idx, "l2", l2.num_sets, l2.ways,
                              l2.latency, repl=l2.repl, tile=tile,
                              seed=1000 + idx, hash_sets=l2.hash_sets)
                cache.down_latency = config.l1d.latency
                cache.noc_routes = self.noc_routes
                if build_weave and config.l2_shared_per_tile:
                    weave = CacheBankWeave(
                        cache.name, l2.latency, ports=l2.ports,
                        mshrs=l2.mshrs,
                        miss_hold_cycles=config.memory.zero_load_latency,
                        tile=tile)
                    cache.weave = weave
                    self.weave_components.append(weave)
                self.l2s.append(cache)

        # --- L1s: per core, split I/D ---------------------------------
        # --- L2 stride prefetchers (one per core) ----------------------
        self.prefetchers = []
        if config.l2 is not None and config.l2.prefetch_degree > 0:
            from repro.memory.prefetcher import StridePrefetcher
            self.prefetchers = [
                StridePrefetcher(config.l2.prefetch_degree)
                for _ in range(num_cores)]

        self.l1i = []
        self.l1d = []
        for core in range(num_cores):
            tile = config.core_tile(core)
            for level, cfg, caches in (("l1i", config.l1i, self.l1i),
                                       ("l1d", config.l1d, self.l1d)):
                cache = Cache("%s-%d" % (level, core), level, cfg.num_sets,
                              cfg.ways, cfg.latency, repl=cfg.repl,
                              tile=tile, seed=2000 + core,
                              hash_sets=cfg.hash_sets)
                if config.l2 is None:
                    cache.noc_routes = self.noc_routes
                caches.append(cache)

        self._wire_children()
        self._rewire_parents()

        # --- Data-plane slabs and the L1-hit fast path ----------------
        #: Tests may clear this to force every access down the full
        #: coherence walk (used to prove fast-path equivalence).  The
        #: fast path is only legal while L1s carry no weave component,
        #: which the builder guarantees (private levels are bound-phase
        #: only); recomputed here in case a config ever changes that.
        self.enable_fastpath = all(
            c.weave is None for c in self.l1i + self.l1d)
        self._ctx_pool = []
        self._result_pool = []
        self.fastpath_hits = 0
        self.slow_accesses = 0
        self.ctx_reuses = 0
        self.result_reuses = 0

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------

    def _route_to_l3_or_mem(self, cache):
        """Routing-table triple for a cache whose parent level is the
        L3 (banked, per-bank net latency precomputed) or, absent an L3,
        main memory (which adds its own network latency)."""
        if not self.l3_banks:
            return (self.mainmem,), (0,), False
        banks = tuple(self.l3_banks)
        net = tuple(self.network.latency(cache.tile, bank.tile)
                    for bank in banks)
        return banks, net, self.config.l3.hash_banks

    def _rewire_parents(self):
        """(Re)install the parent routing tables on every cache.

        The tables hold references *up* the hierarchy (banks, main
        memory); ``Cache.__getstate__`` drops them to keep capsules
        cycle-free and :meth:`__setstate__` re-runs this pass after a
        checkpoint load.  Idempotent by construction.  This replaced
        the per-cache ``parent_select`` closures: the per-line bank
        arithmetic (hash mult + mask included) is inlined at the walk's
        call sites, and nothing unpickleable is installed anywhere.
        Main memory's controller tables hold no such references;
        ``MainMemory`` builds them itself."""
        for cache in self.l3_banks:
            cache._parent_banks = (self.mainmem,)
            cache._parent_net = (0,)
            cache._parent_hashed = False
        for cache in self.l2s:
            (cache._parent_banks, cache._parent_net,
             cache._parent_hashed) = self._route_to_l3_or_mem(cache)
        for core in range(self.config.num_cores):
            for cache in (self.l1i[core], self.l1d[core]):
                if self.l2s:
                    if self.config.l2_shared_per_tile:
                        parent = self.l2s[self.config.core_tile(core)]
                    else:
                        parent = self.l2s[core]
                    cache._parent_banks = (parent,)
                    cache._parent_net = (0,)
                    cache._parent_hashed = False
                else:
                    (cache._parent_banks, cache._parent_net,
                     cache._parent_hashed) = self._route_to_l3_or_mem(cache)

    def __getstate__(self):
        """Telemetry and the profiler are host-side observers, never
        simulated state; the routing closures are rebuilt on load.  The
        recycling slabs hold only dead scratch objects, so checkpoints
        ship them empty."""
        state = self.__dict__.copy()
        state["_telem"] = None
        state["_metrics_latency"] = None
        state["profiler"] = None
        state["_ctx_pool"] = []
        state["_result_pool"] = []
        return state

    def __setstate__(self, state):
        # Capsules from builds with the retired L2-hit fast path and
        # flattened walk carry their switches, scratch and counter.
        for attr in _RETIRED_ATTRS:
            state.pop(attr, None)
        self.__dict__.update(state)
        # Checkpoints written by builds without the data-plane slabs
        # lack these attributes; default them rather than crash.
        d = self.__dict__
        d.setdefault("enable_fastpath", all(
            c.weave is None for c in self.l1i + self.l1d))
        d.setdefault("_ctx_pool", [])
        d.setdefault("_result_pool", [])
        d.setdefault("fastpath_hits", 0)
        d.setdefault("slow_accesses", 0)
        d.setdefault("ctx_reuses", 0)
        d.setdefault("result_reuses", 0)
        # Legacy capsules (pre-bitmask directories) ship main memory's
        # children empty when there is no L3; rebuild the requester
        # list in _wire_children order, restamp child ids, and finish
        # any directory conversion Cache.__setstate__ had to defer.
        if not self.l3_banks and not self.mainmem.children:
            self.mainmem.children.extend(
                self.l2s if self.l2s else self.l1i + self.l1d)
        self._assign_child_ids()
        self.mainmem._migrate_directory()
        self._rewire_parents()

    def _wire_children(self):
        """Populate children lists so directories know their subtrees.

        ``MainMemory.children`` holds every potential requester — the
        L3 banks, or the whole top cache level when there is no L3 —
        so its bitmask directory always has a child index to grant to.
        Child ids are assigned from these lists by
        :meth:`_assign_child_ids`; all banks of a level share one
        children order, so ids are stable across banks."""
        for cache in self.l3_banks:
            self.mainmem.children.append(cache)
        if self.l2s:
            for core in range(self.config.num_cores):
                if self.config.l2_shared_per_tile:
                    parent = self.l2s[self.config.core_tile(core)]
                else:
                    parent = self.l2s[core]
                parent.children.append(self.l1i[core])
                parent.children.append(self.l1d[core])
            uppers = self.l2s
        else:
            uppers = self.l1i + self.l1d
        if self.l3_banks:
            for upper in uppers:
                for cache in self.l3_banks:
                    cache.children.append(upper)
        else:
            self.mainmem.children.extend(uppers)
        self._assign_child_ids()

    def _assign_child_ids(self):
        """Stamp every cache's ``child_id`` — its index in its parent
        level's children list.  Each cache has exactly one parent
        level, and banks of a level share one children order, so the
        assignment is unambiguous and idempotent."""
        for parent in ([self.mainmem] + self.l3_banks + self.l2s):
            for idx, child in enumerate(parent.children):
                child.child_id = idx

    # ------------------------------------------------------------------
    # Access entry points (bound phase)
    # ------------------------------------------------------------------

    def line_of(self, addr):
        return addr >> self.line_bits

    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        """One core access; returns an :class:`AccessResult` whose latency
        is the zero-load bound and whose steps feed the weave phase.

        The dominant case — a private-L1 hit with no coherence side
        effects — is served by a fast path that allocates no
        :class:`AccessContext` at all: it peeks the array, touches the
        replacement state once (exactly like the slow path's single
        ``lookup``), bumps the same counters, and fills a slab-recycled
        result.  A write hit needs the line in E or M; a write hit in S
        requires an upgrade and falls through to the coherence walk.

        Every other access takes the one coherence walk,
        ``Cache.handle_access`` on the L1 (see :mod:`repro.memory.cache`)."""
        line = addr >> self.line_bits
        l1 = self.l1i[core_id] if ifetch else self.l1d[core_id]
        if self.enable_fastpath:
            array = l1.array
            entry = array._lines.get(line)
            if entry is not None and (not write or entry[1] >= _MESI_E):
                way = entry[0]
                # Private L1 arrays are unhashed in every shipped
                # config; inline that set-index case.
                idx = (line % array.num_sets if not array.hash_sets
                       else array.set_index(line))
                repl = array._repl
                if type(repl) is _LRU:
                    # LRU.touch, inlined (one stamp store).
                    repl._stamps[idx][way] = repl._clock
                    repl._clock += 1
                else:
                    repl.touch(idx, way)
                l1.accesses += 1
                l1.hits += 1
                if write:
                    array._lines[line] = (way, _MESI_M)
                self.fastpath_hits += 1
                pool = self._result_pool
                if pool:
                    result = pool.pop()
                    self.result_reuses += 1
                else:
                    result = AccessResult.__new__(AccessResult)
                latency = l1.latency
                result.latency = latency
                result.missed_levels = ()
                result.hit_level = l1.level
                result.steps = ()
                result.wbacks = ()
                result.line = line
                result.write = write
                result.core_id = core_id
                result.invalidations = 0
                result.shared_evictions = ()
                # Log2Histogram.record, inlined (latency is a
                # non-negative int, so the guards drop out).
                hist = self.access_latency
                b = latency.bit_length()
                hist._counts[b if b < 64 else 63] += 1
                hist.count += 1
                hist.total += latency
                if hist.min is None or latency < hist.min:
                    hist.min = latency
                if hist.max is None or latency > hist.max:
                    hist.max = latency
                if self._metrics_latency is not None:
                    self._metrics_latency.record(latency)
                if self.profiler is not None:
                    self.profiler.record(result, cycle)
                return result
        self.slow_accesses += 1
        ctx_pool = self._ctx_pool
        if ctx_pool:
            ctx = ctx_pool.pop()
            ctx.reset(core_id, line, write, ifetch)
            self.ctx_reuses += 1
        else:
            ctx = AccessContext(core_id, line, write, ifetch)
        l1.handle_access(line, write, None, ctx)
        if (self.prefetchers and not ifetch
                and "l1d" in ctx.missed_levels):
            self._prefetch(core_id, line, ctx)
        pool = self._result_pool
        if pool:
            result = pool.pop()
            result.refill(ctx)
            self.result_reuses += 1
        else:
            result = AccessResult(ctx)
        ctx_pool.append(ctx)
        latency = result.latency
        hist = self.access_latency
        b = latency.bit_length()
        hist._counts[b if b < 64 else 63] += 1
        hist.count += 1
        hist.total += latency
        if hist.min is None or latency < hist.min:
            hist.min = latency
        if hist.max is None or latency > hist.max:
            hist.max = latency
        if self._metrics_latency is not None:
            self._metrics_latency.record(result.latency)
            if result.missed_levels:
                self._telem.metrics.inc("mem.misses.%s"
                                        % result.missed_levels[-1])
        if self.profiler is not None:
            self.profiler.record(result, cycle)
        return result

    def recycle_results(self, results):
        """Return dead :class:`AccessResult` objects to the slab.

        Callers must guarantee nothing observes the objects afterwards —
        in practice the simulator hands back an interval's trace results
        once the weave phase (the last consumer) has run."""
        pool = self._result_pool
        for result in results:
            if len(pool) >= _RESULT_POOL_CAP:
                break
            pool.append(result)

    def attach_telemetry(self, telemetry):
        """Install (or detach, with None) the observability context; the
        metrics-side latency histogram is cached so the hot path pays a
        single identity check when telemetry is off."""
        self._telem = telemetry
        self._metrics_latency = (
            telemetry.metrics.histogram("mem.access_latency")
            if telemetry is not None and telemetry.metrics is not None
            else None)

    def _prefetch(self, core_id, line, ctx):
        """Train the core's stride prefetcher on the L2 access stream
        and issue fills.  Prefetch traffic is off the demand access's
        critical path; its weave events ride along as side events."""
        if self.config.l2_shared_per_tile:
            l2 = self.l2s[self.config.core_tile(core_id)]
        else:
            l2 = self.l2s[core_id]
        ctx_pool = self._ctx_pool
        wbacks = ctx.wbacks
        for pf_line in self.prefetchers[core_id].observe(line):
            if ctx_pool:
                pf_ctx = ctx_pool.pop()
                pf_ctx.reset(core_id, pf_line, False)
                self.ctx_reuses += 1
            else:
                pf_ctx = AccessContext(core_id, pf_line, False)
            if l2.prefetch_fill(pf_line, pf_ctx):
                wbacks.extend(pf_ctx.steps)
                wbacks.extend(pf_ctx.wbacks)
            ctx_pool.append(pf_ctx)

    # ------------------------------------------------------------------
    # Stats and invariants
    # ------------------------------------------------------------------

    def all_caches(self):
        return list(self.l1i) + list(self.l1d) + list(self.l2s) \
            + list(self.l3_banks)

    def fill_stats(self, node):
        for cache in self.all_caches():
            cache.fill_stats(node.child(cache.name))
        self.mainmem.fill_stats(node.child("mem"))
        node.histogram("access_latency").merge(self.access_latency)

    def reset_weave(self):
        for comp in self.weave_components:
            comp.reset()
        if self.noc_fabric is not None:
            self.noc_fabric.reset()

    def check_inclusion(self):
        """Invariant: every line in a child is present in its parent.
        Returns a list of violations (empty when the invariant holds)."""
        violations = []
        for cache in self.all_caches():
            if cache._parent_banks is None:
                continue
            for line, _state in cache.array.resident_lines():
                parent, _ = cache.parent_select(line)
                if isinstance(parent, MainMemory):
                    continue
                if parent.line_state(line) == 0:  # MESI.I
                    violations.append((cache.name, parent.name, line))
        return violations

    def check_coherence(self):
        """Invariant: single-writer — for every line present anywhere in
        the L1s, at most one L1 holds it in M/E, and if one does, no other
        L1 holds it at all.  Returns violations."""
        from repro.memory.coherence import check_single_writer
        lines = {}
        for cache in list(self.l1i) + list(self.l1d):
            for line, state in cache.array.resident_lines():
                lines.setdefault(line, []).append((cache.name, state))
        violations = []
        for line, copies in lines.items():
            # Copies in the same core's L1I/L1D are fine; group by core.
            by_core = {}
            for name, state in copies:
                core = name.split("-")[1]
                by_core.setdefault(core, []).append(state)
            states = [max(v) for v in by_core.values()]
            if not check_single_writer(states):
                violations.append((line, copies))
        return violations

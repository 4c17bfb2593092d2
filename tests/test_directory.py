"""The bitmask directories must be a pure representation change.

Two guarantees pin the ISSUE 10 coherence-walk refactor:

* **Lockstep property test** — a reference hierarchy whose directories
  are the pre-refactor line -> set-of-child-Cache / line -> Cache form
  (the seed implementation, inlined below verbatim) is driven through
  the same randomized MESI traffic as the bitmask hierarchy.  Every
  access must return the same latency/miss/invalidation record, and the
  final arrays, counters, and (decoded) directories must match.
* **Legacy-capsule migration** — a capsule rewritten on the fly into
  the pre-refactor on-disk form (object-graph directories, no child
  ids, no routing tables) must resume to byte-identical stats and pass
  ``repro verify`` end-to-end.
"""

import pickle
import random
import zlib

import pytest

from repro.config import small_test_system
from repro.core import ZSim
from repro.memory.cache import Cache, MainMemory
from repro.memory.coherence import MESI
from repro.memory.replacement import LRU
from repro.resilience import Checkpointer, latest, read_checkpoint
from repro.resilience.checkpoint import FORMAT_VERSION, MAGIC
from repro.resilience.integrity import IntegritySentinel
from repro.stats import assert_equivalent
from repro.workloads import mt_workload

from conftest import per_set_array_state


# ---------------------------------------------------------------------
# Reference (pre-refactor) directory implementations
# ---------------------------------------------------------------------


class SetDirectoryCache(Cache):
    """The seed's set-of-objects directory, grafted onto today's Cache.

    Every method that reads or writes ``_sharers``/``_owner`` is
    overridden with the pre-refactor body; the array, routing, and
    counter code underneath is the current implementation, so any
    divergence the property test finds is the directory's fault."""

    def acquire_exclusive(self, line, requester, ctx):
        dirty = False
        for child in list(self._sharers.get(line, ())):
            if child is not requester:
                dirty |= child.invalidate_subtree(line, ctx)
                ctx.latency += self.down_latency
                ctx.invalidations += 1
        state = self.array.lookup(line, touch=False)
        if state == MESI.S:
            parent, net = self.parent_select(line)
            ctx.latency += net
            parent.acquire_exclusive(line, self, ctx)
            state = MESI.E
        if dirty and state == MESI.E:
            state = MESI.M
        if state is not None:
            self.array.update_state(line, state)
        self._sharers[line] = {requester}
        self._owner[line] = requester

    def child_evicted(self, line, child, dirty, ctx):
        sharers = self._sharers.get(line)
        if sharers is not None:
            sharers.discard(child)
            if not sharers:
                del self._sharers[line]
        if self._owner.get(line) is child:
            del self._owner[line]
        if dirty:
            state = self.array.lookup(line, touch=False)
            if state is not None:
                self.array.update_state(line, MESI.M)

    def invalidate_subtree(self, line, ctx=None):
        dirty = False
        for child in self._clear_directory(line):
            dirty |= child.invalidate_subtree(line, ctx)
        state = self.array.invalidate(line)
        if state is not None:
            self.invalidations += 1
            dirty |= state == MESI.M
        return dirty

    def downgrade_subtree(self, line, ctx=None):
        dirty = False
        owner = self._owner.pop(line, None)
        if owner is not None:
            dirty |= owner.downgrade_subtree(line, ctx)
        state = self.array.lookup(line, touch=False)
        if state is not None and state != MESI.S:
            self.downgrades += 1
            dirty |= state == MESI.M
            self.array.update_state(line, MESI.S)
        return dirty

    def _grant_to_child(self, line, write, requester, own_state, ctx):
        sharers = self._sharers.setdefault(line, set())
        if write:
            dirty = False
            for child in list(sharers):
                if child is not requester:
                    dirty |= child.invalidate_subtree(line, ctx)
                    ctx.latency += self.down_latency
                    ctx.invalidations += 1
            sharers.clear()
            sharers.add(requester)
            self._owner[line] = requester
            if dirty:
                self.array.update_state(line, MESI.M)
            return MESI.E
        owner = self._owner.get(line)
        if owner is not None and owner is not requester:
            dirty = owner.downgrade_subtree(line, ctx)
            ctx.latency += self.down_latency
            del self._owner[line]
            if dirty:
                self.array.update_state(line, MESI.M)
                own_state = MESI.M
        sharers.add(requester)
        if len(sharers) == 1 and own_state in (MESI.E, MESI.M):
            self._owner[line] = requester
            return MESI.E
        return MESI.S

    def _evict(self, line, state, ctx):
        self.evictions += 1
        if ctx is not None and self.children:
            ctx.shared_evictions += (line,)
        dirty = state == MESI.M
        for child in self._clear_directory(line):
            dirty |= child.invalidate_subtree(line, ctx)
        parent, _net = self.parent_select(line)
        parent.child_evicted(line, self, dirty, ctx)
        if dirty:
            self.writebacks += 1

    def _clear_directory(self, line):
        sharers = self._sharers.pop(line, set())
        self._owner.pop(line, None)
        return sharers

    def sharers_of(self, line):
        return set(self._sharers.get(line, ()))

    def owner_of(self, line):
        return self._owner.get(line)


class SetDirectoryMainMemory(MainMemory):
    """Pre-refactor MainMemory directory (sets of top-level caches)."""

    def handle_access(self, line, write, requester, ctx):
        self.reads += 1
        ctrl = self.controller_of(line)
        src_tile = getattr(requester, "tile", 0)
        ctrl_tile = self.controller_tile(ctrl)
        if self.noc_routes is not None and src_tile != ctrl_tile:
            route = self.noc_routes.get((src_tile, ctrl_tile))
            if route is not None:
                ctx.add_step_at(route, ctx.latency, "NOC")
        ctx.latency += self.network.latency(src_tile, ctrl_tile)
        arrival = ctx.latency
        ctx.latency += self.config.zero_load_latency
        ctx.add_step_at(self.ctrl_weaves[ctrl], arrival, "READ")
        sharers = self._sharers.setdefault(line, set())
        if write:
            for child in list(sharers):
                if child is not requester:
                    child.invalidate_subtree(line, ctx)
                    ctx.invalidations += 1
            sharers.clear()
            sharers.add(requester)
            self._owner[line] = requester
            return MESI.E
        owner = self._owner.get(line)
        if owner is not None and owner is not requester:
            owner.downgrade_subtree(line, ctx)
            del self._owner[line]
        sharers.add(requester)
        if len(sharers) == 1:
            self._owner[line] = requester
            return MESI.E
        return MESI.S

    def acquire_exclusive(self, line, requester, ctx):
        for child in list(self._sharers.get(line, ())):
            if child is not requester:
                child.invalidate_subtree(line, ctx)
                ctx.invalidations += 1
        self._sharers[line] = {requester}
        self._owner[line] = requester

    def child_evicted(self, line, child, dirty, ctx):
        sharers = self._sharers.get(line)
        if sharers is not None:
            sharers.discard(child)
            if not sharers:
                del self._sharers[line]
        if self._owner.get(line) is child:
            del self._owner[line]
        if dirty:
            self.writebacks += 1
            ctrl = self.controller_of(line)
            if ctx is not None:
                ctx.add_wback(self.ctrl_weaves[ctrl])

    def sharers_of(self, line):
        return set(self._sharers.get(line, ()))


# ---------------------------------------------------------------------
# Lockstep property test
# ---------------------------------------------------------------------


def _build_hierarchy(monkeypatch, reference):
    from repro.memory import hierarchy as hmod
    cfg = small_test_system(num_cores=4, core_model="ooo")
    if reference:
        monkeypatch.setattr(hmod, "Cache", SetDirectoryCache)
        monkeypatch.setattr(hmod, "MainMemory", SetDirectoryMainMemory)
    else:
        monkeypatch.setattr(hmod, "Cache", Cache)
        monkeypatch.setattr(hmod, "MainMemory", MainMemory)
    h = hmod.MemoryHierarchy(cfg, build_weave=False)
    # Both hierarchies send every access down the coherence walk, so
    # each one exercises the directory representation under test.
    h.enable_fastpath = False
    return h


def _directory_picture(h):
    """Directory state decoded to names: comparable across the bitmask
    and set-of-objects representations."""
    picture = {}
    for cache in h.all_caches() + [h.mainmem]:
        sharers = {line: tuple(sorted(c.name for c in
                               cache.sharers_of(line)))
                   for line in cache._sharers}
        owners = {}
        for line in list(cache._owner):
            owner = cache.owner_of(line) if isinstance(cache, Cache) \
                else cache._owner[line]
            if not isinstance(owner, (Cache, MainMemory)):
                owner = cache.children[owner]
            owners[line] = owner.name
        picture[cache.name] = (sharers, owners)
    return picture


def _state_picture(h):
    counters = {}
    arrays = {}
    for cache in h.all_caches():
        counters[cache.name] = (cache.accesses, cache.hits, cache.misses,
                                cache.evictions, cache.writebacks,
                                cache.invalidations, cache.downgrades,
                                cache.upgrades)
        arrays[cache.name] = sorted(cache.array.resident_lines())
    counters["mem"] = (h.mainmem.reads, h.mainmem.writebacks)
    return counters, arrays


def _traffic(seed, count, num_cores, line_bits):
    """Randomized MESI traffic: a small hot pool of heavily shared
    lines (upgrades, downgrades, invalidations, ping-pong) plus a
    wider cold spread (fills and evictions across all three levels)."""
    rng = random.Random(seed)
    hot = [rng.randrange(0, 1 << 14) for _ in range(24)]
    accesses = []
    for _ in range(count):
        core = rng.randrange(num_cores)
        if rng.random() < 0.7:
            line = rng.choice(hot)
        else:
            line = rng.randrange(0, 1 << 16)
        write = rng.random() < 0.35
        accesses.append((core, line << line_bits, write))
    return accesses


class TestBitmaskDirectoryLockstep:
    @pytest.mark.parametrize("seed", (1, 7, 2026))
    def test_lockstep_with_reference_directory(self, monkeypatch, seed):
        # Reference first: the module-level class patch must point back
        # at the real classes when bit.check_inclusion() isinstance-
        # checks parents at the end.
        ref = _build_hierarchy(monkeypatch, reference=True)
        bit = _build_hierarchy(monkeypatch, reference=False)
        assert type(ref.l1d[0]) is SetDirectoryCache
        assert type(ref.mainmem) is SetDirectoryMainMemory
        for i, (core, addr, write) in enumerate(
                _traffic(seed, 4000, 4, bit.line_bits)):
            got = bit.access(core, addr, write)
            want = ref.access(core, addr, write)
            record = (got.latency, got.missed_levels, got.hit_level,
                      got.invalidations, got.shared_evictions)
            expect = (want.latency, want.missed_levels, want.hit_level,
                      want.invalidations, want.shared_evictions)
            assert record == expect, \
                "access %d diverged: %r vs %r" % (i, record, expect)
        assert _state_picture(bit) == _state_picture(ref)
        assert _directory_picture(bit) == _directory_picture(ref)
        assert bit.check_inclusion() == [] and bit.check_coherence() == []

    def test_directory_decodes_to_reference_after_upgrade_storm(
            self, monkeypatch):
        """Write-heavy traffic on one line: the pure ping-pong case."""
        ref = _build_hierarchy(monkeypatch, reference=True)
        bit = _build_hierarchy(monkeypatch, reference=False)
        addr = 0x40 << bit.line_bits
        for i in range(200):
            core = i % 4
            write = i % 3 != 0
            got = bit.access(core, addr, write)
            want = ref.access(core, addr, write)
            assert (got.latency, got.invalidations) == \
                (want.latency, want.invalidations)
        assert _directory_picture(bit) == _directory_picture(ref)


# ---------------------------------------------------------------------
# Legacy-capsule migration, end to end
# ---------------------------------------------------------------------


def _write_legacy_capsule(src_path, dst_path):
    """Rewrite a capsule into the pre-refactor on-disk form: directory
    entries as object graphs, no child ids, no dir odometer, no main
    memory controller tables, and eager per-set arrays with
    recency-list LRU state."""
    capsule = read_checkpoint(src_path)
    sim = capsule["sim"]
    hier = sim.hierarchy
    for cache in hier.all_caches():
        children = cache.children
        cache._sharers = {
            line: {children[i] for i in range(mask.bit_length())
                   if mask >> i & 1}
            for line, mask in cache._sharers.items()}
        cache._owner = {line: children[i]
                        for line, i in cache._owner.items()}
        del cache.__dict__["child_id"]
        del cache.__dict__["dir_ops"]
    mem = hier.mainmem
    mem._sharers = {
        line: {mem.children[i] for i in range(mask.bit_length())
               if mask >> i & 1}
        for line, mask in mem._sharers.items()}
    mem._owner = {line: mem.children[i]
                  for line, i in mem._owner.items()}
    del mem.__dict__["dir_ops"]
    for attr in ("_num_ctrls", "_zero_load", "_ctrl_tiles",
                 "_net_to_ctrl"):
        mem.__dict__.pop(attr, None)
    # Pre-refactor arrays were eager per-set lists, and their LRU kept
    # a recency list per set.
    for cache in hier.all_caches():
        legacy = per_set_array_state(cache.array, recency_lists=True)
        cache.array.__dict__.clear()
        cache.array.__dict__.update(legacy)
    capsule["sim"] = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
    body = pickle.dumps(capsule, protocol=pickle.HIGHEST_PROTOCOL)
    header = b"%s %d %08x\n" % (MAGIC, FORMAT_VERSION,
                                zlib.crc32(body) & 0xFFFFFFFF)
    with open(dst_path, "wb") as fh:
        fh.write(header)
        fh.write(body)


class TestLegacyCapsuleMigration:
    def _straight_and_capsule(self, tmp_path):
        def threads():
            wl = mt_workload("canneal", scale=1 / 64, num_threads=4)
            return wl.make_threads(target_instrs=12_000, num_threads=4)

        cfg = small_test_system(num_cores=4, core_model="ooo")
        straight = ZSim(cfg, threads=threads(), contention_model="weave")
        straight.integrity = IntegritySentinel(audit_every=1)
        want = straight.run().stats().to_dict()

        cfg = small_test_system(num_cores=4, core_model="ooo")
        partial = ZSim(cfg, threads=threads(), contention_model="weave")
        partial.integrity = IntegritySentinel(audit_every=1)
        partial.checkpointer = Checkpointer(
            str(tmp_path / "new"), every=1,
            meta={"workload": "canneal", "scale": 1 / 64,
                  "instrs": 12_000, "threads": 4})
        partial.run(max_intervals=3)
        return want, latest(str(tmp_path / "new")), threads

    def test_legacy_capsule_resumes_byte_identical(self, tmp_path):
        want, new_path, threads = self._straight_and_capsule(tmp_path)
        legacy_dir = tmp_path / "legacy"
        legacy_dir.mkdir()
        legacy_path = str(legacy_dir / "ckpt-deadbeef-00000003.pkl")
        _write_legacy_capsule(new_path, legacy_path)

        capsule = read_checkpoint(legacy_path)
        hier = capsule["sim"].hierarchy
        # Migration happened during unpickling: bitmasks, ids, tables.
        for cache in hier.all_caches():
            assert all(isinstance(m, int)
                       for m in cache._sharers.values())
            assert all(isinstance(o, int) for o in cache._owner.values())
            assert cache._parent_banks is not None
        assert all(isinstance(m, int)
                   for m in hier.mainmem._sharers.values())
        assert hier.mainmem._net_to_ctrl is not None
        l1_array = hier.l1d[0].array
        assert isinstance(l1_array._repl, LRU) and l1_array._repl._stamps
        assert set(l1_array._repl._stamps) == set(l1_array._sets)

        resumed = ZSim.resume(capsule, threads())
        got = resumed.run().stats().to_dict()
        assert_equivalent(got, want, ignore=("host",),
                          context="legacy capsule resume vs straight")

    def test_repro_verify_certifies_legacy_capsule(self, tmp_path,
                                                   capsys):
        """Both kept capsules rewritten to the legacy form: ``repro
        verify`` re-derives the deep digests (the named-directory form
        must digest identically post-migration) and replays the span
        between them, re-deriving the fingerprint chain."""
        from repro.cli import main
        from repro.resilience.checkpoint import checkpoints
        _, new_path, _ = self._straight_and_capsule(tmp_path)
        legacy_dir = tmp_path / "legacy"
        legacy_dir.mkdir()
        for interval, path in checkpoints(str(tmp_path / "new")):
            _write_legacy_capsule(
                path,
                str(legacy_dir / ("ckpt-deadbeef-%08d.pkl" % interval)))
        assert main(["verify", str(legacy_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        assert "replayed 1 span(s)" in out

"""The flattened per-instruction data plane must be invisible.

Three layers of guarantees:

* the schedule-once ``DecodedBBL`` tables (``flat``, ``mem_ops``,
  ``fetch_lines``, ``final_writes``) are field-for-field faithful to the
  legacy per-µop objects and to an independently simulated scoreboard;
* the L1-hit fast path can be switched off with zero effect on
  simulated stats;
* slab recycling (contexts, results, trace lists) survives the full
  matrix — backends, kill faults, checkpoint/resume — byte-identically.
"""

import pytest

from repro.config import small_test_system
from repro.core import ZSim
from repro.isa.decoder import FETCH_LINE_BYTES, decode_bbl
from repro.isa.uops import UopType
from repro.resilience import Checkpointer, latest, read_checkpoint
from repro.stats import assert_equivalent
from repro.workloads import mt_workload, spec_workload

from conftest import (
    alu_block,
    build_program,
    mem_block,
    per_set_array_state,
)


# ---------------------------------------------------------------------
# Flat descriptor tables vs the legacy µop objects
# ---------------------------------------------------------------------


def _workload_blocks():
    """A corpus of static blocks: every kernel block of three real
    workload generators plus the synthetic corner cases."""
    blocks = []
    for make in (lambda: spec_workload("mcf", scale=1 / 64),
                 lambda: spec_workload("namd", scale=1 / 64),
                 lambda: mt_workload("blackscholes", scale=1 / 64,
                                     num_threads=2)):
        blocks.extend(make().kernel_program().program.blocks)
    blocks.extend(build_program(num_blocks=2).blocks)
    blocks.append(mem_block(loads=3, stores=2))
    blocks.append(alu_block(count=6, dependent=True))
    assert len(blocks) > 10
    return blocks


def _reference_schedule(uops):
    """Recompute the static dependency schedule by walking the legacy
    Uop objects with an explicit last-writer scoreboard."""
    last_writer = {}
    rows = []
    final = {}
    for i, uop in enumerate(uops):
        row = []
        for src in (uop.src1, uop.src2):
            if src >= 0 and src in last_writer:
                row += [last_writer[src], -1]
            elif src >= 0:
                row += [-1, src]
            else:
                row += [-1, -1]
        rows.append(tuple(row))
        for dst in (uop.dst1, uop.dst2):
            if dst >= 0:
                last_writer[dst] = i
                final[dst] = i
    return rows, final


class TestFlatDescriptorFidelity:
    def test_flat_matches_uops_field_for_field(self):
        for block in _workload_blocks():
            decoded = decode_bbl(block)
            assert len(decoded.flat) == len(decoded.uops)
            assert decoded.num_uops == len(decoded.uops)
            for row, uop in zip(decoded.flat, decoded.uops):
                assert row[:4] == (uop.type, uop.lat, uop.ports,
                                   uop.mem_slot)

    def test_static_schedule_matches_scoreboard_walk(self):
        for block in _workload_blocks():
            decoded = decode_bbl(block)
            rows, final = _reference_schedule(decoded.uops)
            assert [row[4:] for row in decoded.flat] == rows
            assert dict(decoded.final_writes) == final

    def test_dependency_indices_point_backwards(self):
        for block in _workload_blocks():
            for i, row in enumerate(decode_bbl(block).flat):
                _type, _lat, _ports, _slot, dep1, gsrc1, dep2, gsrc2 = row
                for dep, gsrc in ((dep1, gsrc1), (dep2, gsrc2)):
                    assert dep < i
                    # In-block and global sources are exclusive.
                    assert dep < 0 or gsrc < 0

    def test_aggregates_match_uops(self):
        for block in _workload_blocks():
            decoded = decode_bbl(block)
            uops = decoded.uops
            assert decoded.num_loads == sum(
                1 for u in uops if u.type == UopType.LOAD)
            assert decoded.num_stores == sum(
                1 for u in uops if u.type == UopType.STORE_ADDR)
            assert decoded.mem_ops == tuple(
                (u.mem_slot, u.type == UopType.STORE_ADDR) for u in uops
                if u.type in (UopType.LOAD, UopType.STORE_ADDR))
            assert decoded.has_syscall == any(
                u.type == UopType.SYSCALL for u in uops)

    def test_fetch_lines_cover_block_bytes(self):
        for block in _workload_blocks():
            lines = decode_bbl(block).fetch_lines
            end = block.address + block.num_bytes
            assert lines[0] == block.address & ~(FETCH_LINE_BYTES - 1)
            assert lines[0] <= block.address < lines[0] + FETCH_LINE_BYTES
            for a, b in zip(lines, lines[1:]):
                assert b - a == FETCH_LINE_BYTES
            assert lines[-1] < end <= lines[-1] + FETCH_LINE_BYTES


# ---------------------------------------------------------------------
# L1-hit fast path: switchable, invisible
# ---------------------------------------------------------------------


def _stats_tree(result):
    return result.stats().to_dict()


def _run(config, contention, fastpath=None, backend=None,
         instrs=15_000):
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=config.num_cores)
    sim = ZSim(config, threads=wl.make_threads(target_instrs=instrs),
               contention_model=contention, backend=backend)
    if fastpath is not None:
        sim.hierarchy.enable_fastpath = fastpath
    return sim, _stats_tree(sim.run())


class TestFastpathEquivalence:
    @pytest.mark.parametrize("contention", ("none", "md1", "weave"))
    @pytest.mark.parametrize("core_model", ("simple", "ooo"))
    def test_fastpath_off_is_invisible(self, core_model, contention):
        cfg = small_test_system(num_cores=2, core_model=core_model)
        sim_on, on = _run(cfg, contention)
        cfg = small_test_system(num_cores=2, core_model=core_model)
        sim_off, off = _run(cfg, contention, fastpath=False)
        # Host-side counters (fastpath_hits etc.) legitimately differ;
        # every simulated stat must be byte-identical.
        assert_equivalent(on, off, ignore=("host",),
                          context="fastpath on vs off (%s, %s)"
                          % (core_model, contention))
        assert sim_on.hierarchy.fastpath_hits > 0
        assert sim_off.hierarchy.fastpath_hits == 0

    @pytest.mark.parametrize("contention", ("none", "weave"))
    def test_both_fastpaths_off_is_invisible(self, contention):
        """Every access down the full coherence walk still matches."""
        cfg = small_test_system(num_cores=4, core_model="ooo")
        _, on = _run(cfg, contention)
        cfg = small_test_system(num_cores=4, core_model="ooo")
        sim_off, off = _run(cfg, contention, fastpath=False)
        assert_equivalent(on, off, ignore=("host",),
                          context="both fastpaths off (%s)" % contention)
        assert sim_off.hierarchy.fastpath_hits == 0
        assert sim_off.hierarchy.slow_accesses > 0

    def test_host_dbt_counters_are_reported(self):
        cfg = small_test_system(num_cores=2, core_model="ooo")
        sim, tree = _run(cfg, "weave")
        dbt = tree["host"]["dbt"]
        assert dbt["fastpath_hits"] == sim.hierarchy.fastpath_hits > 0
        assert dbt["l2_fastpath_hits"] == 0
        assert dbt["slow_accesses"] == sim.hierarchy.slow_accesses > 0
        # Every access is either an L1 fast-path hit or a walk.
        hier = sim.hierarchy
        accesses = sum(c.accesses for c in hier.l1i + hier.l1d)
        assert dbt["fastpath_hits"] + dbt["slow_accesses"] == accesses
        assert dbt["fastpath_hit_rate"] == \
            dbt["fastpath_hits"] / accesses
        assert 0.0 < dbt["fastpath_hit_rate"] < 1.0
        assert dbt["translation_hit_rate"] > 0.9
        assert dbt["trace_recycles"] > 0
        assert dbt["dir_bitmask_ops"] == \
            sum(c.dir_ops for c in hier.all_caches()) \
            + hier.mainmem.dir_ops > 0

    def test_slabs_stay_bounded_and_recycle(self):
        cfg = small_test_system(num_cores=2, core_model="ooo")
        sim, _ = _run(cfg, "weave")
        assert sim.hierarchy.ctx_reuses > 0
        assert sim.hierarchy.result_reuses > 0
        assert len(sim.hierarchy._result_pool) <= 4096
        # Pooled weave events must come back with clean edge lists.
        for event in sim.weave.pool._free:
            assert event.children == []


# ---------------------------------------------------------------------
# Recycling across the backend/fault/resume matrix
# ---------------------------------------------------------------------


class TestRecyclingMatrix:
    def test_backends_match_serial_with_recycling(self):
        cfg = small_test_system(num_cores=2, core_model="ooo")
        _, baseline = _run(cfg, "weave", backend="serial")
        cfg = small_test_system(num_cores=2, core_model="ooo")
        sim, tree = _run(cfg, "weave", backend="process")
        assert_equivalent(tree, baseline, ignore=("host",),
                          context="process vs serial with recycling")

    def test_kill_and_resume_matches_straight_run(self, tmp_path):
        """Checkpoint mid-run (with populated slabs), resume in a fresh
        simulator, and the final stats match an uninterrupted run: the
        pools are host-side state and must not leak into capsules."""
        cfg = small_test_system(num_cores=2, core_model="ooo")
        _, baseline = _run(cfg, "weave")

        cfg = small_test_system(num_cores=2, core_model="ooo")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=cfg.num_cores)
        partial = ZSim(cfg, threads=wl.make_threads(target_instrs=15_000),
                       contention_model="weave")
        partial.checkpointer = Checkpointer(str(tmp_path), every=1)
        partial.run(max_intervals=3)  # "killed" mid-run, slabs warm
        assert partial.hierarchy.result_reuses > 0

        capsule = read_checkpoint(latest(str(tmp_path)))
        resumed = ZSim.resume(
            capsule, wl.make_threads(target_instrs=15_000))
        # Resume starts with cold slabs but identical simulated state.
        assert resumed.hierarchy._result_pool == []
        assert_equivalent(_stats_tree(resumed.run()), baseline,
                          ignore=("host",),
                          context="kill-and-resume vs straight run")

    def test_old_checkpoint_without_slab_fields_resumes(self, tmp_path):
        """Capsules from older builds resume byte-identically.  One
        written before the data-plane refactor lacks the pool/counter
        attributes, which __setstate__ must default; one written while
        the L2-hit fast path and the flattened walk existed still
        carries their switches, scratch and counter, which
        __setstate__ must drop; one written while each weave domain
        owned its event queue lacks the engine heap and carries the
        domains' queues and pop floors."""
        cfg = small_test_system(num_cores=2, core_model="ooo")
        _, baseline = _run(cfg, "weave")

        cfg = small_test_system(num_cores=2, core_model="ooo")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=cfg.num_cores)
        partial = ZSim(cfg, threads=wl.make_threads(target_instrs=15_000),
                       contention_model="weave")
        partial.checkpointer = Checkpointer(str(tmp_path), every=1)
        partial.run(max_intervals=2)

        retired = {"enable_flat_walk": True, "enable_l2_fastpath": True,
                   "_walk_caches": [None] * 8, "_walk_idx": [0] * 8,
                   "l2_fastpath_hits": 5}
        for legacy in ("without slab fields", "with retired fields",
                       "with per-domain weave queues"):
            capsule = read_checkpoint(latest(str(tmp_path)))
            resumed = ZSim.resume(
                capsule, wl.make_threads(target_instrs=15_000))
            hier = resumed.hierarchy
            state = hier.__getstate__()
            if legacy == "without slab fields":
                # Strip the slab attributes as an old capsule lacks them.
                for attr in ("_ctx_pool", "_result_pool", "enable_fastpath",
                             "fastpath_hits", "slow_accesses",
                             "ctx_reuses", "result_reuses"):
                    state.pop(attr)
            elif legacy == "with retired fields":
                state.update(retired)
            else:
                weave = resumed.weave
                weave_state = dict(weave.__dict__)
                del weave_state["heap"], weave_state["_svc_cache"]
                weave.__setstate__(weave_state)
                assert weave.heap == [] and weave._svc_cache == {}
                for domain in weave.domains:
                    domain.__setstate__(dict(domain.__dict__, _queue=[],
                                             _pop_floor=1234))
                    assert not hasattr(domain, "_queue")
                    assert not hasattr(domain, "_pop_floor")
            hier.__setstate__(state)
            assert hier._ctx_pool == [] and hier._result_pool == []
            assert hier.enable_fastpath in (True, False)
            for attr in retired:
                assert not hasattr(hier, attr), (legacy, attr)
            # And an array pickled in the eager per-set form without
            # free-way counts recomputes them.
            array = hier.l1d[0].array
            want_free = list(array._free)
            array_state = per_set_array_state(array)
            array_state.pop("_free")
            array.__setstate__(array_state)
            assert isinstance(array._lines, dict)
            assert array._free == want_free
            assert_equivalent(_stats_tree(resumed.run()), baseline,
                              ignore=("host",),
                              context="old capsule %s vs straight run"
                              % legacy)

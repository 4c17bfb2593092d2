"""Resilience layer: supervised execution, interval checkpoints, and
the deterministic fault-injection harness (repro.resilience).

The headline property: a supervised run that recovers from every
injected host fault produces a stats tree identical to a fault-free
serial run — faults change wall time and the recovery log, never
simulated results.
"""

import dataclasses
import logging
import os
import pickle
import types
import zlib

import pytest

from repro.config import (
    BoundWeaveConfig,
    CacheConfig,
    CoreConfig,
    SystemConfig,
    small_test_system,
)
from repro.core import ZSim
from repro.errors import (
    CheckpointError,
    CheckpointVersionError,
    ConfigError,
    DeadlockError,
    WallClockExceeded,
)
from repro.exec import make_backend
from repro.exec.serial import SerialBackend
from repro.resilience import (
    FORMAT_VERSION,
    Checkpointer,
    FaultPlan,
    Supervisor,
    latest,
    read_checkpoint,
    write_checkpoint,
)
from repro.stats import assert_equivalent
from repro.workloads import mt_workload

#: One spec per detection path on the process backend: a corrupted weave
#: queue timestamp (random or chosen domain) fires HorizonViolation and
#: is replayed serially; a SIGKILLed worker costs only its speculation
#: (its cores re-run inline, no replay needed).
FAULT_MATRIX = ("corrupt@3", "corrupt@3:d1", "sigkill@2:w0")


def _matrix_config(backend):
    """16 cores over 4 tiles so the weave runs multiple domains and the
    process backend has cores to speculate on."""
    cfg = SystemConfig(
        name="resilience-16c",
        num_tiles=4,
        cores_per_tile=4,
        core=CoreConfig(model="simple"),
        l1i=CacheConfig(name="l1i", size_kb=4, ways=2, latency=3),
        l1d=CacheConfig(name="l1d", size_kb=4, ways=4, latency=4),
        l2=CacheConfig(name="l2", size_kb=16, ways=4, latency=7,
                       shared_by=4),
        l2_shared_per_tile=True,
        l3=CacheConfig(name="l3", size_kb=64, ways=8, latency=14,
                       banks=4, shared_by=16),
        boundweave=BoundWeaveConfig(host_threads=4, backend=backend,
                                    process_workers=2),
    )
    return cfg.validate()


def _matrix_sim(backend, instrs=25_000):
    config = _matrix_config(backend)
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=config.num_cores)
    return ZSim(config, threads=wl.make_threads(target_instrs=instrs))


def _stats_tree(result):
    tree = result.stats().to_dict()
    # Host-side stats (wall times, backend name, recovery counters) are
    # the one legitimate difference between backends and between
    # faulted and fault-free runs.
    tree.pop("host", None)
    return tree


@pytest.fixture(scope="module")
def serial_baseline():
    """Fault-free serial run of the matrix workload."""
    return _stats_tree(_matrix_sim("serial").run())


# ---------------------------------------------------------------------
# Fault plan grammar
# ---------------------------------------------------------------------


class TestFaultPlanGrammar:
    def test_parse_all_kinds_and_selectors(self):
        plan = FaultPlan.parse(
            "sigkill@3:w0; sigstop@5:w1; corrupt@4:d1; corrupt@6:c2; "
            "corrupt@2")
        kinds = [type(f).kind for f in plan.faults]
        assert kinds == ["sigkill", "sigstop", "corrupt", "corrupt",
                         "corrupt"]
        kill, stop, loud, silent, anywhere = plan.faults
        assert (kill.interval, kill.worker) == (3, 0)
        assert (stop.interval, stop.worker) == (5, 1)
        assert (loud.domain, loud.seam) == (1, "weave-queue")
        assert (silent.core, silent.seam) == (2, "scribble")
        assert (anywhere.domain, anywhere.seam) == (None, "weave-queue")

    def test_describe_roundtrips(self):
        for spec in FAULT_MATRIX + ("corrupt@6:c2", "sigstop@4"):
            plan = FaultPlan.parse(spec)
            assert plan.faults[0].describe() == spec

    @pytest.mark.parametrize("bad", ["", "  ;  ", "explode@3", "kill",
                                     "sigkill@x", "sigkill@3:q9",
                                     "corrupt@3:bound", "corrupt@3:0.5"])
    def test_malformed_raises_config_error(self, bad):
        with pytest.raises(ConfigError):
            FaultPlan.parse(bad)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("nope@1")

    def test_matching_consumes_a_fault_once(self):
        from repro.core.domains import Domain
        plan = FaultPlan.parse("corrupt@2:d0")
        domain = Domain(0)
        for cycle in (10, 20):
            domain.push(cycle, object())
        weave = types.SimpleNamespace(domains=[domain])
        plan.corrupt(weave, 1)  # other interval: no match
        assert plan.remaining() == plan.faults
        plan.corrupt(weave, 2)
        assert plan.remaining() == []
        queued = list(domain._queue)
        plan.corrupt(weave, 2)  # consumed: a re-seeded queue is spared
        assert domain._queue == queued

    def test_reset_rearms(self):
        plan = FaultPlan.parse("corrupt@2")
        plan.faults[0].fired = True
        plan.reset()
        assert plan.remaining() == plan.faults


class TestFaultPlanInstall:
    """A fault the backend has no seam for would be a silent no-op, so
    installing such a plan is refused up front."""

    def test_serial_rejects_weave_queue_corruption(self):
        with pytest.raises(ConfigError,
                           match=r"corrupt@3:d1.*serial backend"):
            FaultPlan.parse("corrupt@3:d1").install(make_backend("serial"))

    def test_serial_rejects_process_signals(self):
        backend = make_backend("serial")
        with pytest.raises(ConfigError, match="sigkill@2:w0"):
            FaultPlan.parse("corrupt@3:c2;sigkill@2:w0").install(backend)
        assert backend.fault_plan is None

    def test_serial_accepts_silent_corruption(self):
        backend = make_backend("serial")
        plan = FaultPlan.parse("corrupt@3:c2").install(backend)
        assert backend.fault_plan is plan

    def test_process_accepts_every_kind(self):
        backend = make_backend("process")
        plan = FaultPlan.parse(
            "corrupt@2:d1;corrupt@3:c2;sigkill@4:w0;sigstop@5")
        assert plan.install(backend) is plan
        assert backend.fault_plan is plan

    def test_domain_selector_must_name_a_weave_domain(self, tiny_config):
        sim = ZSim(tiny_config, backend="process")
        assert len(sim.weave.domains) == 1
        with pytest.raises(ConfigError, match="1 domain"):
            FaultPlan.parse("corrupt@2:d1").install(sim.backend)
        FaultPlan.parse("corrupt@2:d0").install(sim.backend)

    def test_cli_refuses_a_plan_that_cannot_fire(self):
        from repro.cli import main
        with pytest.raises(ConfigError, match="serial backend"):
            main(["run", "--preset", "test", "--instrs", "2000",
                  "--inject-faults", "corrupt@2:d1"])


# ---------------------------------------------------------------------
# The fault matrix: every fault caught, recovered, and invisible in the
# final stats
# ---------------------------------------------------------------------


class TestFaultMatrix:
    @pytest.mark.parametrize("spec", FAULT_MATRIX)
    def test_supervised_run_matches_serial(self, spec, serial_baseline):
        sim = _matrix_sim("process")
        plan = FaultPlan.parse(spec, seed=7).install(sim.backend)
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        result = sim.run()
        assert plan.remaining() == [], "fault never fired: %s" % spec
        if spec.startswith("corrupt"):
            assert supervisor.recoveries >= 1
            assert supervisor.history[0]["kind"] == "HorizonViolation"
        else:
            host = result.stats().to_dict()["host"]["exec"]
            assert host["worker_deaths"] >= 1
        assert not supervisor.fallback_permanent
        assert_equivalent(_stats_tree(result), serial_baseline,
                          context="%s under process" % spec)

    def test_history_records_fault_context(self, serial_baseline):
        sim = _matrix_sim("process")
        FaultPlan.parse("corrupt@2:d1").install(sim.backend)
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        sim.run()
        assert len(supervisor.history) == 1
        entry = supervisor.history[0]
        assert entry["kind"] == "HorizonViolation"
        assert entry["interval"] == 2
        assert entry["phase"] == "weave"
        assert entry["domain"] == 1

    def test_stats_tree_reports_recovery_counters(self):
        sim = _matrix_sim("process")
        FaultPlan.parse("corrupt@2:d1").install(sim.backend)
        Supervisor(sim, max_retries=3, backoff_intervals=1)
        tree = sim.run().stats().to_dict()
        res = tree["host"]["resilience"]
        assert res["recoveries"] == 1
        assert res["fallback_permanent"] == 0


class TestPermanentFallback:
    def test_repeated_faults_fall_back_to_serial(self, serial_baseline):
        sim = _matrix_sim("process")
        plan = FaultPlan.parse("corrupt@2:d1").install(sim.backend)
        supervisor = Supervisor(sim, max_retries=1, backoff_intervals=0)
        tree = _stats_tree(sim.run())
        assert supervisor.fallback_permanent
        assert isinstance(sim.backend, SerialBackend)
        assert sim.backend.fault_plan is plan
        assert sim.host_model.backend_name == "serial"
        assert [(d["from"], d["to"]) for d in supervisor.demotions] == [
            ("process", "serial")]
        # Degraded, not wrong: the run still matches the reference.
        assert_equivalent(tree, serial_baseline,
                          context="permanent fallback")


# ---------------------------------------------------------------------
# Unsupervised failure propagation
# ---------------------------------------------------------------------


class TestUnsupervisedPropagation:
    def test_run_shuts_backend_down_when_backend_raises(self,
                                                        tiny_config):
        shutdowns = []

        class Exploding(SerialBackend):
            def run_bound_pass(self, bound, cores, limit_cycle,
                               timings):
                raise RuntimeError("host backend exploded")

            def shutdown(self):
                shutdowns.append(True)

        wl = mt_workload("blackscholes", scale=1 / 64, num_threads=4)
        sim = ZSim(tiny_config,
                   threads=wl.make_threads(target_instrs=2_000),
                   backend=Exploding())
        with pytest.raises(RuntimeError, match="exploded"):
            sim.run()
        assert shutdowns  # the try/finally in ZSim.run fired


# ---------------------------------------------------------------------
# Typed errors (satellites)
# ---------------------------------------------------------------------


class TestTypedErrors:
    def _deadlocked_sim(self, tiny_config):
        from repro.dbt.instrumentation import InstrumentedStream
        from repro.isa.opcodes import Opcode
        from repro.isa.program import BBLExec, Instruction, Program
        from repro.virt import SimThread
        from repro.virt.syscalls import FutexWait

        program = Program("dead")
        block = program.add_block([Instruction(Opcode.SYSCALL)])

        def stuck(key):
            yield BBLExec(block, (), syscall=FutexWait(key))

        return ZSim(tiny_config, threads=[
            SimThread(InstrumentedStream(stuck("a")), name="spin-a"),
            SimThread(InstrumentedStream(stuck("b")), name="spin-b")])

    def test_deadlock_is_typed_and_carries_the_blocked_set(
            self, tiny_config):
        sim = self._deadlocked_sim(tiny_config)
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        err = excinfo.value
        assert isinstance(err, RuntimeError)  # old handlers keep working
        assert err.next_wake is None
        names = {entry["thread"] for entry in err.blocked}
        assert names == {"spin-a", "spin-b"}

    def test_unknown_backend_is_a_typed_config_error(self):
        with pytest.raises(ConfigError):
            make_backend("quantum")
        with pytest.raises(ValueError, match="backend"):
            make_backend("quantum")

    def test_config_validation_raises_config_error(self):
        cfg = small_test_system(num_cores=2)
        cfg = dataclasses.replace(
            cfg, boundweave=dataclasses.replace(cfg.boundweave,
                                                recovery_max_retries=0))
        with pytest.raises(ConfigError, match="retries"):
            cfg.validate()


# ---------------------------------------------------------------------
# Wall-clock budget
# ---------------------------------------------------------------------


class TestWallClockBudget:
    def _sim(self, tmp_path=None):
        cfg = small_test_system(num_cores=4)
        wl = mt_workload("blackscholes", scale=1 / 64, num_threads=4)
        sim = ZSim(cfg, threads=wl.make_threads(target_instrs=8_000))
        if tmp_path is not None:
            sim.checkpointer = Checkpointer(str(tmp_path), every=1)
        return sim

    def test_exhausted_budget_raises_typed_error(self):
        sim = self._sim()
        sim.max_wall_seconds = 0.0
        with pytest.raises(WallClockExceeded) as excinfo:
            sim.run()
        err = excinfo.value
        assert err.budget_s == 0.0
        assert err.checkpoint_path is None

    def test_budget_stop_writes_a_final_checkpoint(self, tmp_path):
        sim = self._sim(tmp_path / "ckpt")
        sim.max_wall_seconds = 0.0
        with pytest.raises(WallClockExceeded) as excinfo:
            sim.run()
        path = excinfo.value.checkpoint_path
        assert path is not None and os.path.exists(path)
        assert read_checkpoint(path)["version"] == FORMAT_VERSION


# ---------------------------------------------------------------------
# Checkpoint format and resume
# ---------------------------------------------------------------------


def _small_sim(instrs=8_000):
    cfg = small_test_system(num_cores=4)
    wl = mt_workload("blackscholes", scale=1 / 64, num_threads=4)
    return ZSim(cfg, threads=wl.make_threads(target_instrs=instrs)), wl


class TestCheckpointFormat:
    def test_roundtrip_preserves_capsule_fields(self, tmp_path):
        sim, _ = _small_sim()
        path = str(tmp_path / "ckpt.pkl")
        write_checkpoint(path, sim, interval=0, limit=1000,
                         meta={"workload": "blackscholes"})
        capsule = read_checkpoint(path)
        assert capsule["version"] == FORMAT_VERSION
        assert capsule["interval"] == 0
        assert capsule["limit"] == 1000
        assert capsule["backend"] == "serial"
        assert capsule["meta"] == {"workload": "blackscholes"}
        assert capsule["config_name"] == sim.config.name

    def test_not_a_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(b"hello world\nnot a checkpoint")
        with pytest.raises(CheckpointError):
            read_checkpoint(str(path))

    def test_version_skew_is_typed(self, tmp_path):
        body = pickle.dumps({})
        path = tmp_path / "future.pkl"
        path.write_bytes(b"repro-ckpt %d %08x\n"
                         % (FORMAT_VERSION + 1, zlib.crc32(body))
                         + body)
        with pytest.raises(CheckpointVersionError) as excinfo:
            read_checkpoint(str(path))
        assert excinfo.value.found == FORMAT_VERSION + 1
        assert excinfo.value.expected == FORMAT_VERSION

    def test_corrupt_payload_fails_the_checksum(self, tmp_path):
        sim, _ = _small_sim()
        path = str(tmp_path / "ckpt.pkl")
        write_checkpoint(path, sim, interval=0, limit=1000)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_latest_picks_highest_interval(self, tmp_path):
        assert latest(str(tmp_path)) is None
        for interval in (3, 12, 7):
            (tmp_path / ("ckpt-%08d.pkl" % interval)).write_bytes(b"")
        assert latest(str(tmp_path)).endswith("ckpt-%08d.pkl" % 12)

    def test_checkpointer_stride_and_prune(self, tmp_path):
        sim, _ = _small_sim()
        ckpt = Checkpointer(str(tmp_path), every=2, keep=2)
        for interval in range(1, 7):
            ckpt.maybe_save(sim, interval, limit=1000 * interval)
        names = sorted(os.listdir(str(tmp_path)))
        prefix = "ckpt-%s-" % ckpt.run_id
        assert names == ["%s%08d.pkl" % (prefix, 4),
                         "%s%08d.pkl" % (prefix, 6)]
        assert ckpt.saved == 3  # intervals 2, 4, 6

    def test_prune_spares_other_runs_in_a_shared_dir(self, tmp_path):
        """Two runs sharing --checkpoint-dir: each prunes only its own
        files, so one run's stride can no longer delete the other's
        newest checkpoint out from under a resume (regression)."""
        sim, _ = _small_sim()
        mine = Checkpointer(str(tmp_path), every=1, keep=1)
        other = Checkpointer(str(tmp_path), every=1, keep=1)
        # A legacy unqualified checkpoint must survive pruning too.
        legacy = tmp_path / ("ckpt-%08d.pkl" % 1)
        legacy.write_bytes(b"")
        other.save(sim, 1, limit=1000)
        mine.save(sim, 1, limit=1000)
        mine.save(sim, 2, limit=2000)  # prunes mine's interval 1 only
        names = set(os.listdir(str(tmp_path)))
        assert "ckpt-%s-%08d.pkl" % (other.run_id, 1) in names
        assert "ckpt-%s-%08d.pkl" % (mine.run_id, 1) not in names
        assert "ckpt-%s-%08d.pkl" % (mine.run_id, 2) in names
        assert legacy.name in names
        # latest() reads across runs and both filename forms.
        assert latest(str(tmp_path)).endswith("-%08d.pkl" % 2)


class TestResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        baseline_sim, _ = _small_sim()
        baseline = _stats_tree(baseline_sim.run())

        partial, wl = _small_sim()
        partial.checkpointer = Checkpointer(str(tmp_path), every=1)
        partial.run(max_intervals=5)  # "killed" mid-run

        capsule = read_checkpoint(latest(str(tmp_path)))
        threads = wl.make_threads(target_instrs=8_000)
        resumed = ZSim.resume(capsule, threads)
        assert_equivalent(_stats_tree(resumed.run()), baseline,
                          context="resume vs uninterrupted")

    def test_resume_after_fault_recovery_matches(self, tmp_path,
                                                 serial_baseline):
        """Checkpointing composes with supervision: recover from a
        corrupted weave queue, checkpoint, stop, resume, and the stats
        still match."""
        sim = _matrix_sim("process")
        FaultPlan.parse("corrupt@2:d1").install(sim.backend)
        Supervisor(sim, max_retries=3, backoff_intervals=1)
        sim.checkpointer = Checkpointer(str(tmp_path), every=1)
        sim.run(max_intervals=6)

        capsule = read_checkpoint(latest(str(tmp_path)))
        wl = mt_workload("blackscholes", scale=1 / 64, num_threads=16)
        resumed = ZSim.resume(capsule, wl.make_threads(
            target_instrs=25_000))
        assert_equivalent(_stats_tree(resumed.run()), serial_baseline,
                          context="resume after recovery")

    def test_capsule_from_retired_backend_resumes_on_serial(
            self, tmp_path, caplog):
        """Capsules written under the since-deleted thread backends
        name them in ``backend``; they resume on serial, with a warning,
        to the uninterrupted run's stats."""
        baseline_sim, _ = _small_sim()
        baseline = _stats_tree(baseline_sim.run())

        partial, wl = _small_sim()
        partial.checkpointer = Checkpointer(str(tmp_path), every=1)
        partial.run(max_intervals=5)
        capsule = read_checkpoint(latest(str(tmp_path)))
        capsule["backend"] = "parallel"
        # repro's logger tree may have stopped propagating (see
        # repro.obs.log.configure_logging): listen on it directly.
        logger = logging.getLogger("repro")
        logger.addHandler(caplog.handler)
        try:
            with caplog.at_level("WARNING", logger="repro"):
                resumed = ZSim.resume(
                    capsule, wl.make_threads(target_instrs=8_000))
        finally:
            logger.removeHandler(caplog.handler)
        assert isinstance(resumed.backend, SerialBackend)
        assert "retired 'parallel' backend" in caplog.text
        assert_equivalent(_stats_tree(resumed.run()), baseline,
                          context="retired-backend capsule resumed")

    def test_resume_rejects_wrong_thread_count(self, tmp_path):
        sim, wl = _small_sim()
        path = str(tmp_path / "ckpt.pkl")
        write_checkpoint(path, sim, interval=0, limit=1000)
        capsule = read_checkpoint(path)
        threads = wl.make_threads(target_instrs=8_000)[:-1]
        with pytest.raises(CheckpointError, match="threads"):
            ZSim.resume(capsule, threads)

"""The state-integrity sentinel (repro.resilience.integrity).

Headline properties:

* The fingerprint chain is a pure function of simulated state: every
  backend produces the same chain, and the chain survives checkpoint
  and resume.
* Silent corruption — state damage that raises nothing — is detected
  by the online auditor within one audit stride, rolled back to the
  last fingerprint-verified barrier, and replayed serially to a stats
  tree byte-identical to a fault-free serial run.
* ``repro verify`` certifies a clean checkpoint chain and flags a
  tampered capsule, and ``--resume`` refuses one outright.
"""

import json
import pickle
import zlib

import pytest

from repro.cli import main as cli_main
from repro.config import (
    BoundWeaveConfig,
    CacheConfig,
    CoreConfig,
    SystemConfig,
)
from repro.config.loader import config_from_dict
from repro.core import ZSim
from repro.errors import ConfigError, ExecutionFault, IntegrityError
from repro.resilience import (
    Checkpointer,
    FaultPlan,
    IntegritySentinel,
    Supervisor,
    fingerprint_components,
    read_checkpoint,
    verify_state,
    write_checkpoint,
)
from repro.stats import assert_equivalent
from repro.workloads import mt_workload

def _config(backend, audit_every=1):
    """16 cores over 4 tiles so the weave runs multiple domains and the
    process backend has cores to speculate on."""
    cfg = SystemConfig(
        name="integrity-16c",
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
                                    process_workers=2,
                                    audit_every=audit_every),
    )
    return cfg.validate()


def _sim(backend, audit_every=1, instrs=25_000):
    config = _config(backend, audit_every)
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=config.num_cores)
    return ZSim(config, threads=wl.make_threads(target_instrs=instrs))


def _stats_tree(result):
    tree = result.stats().to_dict()
    tree.pop("host", None)
    return tree


@pytest.fixture(scope="module")
def serial_baseline():
    """Fault-free serial run, with its sentinel's final chain."""
    sim = _sim("serial")
    tree = _stats_tree(sim.run())
    return tree, sim.integrity.chain


# ---------------------------------------------------------------------
# Fingerprint chain basics
# ---------------------------------------------------------------------


class TestFingerprintChain:
    def test_sentinel_installed_from_config(self):
        sim = _sim("serial", audit_every=2)
        assert isinstance(sim.integrity, IntegritySentinel)
        assert sim.integrity.audit_every == 2

    def test_disabled_by_default(self):
        cfg = dict(name="plain", num_tiles=1, cores_per_tile=4,
                   core=CoreConfig(model="simple"))
        sim = ZSim(SystemConfig(**cfg).validate(),
                   threads=mt_workload(
                       "blackscholes", scale=1 / 64,
                       num_threads=4).make_threads(target_instrs=5_000))
        assert sim.integrity is None

    def test_chain_identical_across_backends(self, serial_baseline):
        _tree, serial_chain = serial_baseline
        sim = _sim("process")
        sim.run()
        assert sim.integrity.chain == serial_chain
        assert sim.integrity.violations == 0

    def test_component_digests_name_subsystems(self):
        sim = _sim("serial")
        sim.run(max_intervals=3)
        digests = fingerprint_components(sim)
        assert "core0" in digests
        assert "sched" in digests
        assert any(key.startswith("mem.l1d") for key in digests)
        assert any(key.startswith("weave.domain") for key in digests)
        assert all(isinstance(v, int) for v in digests.values())

    def test_digests_are_deterministic(self):
        sim = _sim("serial")
        sim.run(max_intervals=3)
        assert fingerprint_components(sim, deep=True) == \
            fingerprint_components(sim, deep=True)

    def test_summary_shape(self):
        sim = _sim("serial", audit_every=2)
        result = sim.run(max_intervals=4)
        summary = sim.integrity.summary()
        assert summary["fingerprints"] == 4
        assert summary["audits"] == 2
        assert summary["violations"] == 0
        assert result.stats().to_dict()["host"]["integrity"] == summary


# ---------------------------------------------------------------------
# Online invariant auditing
# ---------------------------------------------------------------------


class TestAuditor:
    def test_clean_run_audits_quietly(self):
        sim = _sim("serial")
        sim.run()
        assert sim.integrity.audits > 0
        assert sim.integrity.violations == 0

    def test_inclusion_violation_detected(self):
        """Manufacture the silent-corruption shape by hand: evict a
        child-resident line from its parent without telling anyone."""
        sim = _sim("serial")
        sim.run(max_intervals=2)
        l1d = sim.hierarchy.l1d[0]
        for line, _state in l1d.array.resident_lines():
            parent, _net = l1d.parent_select(line)
            if getattr(parent, "array", None) is not None and \
                    parent.array.lookup(line, touch=False) is not None:
                parent.array.invalidate(line)
                break
        else:
            pytest.skip("no L1D-resident line cached in its parent")
        with pytest.raises(IntegrityError) as info:
            sim.integrity.audit(sim)
        assert info.value.component.startswith("mem.")
        assert info.value.excerpt

    def test_scheduler_violation_detected(self):
        sim = _sim("serial")
        sim.run(max_intervals=2)
        sched = sim.scheduler
        # The same thread registered as running on two cores at once.
        thread = next(t for t in sched.threads)
        sched._running[0] = thread
        sched._running[1] = thread
        with pytest.raises(IntegrityError) as info:
            sim.integrity.audit(sim)
        assert info.value.component == "sched"

    def test_integrity_error_is_execution_fault(self):
        err = IntegrityError("boom", component="core0", excerpt="x",
                             interval=3, phase="audit")
        assert isinstance(err, ExecutionFault)
        assert err.component == "core0"
        assert err.interval == 3


# ---------------------------------------------------------------------
# Silent corruption: detect, roll back, recover (the tentpole e2e)
# ---------------------------------------------------------------------


class TestSilentCorruptionRecovery:
    @pytest.mark.parametrize("backend", ("process",))
    def test_corrupt_detected_and_rolled_back(self, backend,
                                              serial_baseline):
        baseline, _chain = serial_baseline
        sim = _sim(backend)
        FaultPlan.parse("corrupt@3:c2").install(sim.backend)
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        result = sim.run()
        assert supervisor.integrity_rollbacks == 1
        entry = supervisor.history[0]
        assert entry["kind"] == "IntegrityError"
        assert entry["component"].startswith("mem.")
        assert sim.backend.fault_plan.remaining() == []
        assert_equivalent(baseline, _stats_tree(result))

    def test_corruption_predating_detection(self, serial_baseline):
        """With stride 2, corruption lands at an unaudited barrier and
        propagates silently; the rollback must span back past it to the
        last *verified* barrier, not just the previous interval."""
        baseline, _chain = serial_baseline
        sim = _sim("process", audit_every=2)
        FaultPlan.parse("corrupt@3:c2").install(sim.backend)
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        result = sim.run()
        assert supervisor.integrity_rollbacks == 1
        assert supervisor.history[0]["interval"] == 4
        assert supervisor.history[0]["rollback_intervals"] == 2
        assert_equivalent(baseline, _stats_tree(result))

    def test_integrity_fault_demotes_immediately(self):
        sim = _sim("process")
        FaultPlan.parse("corrupt@3:c2").install(sim.backend)
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        sim.run()
        assert [(d["from"], d["to"]) for d in supervisor.demotions] == [
            ("process", "serial")]

    def test_loud_corrupt_still_recovers(self, serial_baseline):
        """The d-selector flavor (weave queue timestamps) keeps its
        HorizonViolation path under the span supervisor."""
        baseline, _chain = serial_baseline
        sim = _sim("process")
        FaultPlan.parse("corrupt@3:d1").install(sim.backend)
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        result = sim.run()
        assert supervisor.recoveries == 1
        assert supervisor.history[0]["kind"] == "HorizonViolation"
        assert_equivalent(baseline, _stats_tree(result))

    def test_second_strike_escalates(self):
        """A divergence that reproduces at the same (interval,
        component) raises out of the supervisor: the fleet's breaker
        quarantines, recovery is not retried forever."""
        sim = _sim("process")
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        interval = sim.config.boundweave.interval_cycles
        supervisor.run_interval(interval)
        fault = IntegrityError("synthetic divergence",
                               component="core0", interval=2,
                               phase="audit")
        supervisor._recover_span(fault, 2 * interval)
        assert supervisor.integrity_rollbacks == 1
        with pytest.raises(IntegrityError):
            supervisor._recover_span(fault, 3 * interval)


# ---------------------------------------------------------------------
# Checkpoints: capsule records, resume verification, repro verify
# ---------------------------------------------------------------------


def _run_with_checkpoints(tmp_path, audit_every=1, every=2):
    sim = _sim("serial", audit_every=audit_every)
    sim.checkpointer = Checkpointer(str(tmp_path), every=every)
    result = sim.run()
    return sim, result


class TestCheckpointIntegration:
    def test_capsule_carries_integrity_record(self, tmp_path):
        sim, _result = _run_with_checkpoints(tmp_path)
        capsule = read_checkpoint(sim.checkpointer.last_path)
        record = capsule["meta"]["integrity"]
        assert record["interval"] == capsule["interval"]
        assert record["components"]
        verify_state(capsule["sim"], record, context="test")

    def test_resume_verifies_and_matches(self, tmp_path):
        baseline_tree = _stats_tree(_sim("serial").run())
        sim, _result = _run_with_checkpoints(tmp_path)
        capsule = read_checkpoint(sim.checkpointer.last_path)
        config = _config("serial")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=config.num_cores)
        resumed = ZSim.resume(
            capsule, wl.make_threads(target_instrs=25_000),
            backend="serial", flight=False)
        assert resumed.integrity is not None
        tree = _stats_tree(resumed.run())
        assert_equivalent(baseline_tree, tree)

    def test_resume_refuses_tampered_capsule(self, tmp_path):
        sim, _result = _run_with_checkpoints(tmp_path)
        path = sim.checkpointer.last_path
        capsule = read_checkpoint(path, load_sim=False)
        key = sorted(capsule["meta"]["integrity"]["components"])[0]
        capsule["meta"]["integrity"]["components"][key] ^= 1
        body = pickle.dumps(capsule, protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, "wb") as fh:
            fh.write(b"repro-ckpt 1 %08x\n"
                     % (zlib.crc32(body) & 0xFFFFFFFF))
            fh.write(body)
        tampered = read_checkpoint(path)
        config = _config("serial")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=config.num_cores)
        with pytest.raises(IntegrityError) as info:
            ZSim.resume(tampered,
                        wl.make_threads(target_instrs=25_000),
                        backend="serial", flight=False)
        assert info.value.component == key

    def test_checkpointer_survives_write_failure(self, tmp_path,
                                                 monkeypatch):
        """Satellite: a full/read-only disk logs one warning and the
        run keeps going without resume capsules."""
        sim = _sim("serial")
        sim.checkpointer = Checkpointer(str(tmp_path), every=1)

        def enospc(*_args, **_kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr("repro.resilience.checkpoint.os.replace",
                            enospc)
        result = sim.run()
        assert result.instrs > 0
        assert sim.checkpointer.saved == 0
        assert sim.checkpointer._write_failed
        events = [e for e in sim.flight.events()
                  if e["kind"] == "checkpoint_failed"]
        assert events
        # No half-written temp files left behind.
        assert not [p for p in tmp_path.iterdir()
                    if p.name.endswith(".tmp")]

    def test_write_checkpoint_cleans_tmp_on_oserror(self, tmp_path,
                                                    monkeypatch):
        sim = _sim("serial")
        sim.run(max_intervals=2)

        def enospc(*_args, **_kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr("repro.resilience.checkpoint.os.replace",
                            enospc)
        with pytest.raises(OSError):
            write_checkpoint(str(tmp_path / "c.pkl"), sim, 2, 3000)
        assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def _checkpointed_run(self, tmp_path):
        ckpts = tmp_path / "ckpts"
        argv = ["run", "--config", "test", "--cores", "8",
                "--workload", "blackscholes", "--scale", "0.02",
                "--instrs", "20000", "--audit-every", "1",
                "--checkpoint-dir", str(ckpts),
                "--checkpoint-every", "2", "--no-flight"]
        assert cli_main(argv) == 0
        return ckpts

    def test_verify_certifies_clean_chain(self, tmp_path, capsys):
        ckpts = self._checkpointed_run(tmp_path)
        assert cli_main(["verify", str(ckpts)]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        assert "replayed 1 span(s)" in out
        assert "chain matches" in out

    def test_verify_flags_tampered_capsule(self, tmp_path, capsys):
        ckpts = self._checkpointed_run(tmp_path)
        paths = sorted(ckpts.glob("ckpt-*.pkl"))
        path = paths[-1]
        capsule = read_checkpoint(str(path), load_sim=False)
        key = sorted(capsule["meta"]["integrity"]["components"])[0]
        capsule["meta"]["integrity"]["components"][key] ^= 1
        body = pickle.dumps(capsule, protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, "wb") as fh:
            fh.write(b"repro-ckpt 1 %08x\n"
                     % (zlib.crc32(body) & 0xFFFFFFFF))
            fh.write(body)
        assert cli_main(["verify", str(ckpts), "--replay", "0"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and key in out

    def test_verify_flags_missing_record(self, tmp_path, capsys):
        sim = _sim("serial", audit_every=0)   # no sentinel at all
        assert sim.integrity is None
        sim.checkpointer = Checkpointer(str(tmp_path), every=2)
        sim.run()
        assert cli_main(["verify", str(tmp_path), "--replay", "0"]) == 1
        assert "no integrity record" in capsys.readouterr().out


# ---------------------------------------------------------------------
# Config loader typing (satellite)
# ---------------------------------------------------------------------


class TestConfigTyping:
    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match="system.l2"):
            config_from_dict({"l2": {"assoc": 8}})

    def test_wrong_scalar_type_names_path(self):
        with pytest.raises(ConfigError,
                           match=r"system\.l2\.ways: expected int, "
                                 r"got str"):
            config_from_dict({"l2": {"ways": "8"}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="expected int, got bool"):
            config_from_dict({"core": {"freq_mhz": True}})

    def test_int_accepted_where_float_declared(self):
        cfg = config_from_dict(
            {"boundweave": {"heartbeat_budget_s": 2}})
        assert cfg.boundweave.heartbeat_budget_s == 2

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="expected an object"):
            config_from_dict({"l2": "big"})

    def test_config_error_is_value_error(self):
        with pytest.raises(ValueError):
            config_from_dict({"l2": {"ways": "8"}})

    def test_audit_every_validated(self):
        with pytest.raises(ConfigError, match="audit_every"):
            config_from_dict({"boundweave": {"audit_every": -1}})

    def test_strict_config_flag_is_accepted(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["run", "--strict-config", "--instrs", "1000"])
        assert args.strict_config

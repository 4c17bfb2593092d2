"""Execution backends: serial and process must produce identical
simulated results (the determinism contract of repro.exec)."""

import copy
import dataclasses

import pytest

from repro.config import (
    BoundWeaveConfig,
    CacheConfig,
    CoreConfig,
    SystemConfig,
    small_test_system,
)
from repro.core import ZSim
from repro.core.simulator import CONTENTION_MODELS, _MD1Memory
from repro.exec import BACKEND_NAMES, make_backend
from repro.exec.process import ProcessBackend
from repro.exec.serial import SerialBackend
from repro.stats import assert_equivalent
from repro.workloads import mt_workload


def _multi_tile_config():
    """16 cores over 4 tiles so the weave runs 4 domains."""
    cfg = SystemConfig(
        name="exec-16c",
        num_tiles=4,
        cores_per_tile=4,
        core=CoreConfig(model="simple"),
        l1i=CacheConfig(name="l1i", size_kb=4, ways=2, latency=3),
        l1d=CacheConfig(name="l1d", size_kb=4, ways=4, latency=4),
        l2=CacheConfig(name="l2", size_kb=16, ways=4, latency=7,
                       shared_by=4),
        l2_shared_per_tile=True,
        l3=CacheConfig(name="l3", size_kb=64, ways=8, latency=14, banks=4,
                       shared_by=16),
        boundweave=BoundWeaveConfig(host_threads=4),
    )
    return cfg.validate()


def _hetero_config():
    cfg = small_test_system(num_cores=4)
    return dataclasses.replace(
        cfg, hetero_cores={0: CoreConfig(model="ooo")}).validate()


CONFIGS = {
    "ooo2": lambda: small_test_system(num_cores=2, core_model="ooo"),
    "tiled16": _multi_tile_config,
    "hetero": _hetero_config,
}


def _simulated_stats(config, contention, backend, instrs=25_000):
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=config.num_cores)
    sim = ZSim(config, threads=wl.make_threads(target_instrs=instrs),
               contention_model=contention, backend=backend)
    result = sim.run()
    return result.stats().to_dict()


class TestBackendEquivalence:
    @pytest.mark.parametrize("contention", CONTENTION_MODELS)
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_backends_match_serial(self, config_name, contention):
        baseline = _simulated_stats(CONFIGS[config_name](), contention,
                                    "serial")
        tree = _simulated_stats(CONFIGS[config_name](), contention,
                                "process")
        # The host subtree holds wall-clock measurements, which
        # legitimately differ across backends; everything else is
        # simulated state and must match the serial reference exactly.
        # assert_equivalent reports the diverged paths.
        assert_equivalent(
            tree, baseline, ignore=("host",),
            context="process backend vs serial (%s, %s)"
            % (config_name, contention))


class TestBackendSelection:
    def test_default_is_serial(self, tiny_config):
        sim = ZSim(tiny_config)
        assert isinstance(sim.backend, SerialBackend)
        assert sim.host_model.backend_name == "serial"

    def test_config_field_selects_backend(self, tiny_config):
        cfg = dataclasses.replace(
            tiny_config,
            boundweave=dataclasses.replace(tiny_config.boundweave,
                                           backend="process"))
        sim = ZSim(cfg)
        assert isinstance(sim.backend, ProcessBackend)
        sim.backend.shutdown()

    def test_explicit_arg_overrides_config(self, tiny_config):
        cfg = dataclasses.replace(
            tiny_config,
            boundweave=dataclasses.replace(tiny_config.boundweave,
                                           backend="process"))
        sim = ZSim(cfg, backend="serial")
        assert isinstance(sim.backend, SerialBackend)

    def test_unknown_backend_rejected(self, tiny_config):
        # The deleted thread backends' names are unknown names too.
        for name in ("gpu", "parallel", "pipelined"):
            with pytest.raises(ValueError, match="backend"):
                ZSim(tiny_config, backend=name)
            with pytest.raises(ValueError, match="backend"):
                make_backend(name)

    def test_config_validation_rejects_unknown_backend(self, tiny_config):
        cfg = dataclasses.replace(
            tiny_config,
            boundweave=dataclasses.replace(tiny_config.boundweave,
                                           backend="gpu"))
        with pytest.raises(ValueError, match="backend"):
            cfg.validate()

    def test_backend_names_registry(self):
        assert BACKEND_NAMES == ("serial", "process")
        for name in BACKEND_NAMES:
            assert make_backend(name).name == name


class TestMD1MemoryAttributeSafety:
    def test_missing_dunder_raises_attribute_error(self, tiny_config):
        sim = ZSim(tiny_config, contention_model="md1")
        with pytest.raises(AttributeError):
            sim.mem.__getstate__missing__  # noqa: B018

    def test_half_built_instance_does_not_recurse(self):
        mem = _MD1Memory.__new__(_MD1Memory)
        with pytest.raises(AttributeError):
            mem.hierarchy

    def test_copyable(self, tiny_config):
        sim = ZSim(tiny_config, contention_model="md1")
        clone = copy.copy(sim.mem)
        assert clone.hierarchy is sim.mem.hierarchy

    def test_delegation_still_works(self, tiny_config):
        sim = ZSim(tiny_config, contention_model="md1")
        assert sim.mem.config is tiny_config


class TestBackendObservability:
    def test_host_node_reports_measured_and_modeled_speedup(self,
                                                            tiny_config):
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=tiny_config.num_cores)
        sim = ZSim(tiny_config,
                   threads=wl.make_threads(target_instrs=25_000))
        result = sim.run()
        host = result.stats().to_dict()["host"]
        assert host["backend"] == "serial"
        assert host["measured_wall_seconds"] > 0
        assert host["measured_speedup"] > 0
        # The modeled curves come from the analytic HostModel, not from
        # host threads: both the bound-weave and the pipelined one.
        assert "x1" in host["speedup"]
        assert "x1" in host["pipelined_speedup"]

    def test_shutdown_is_idempotent_and_restartable(self, tiny_config):
        sim = ZSim(tiny_config, backend="process")
        sim.backend.pool_size = 2
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=tiny_config.num_cores)
        for thread in wl.make_threads(target_instrs=5_000):
            sim.add_thread(thread)
        sim.run(max_intervals=3)   # run() shuts the backend down
        sim.backend.shutdown()     # second shutdown is a no-op
        sim.run(max_intervals=3)   # the pool re-forks per pass
        sim.backend.shutdown()

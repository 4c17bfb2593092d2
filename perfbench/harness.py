"""Workloads, set-up, output checks and exact counts of the benchmark.

Everything here drives the simulator through its public API
(``ZSim(...)``, ``.run()``, ``.stats()``) and never changes it.  One
seed drives both the workload factory and ``boundweave.seed``, so the
same seed gives the same simulation, bit for bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import json
import pathlib
import sys
import time
from typing import Callable

import pace

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFS = pathlib.Path(__file__).resolve().parent / "refs"

# The checkout's own sources, never an installed copy: the benchmark
# measures the tree it ships with, and fails without one.
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
    raise ImportError("repro was imported from %s, not from %s"
                      % (repro.__file__, SRC))

from repro.config import tiled_chip, westmere  # noqa: E402
from repro.core.simulator import ZSim  # noqa: E402
from repro.harness.performance import with_core_model  # noqa: E402
from repro.stats.diff import diff_trees  # noqa: E402
from repro.workloads import mt_workload, spec_workload  # noqa: E402

#: Seed of the runs made without ``--seed``; it has a recorded reference.
DEFAULT_SEED = 0
#: Seed never used while the benchmark was tuned; it has a reference too.
HELD_OUT_SEED = 9973


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One benchmark workload: a chip, a workload recipe, a length."""

    name: str
    why: str
    make_config: Callable        # () -> SystemConfig
    make_workload: Callable      # (seed) -> repro.workloads.Workload
    num_threads: int
    target_instrs: int
    #: Interval limit of the opcode-counted run (it costs ~50x wall).
    ledger_intervals: int

    def config(self, seed):
        cfg = self.make_config()
        return dataclasses.replace(
            cfg, boundweave=dataclasses.replace(cfg.boundweave, seed=seed))


SCENARIOS = {s.name: s for s in (
    Scenario(
        name="namd-1c",
        why=("1 OOO core, compute-bound L1-resident SPEC namd: the core "
             "timing model does the work; memory walk and weave are bypassed"),
        make_config=lambda: with_core_model(westmere(num_cores=1), "ooo"),
        make_workload=lambda seed: spec_workload("namd", scale=1 / 32,
                                                 seed=seed),
        num_threads=1,
        target_instrs=200_000,
        ledger_intervals=20,
    ),
    Scenario(
        name="canneal-4c",
        why=("4 OOO cores write a shared pointer-chased graph under locks: "
             "coherence walk and L3 directory; single weave domain"),
        make_config=lambda: with_core_model(westmere(num_cores=4), "ooo"),
        make_workload=lambda seed: mt_workload("canneal", scale=1 / 32,
                                               num_threads=4, seed=seed),
        num_threads=4,
        target_instrs=125_000,
        ledger_intervals=12,
    ),
    Scenario(
        name="ocean-256c",
        why=("256 simple cores on 32 tiles: multi-domain weave drain, "
             "barriers and a 3 s set-up; the core model is bypassed"),
        make_config=lambda: tiled_chip(num_tiles=32, cores_per_tile=8,
                                       core_model="simple"),
        make_workload=lambda seed: mt_workload("ocean", scale=1 / 32,
                                               num_threads=256, seed=seed),
        num_threads=256,
        target_instrs=262_144,
        ledger_intervals=4,
    ),
)}


def setup(scenario, seed):
    """Config, threads and simulator: the set-up a user pays per run.
    The modelled caches start empty."""
    config = scenario.config(seed)
    threads = scenario.make_workload(seed).make_threads(
        target_instrs=scenario.target_instrs,
        num_threads=scenario.num_threads)
    # Default observers (flight recorder on) and the config's default
    # serial backend, as `repro run` uses them.
    return ZSim(config, threads=threads, contention_model="weave")


def simulated_tree(tree):
    """The simulated part of a stats tree: everything outside ``host``."""
    return {key: value for key, value in tree.items() if key != "host"}


def reference_path(scenario, seed):
    return REFS / ("%s.seed%d.json.gz" % (scenario.name, seed))


def load_reference(scenario, seed):
    """The recorded simulated stats tree of this seed, or None."""
    path = reference_path(scenario, seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def check_outputs(scenario, sim, tree, reference):
    """Problems with one completed run (empty when it is correct).
    ``tree`` is the run's ``stats().to_dict()``."""
    problems = []
    if not sim.scheduler.all_done:
        problems.append("threads left unfinished")
    if tree["instrs"] < scenario.target_instrs:
        problems.append("%d instrs, target %d"
                        % (tree["instrs"], scenario.target_instrs))
    problems.extend(check_invariants(sim))
    if reference is not None:
        diff = diff_trees(tree, reference, ignore=("host",))
        if not diff.equivalent:
            problems.append("stats differ from the reference: "
                            + diff.render(max_report=5))
    return problems


def check_invariants(sim):
    """Coherence and inclusion violations of the final cache state."""
    problems = []
    coherence = sim.hierarchy.check_coherence()
    if coherence:
        problems.append("%d coherence violations, first %r"
                        % (len(coherence), coherence[0]))
    inclusion = sim.hierarchy.check_inclusion()
    if inclusion:
        problems.append("%d inclusion violations, first %r"
                        % (len(inclusion), inclusion[0]))
    return problems


def exact_counts(sim, tree):
    """Counts of simulated work, from the ``stats()`` tree and
    ``BoundPhase``.  Runs of one seed repeat them exactly."""
    dbt = tree["host"]["dbt"]
    weave = tree.get("weave", {})
    return {
        "instrs": tree["instrs"],
        "cycles": tree["cycles"],
        "intervals": sim.bound.intervals,
        "syscalls": sim.bound.syscalls,
        "domains": len(sim.weave.domains),
        "fastpath_hits": dbt["fastpath_hits"],
        "l2_fastpath_hits": dbt["l2_fastpath_hits"],
        "slow_accesses": dbt["slow_accesses"],
        "dir_bitmask_ops": dbt["dir_bitmask_ops"],
        "translations": dbt["translations"],
        "translation_hits": dbt["translation_hits"],
        "events_allocated": dbt["events_allocated"],
        "events_recycled": dbt["events_recycled"],
        "weave_events": weave.get("events", 0),
        "weave_crossings": weave.get("crossings", 0),
    }


def count_metrics(counts):
    """Per-layer ratios of the exact counts (units in run.PER_LAYER)."""
    kinstr = counts["instrs"] / 1000.0
    accesses = (counts["fastpath_hits"] + counts["l2_fastpath_hits"]
                + counts["slow_accesses"])
    lookups = counts["translations"] + counts["translation_hits"]
    events = counts["events_allocated"] + counts["events_recycled"]
    return {
        "memory.accesses_per_kinstr": accesses / kinstr,
        "memory.fastpath_hit_rate": counts["fastpath_hits"] / accesses,
        "memory.l2_fastpath_per_kinstr":
            counts["l2_fastpath_hits"] / kinstr,
        "memory.slow_per_kinstr": counts["slow_accesses"] / kinstr,
        "memory.dir_ops_per_kinstr": counts["dir_bitmask_ops"] / kinstr,
        "weave.events_per_kinstr": counts["weave_events"] / kinstr,
        "weave.crossings_per_kinstr": counts["weave_crossings"] / kinstr,
        "weave.event_recycle_rate": counts["events_recycled"] / events,
        "weave.domains": counts["domains"],
        "dbt.translation_hit_rate": counts["translation_hits"] / lookups,
        "bound.intervals": counts["intervals"],
        "virt.syscalls": counts["syscalls"],
    }


@dataclasses.dataclass
class Run:
    """One set-up plus one run, with its check."""

    setup_s: float
    run_s: float
    instrs: int
    counts: dict
    problems: list
    #: Mean seconds of a ``pace`` kernel slice during the run.
    kernel_s: float = None

    @property
    def raw_mips(self):
        """Simulated MIPS per host second, as the host ran."""
        return self.instrs / self.run_s / 1e6

    @property
    def sim_mips(self):
        """Simulated MIPS per host second of the nominal-pace host."""
        return self.raw_mips * self.kernel_s / pace.NOMINAL_S

    @property
    def paced_setup_s(self):
        """Set-up seconds on the nominal-pace host."""
        return self.setup_s * pace.NOMINAL_S / self.kernel_s


def run_once(scenario, seed, reference, probe=None, sampler=None):
    """Set up and run one simulation to completion, then check it.
    Only set-up and ``run()`` are timed, inside ``probe`` if given.
    With a ``pace.PaceSampler``, its slices are taken out of both times
    and their mean is the run's ``kernel_s``."""
    with probe or contextlib.nullcontext(), \
            sampler or contextlib.nullcontext():
        start = time.perf_counter()
        sim = setup(scenario, seed)
        setup_end = time.perf_counter()
        result = sim.run()
        run_end = time.perf_counter()
    setup_s, run_s = setup_end - start, run_end - setup_end
    kernel_s = None
    if sampler is not None:
        setup_s -= sampler.spent(start, setup_end)
        run_s -= sampler.spent(setup_end, run_end)
        kernel_s = sampler.kernel_s
    tree = result.stats().to_dict()
    return Run(setup_s=setup_s, run_s=run_s, instrs=result.instrs,
               counts=exact_counts(sim, tree),
               problems=check_outputs(scenario, sim, tree, reference),
               kernel_s=kernel_s)

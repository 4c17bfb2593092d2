#!/usr/bin/env python3
"""The simulator's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ocean-256c --seed 3 \\
        --seconds 30 --trace 0

Load is a closed loop in one process: set up a fresh simulator (empty
modelled caches), run it to completion, check its outputs, repeat until
``--seconds`` are spent.  Each run is timed from outside the program
while ``pace.PaceSampler`` gauges the host's pace, which rescales its
host seconds to those of the nominal-pace host.

``--trace 0`` reports the end-to-end metrics (medians over the runs):
``sim_mips`` (simulated instructions per nominal-pace host second of
``run()``), ``setup_s`` (config, threads and ``ZSim(...)``, in
nominal-pace seconds) and ``peak_rss_mb`` (of this process, which ran
only this workload).  The unscaled medians are printed beside them.

``--trace 1`` reports the per-layer split instead: untraced and traced
runs alternate (the traced ones time each layer's entry points, see
``probes.ENTRY_POINTS``), then two opcode-counted runs at reduced
length give ``ops_per_instr.*`` and must agree exactly.

Every run is checked (``harness.check_outputs``); a run that fails the
check or raises counts as failed and is never dropped.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import harness
import pace
from probes import LEDGER_LAYERS, OpcodeLedger, SpanTimer

END_TO_END = {
    "sim_mips": "MIPS",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cpu.self_s": "s",
    "cpu.ns_per_instr": "ns/instr",
    "memory.access_s": "s",
    "memory.ns_per_access": "ns/access",
    "memory.accesses_per_kinstr": "count/kinstr",
    "memory.fastpath_hit_rate": "ratio",
    "memory.l2_fastpath_per_kinstr": "count/kinstr",
    "memory.slow_per_kinstr": "count/kinstr",
    "memory.dir_ops_per_kinstr": "count/kinstr",
    "weave.s": "s",
    "weave.ns_per_event": "ns/event",
    "weave.events_per_kinstr": "count/kinstr",
    "weave.crossings_per_kinstr": "count/kinstr",
    "weave.event_recycle_rate": "ratio",
    "weave.domains": "count",
    "bound.self_s": "s",
    "bound.intervals": "count",
    "virt.s": "s",
    "virt.pick_thread_calls": "count",
    "virt.syscalls": "count",
    "barrier.s": "s",
    "barrier.us_per_interval": "us/interval",
    "setup.workload_s": "s",
    "setup.hierarchy_s": "s",
    "setup.other_s": "s",
    "dbt.translation_hit_rate": "ratio",
    "trace.overhead_pct": "%",
}
PER_LAYER.update(("ops_per_instr." + layer, "ops/instr")
                 for layer in LEDGER_LAYERS + ("total",))


class Tally:
    """Attempted and failed runs, the reason of each failure, and the
    exact counts every run of this seed must repeat."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.counts = None
        self.opcodes = None

    def attempt(self, fn, *args):
        """Call ``fn``; a raise counts as a failed run and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a crashed run is a result, not an abort
            self.failures.append(traceback.format_exc())
            return None

    def judge(self, problems):
        if problems:
            self.failures.append("; ".join(problems))


def timed_runs(scenario, seed, seconds, tally, traced=False, min_runs=3):
    """Runs of one seed until ``seconds`` are spent (at least
    ``min_runs``), each wrapped in a :class:`SpanTimer` when ``traced``.
    Returns ``[(Run, SpanTimer or None)]`` of the runs that completed."""
    reference = harness.load_reference(scenario, seed)
    runs = []
    start = time.perf_counter()
    attempted = 0
    while True:
        gc.collect()
        # A traced run is not sampled: the slices would land in its spans.
        probe = SpanTimer() if traced else None
        sampler = None if traced else pace.PaceSampler()
        run = tally.attempt(harness.run_once, scenario, seed, reference,
                            probe, sampler)
        attempted += 1
        if run is not None:
            problems = run.problems
            if tally.counts is None:
                tally.counts = run.counts
            elif run.counts != tally.counts:
                problems.append("exact counts %r differ from the first "
                                "run's %r" % (run.counts, tally.counts))
            if traced:
                problems.extend(_span_problems(run, probe))
            tally.judge(problems)
            runs.append((run, probe))
        elapsed = time.perf_counter() - start
        if attempted >= min_runs and elapsed * (1 + 1 / attempted) > seconds:
            return runs


def _span_problems(run, probe):
    """The traced run must have timed every access the hierarchy served."""
    counts = run.counts
    served = (counts["fastpath_hits"] + counts["l2_fastpath_hits"]
              + counts["slow_accesses"])
    if probe.calls["memory"] != served:
        return ["%d access calls timed, the hierarchy counted %d"
                % (probe.calls["memory"], served)]
    return []


def measure(scenario, seed, seconds, tally):
    """End-to-end metrics of untraced runs."""
    runs = [run for run, _ in timed_runs(scenario, seed, seconds, tally)]
    if not runs:
        return None
    for name, value in (
            ("raw sim_mips", statistics.median(run.raw_mips for run in runs)),
            ("raw setup_s", statistics.median(run.setup_s for run in runs)),
            ("kernel_s", statistics.median(run.kernel_s for run in runs))):
        print("%-32s %14.6g (host as it ran, median of %d runs)"
              % (name, value, len(runs)))
    return {
        "sim_mips": statistics.median(run.sim_mips for run in runs),
        "setup_s": statistics.median(run.paced_setup_s for run in runs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def counted_run(scenario, seed, tally):
    """Opcode ledger of one run cut at ``scenario.ledger_intervals``;
    every counted run of this seed must repeat the first one's counts."""
    sim = harness.setup(scenario, seed)
    ledger = OpcodeLedger()
    result = ledger.count(sim.run, max_intervals=scenario.ledger_intervals)
    problems = harness.check_invariants(sim)
    if tally.opcodes is None:
        tally.opcodes = dict(ledger.counts)
    elif ledger.counts != tally.opcodes:
        problems.append("opcode counts %r differ from the first counted "
                        "run's %r" % (ledger.counts, tally.opcodes))
    tally.judge(problems)
    return ledger, result.instrs


def measure_layers(scenario, seed, seconds, tally):
    """Per-layer metrics: untraced and traced runs alternate for half of
    ``seconds`` (at least one pair); then two opcode-counted runs."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds / 2:
        pair = (timed_runs(scenario, seed, 0, tally, min_runs=1),
                timed_runs(scenario, seed, 0, tally, traced=True,
                           min_runs=1))
        if not all(pair):
            break
        for run, _ in pair[1]:
            # Unsampled, a traced run takes the pace of the run before it.
            run.kernel_s = pair[0][-1][0].kernel_s
        untraced.extend(run for run, _ in pair[0])
        traced.extend(pair[1])
    ledgers = [tally.attempt(counted_run, scenario, seed, tally)
               for _ in range(2)]
    if not untraced or not traced or None in ledgers:
        return None

    n = len(traced)
    counts = tally.counts
    total, self_time, calls = (collections.Counter() for _ in range(3))
    for _, probe in traced:
        total.update(probe.total)
        self_time.update(probe.self_time)
        calls.update(probe.calls)
    instrs = n * counts["instrs"]
    barrier = total["run"] - total["bound"] - total["weave"]
    untraced_mips = statistics.median(run.sim_mips for run in untraced)
    traced_mips = statistics.median(run.sim_mips for run, _ in traced)
    metrics = {
        "cpu.self_s": self_time["cpu"] / n,
        "cpu.ns_per_instr": self_time["cpu"] / instrs * 1e9,
        "memory.access_s": total["memory"] / n,
        "memory.ns_per_access": total["memory"] / calls["memory"] * 1e9,
        "weave.s": total["weave"] / n,
        "weave.ns_per_event":
            total["weave"] / (n * counts["weave_events"]) * 1e9,
        "bound.self_s": self_time["bound"] / n,
        "virt.s": (total["virt.pick_thread"] + total["virt.syscall"]) / n,
        "virt.pick_thread_calls": calls["virt.pick_thread"] / n,
        "barrier.s": barrier / n,
        "barrier.us_per_interval": barrier / (n * counts["intervals"]) * 1e6,
        "setup.workload_s": total["setup.workload"] / n,
        "setup.hierarchy_s": total["setup.hierarchy"] / n,
        "setup.other_s": self_time["setup.sim"] / n,
        "trace.overhead_pct": 100.0 * (1.0 - traced_mips / untraced_mips),
    }
    metrics.update(harness.count_metrics(counts))
    ledger, ledger_instrs = ledgers[0]
    for layer in LEDGER_LAYERS:
        metrics["ops_per_instr." + layer] = (ledger.counts[layer]
                                             / ledger_instrs)
    metrics["ops_per_instr.total"] = ledger.total / ledger_instrs
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.SCENARIOS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One vCPU for the whole process, so the reference kernel gauges the
    # same vCPU the runs use (on a shared host their paces drift apart).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    scenario = harness.SCENARIOS[args.workload]
    print("workload %s (seed %d): %s" % (scenario.name, args.seed,
                                         scenario.why))
    tally = Tally()
    if args.trace:
        metrics = measure_layers(scenario, args.seed, args.seconds, tally)
        units = PER_LAYER
    else:
        metrics = measure(scenario, args.seed, args.seconds, tally)
        units = END_TO_END
    failed = len(tally.failures)
    for reason in tally.failures:
        print("FAILED: %s" % reason.rstrip(), file=sys.stderr)
    if metrics is None:
        print("no run completed", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print("%-32s %14.6g %s" % (name, metrics[name], unit))
    print("%-32s %14.6g share of %d runs" % (
        "run_fail_frac", failed / tally.attempted, tally.attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Hot-path microbenchmark: simulated MIPS of the per-instruction data
plane, emitted as machine-readable JSON.

Two pinned scenarios track the data-plane trajectory (ISSUE 7):

* ``single`` — a bench_fig7-style single-thread run: 1 Westmere OOO
  core, weave contention, one compute-bound and one memory-bound
  SPEC-like app.
* ``16core`` — an end-to-end 16-core tiled run (OOO, weave contention,
  serial backend) on a multithreaded workload.
* ``pingpong`` — a coherence-heavy 4-core run (ISSUE 10): canneal's
  high-sharing pointer chase bounces written lines between private
  caches, so wall time lives in the directory walk, not the L1 fast
  path.  This is where the coherence walk is measured.

Unlike the pytest figure benchmarks, this is a standalone script so CI
can run it directly and assert a MIPS floor::

    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --label after --json benchmarks/results/bench_hotpath_after.json

The JSON lands in ``benchmarks/results/`` by default (committed
before/after pairs seed the BENCH_*.json trajectory).  ``--assert-mips``
exits non-zero when the harmonic-mean single-thread MIPS falls below the
floor (the CI perf-smoke gate).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.config import tiled_chip, westmere  # noqa: E402
from repro.core.simulator import ZSim  # noqa: E402
from repro.harness.performance import with_core_model  # noqa: E402
from repro.stats.aggregate import hmean  # noqa: E402
from repro.workloads import mt_workload, spec_workload  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: One compute-bound and one memory-bound SPEC-like app: the two ends
#: of Figure 7's per-app MIPS spread.
SINGLE_APPS = ("namd", "mcf")

SCHEMA_VERSION = 1


def _dbt_stats(result):
    """The host/dbt amortization counters of one run (hit rates for the
    translation cache, L1 fast path, and slabs), as plain floats."""
    tree = result.stats().to_dict()
    return tree.get("host", {}).get("dbt", {})


def run_single(target_instrs, repeats):
    """Single-thread OOO+weave MIPS per app (best of ``repeats``)."""
    runs = []
    config = westmere(num_cores=1)
    for app in SINGLE_APPS:
        best = None
        for _ in range(repeats):
            workload = spec_workload(app, scale=1 / 32)
            threads = workload.make_threads(target_instrs=target_instrs)
            sim = ZSim(with_core_model(config, "ooo"), threads=threads,
                       contention_model="weave", flight=False)
            result = sim.run()
            if best is None or result.mips > best[0].mips:
                best = (result, _dbt_stats(result))
        result, dbt = best
        runs.append({
            "name": "single/%s" % app,
            "cores": 1,
            "instrs": result.instrs,
            "cycles": result.cycles,
            "wall_seconds": result.wall_seconds,
            "mips": result.mips,
            "ipc": result.ipc,
            "dbt": dbt,
        })
    return runs


def run_16core(target_instrs, repeats):
    """16-core end-to-end MIPS (best of ``repeats``)."""
    config = tiled_chip(num_tiles=1, cores_per_tile=16)
    best = None
    for _ in range(repeats):
        workload = mt_workload("blackscholes", scale=1 / 32,
                               num_threads=16)
        threads = workload.make_threads(target_instrs=target_instrs,
                                        num_threads=16)
        sim = ZSim(config, threads=threads, contention_model="weave",
                   flight=False)
        result = sim.run()
        if best is None or result.mips > best[0].mips:
            best = (result, _dbt_stats(result))
    result, dbt = best
    return [{
        "name": "16core/blackscholes",
        "cores": 16,
        "instrs": result.instrs,
        "cycles": result.cycles,
        "wall_seconds": result.wall_seconds,
        "mips": result.mips,
        "ipc": result.ipc,
        "dbt": dbt,
    }]


def run_pingpong(target_instrs, repeats):
    """Coherence-heavy 4-core MIPS (best of ``repeats``): canneal on a
    Westmere-like chip — 60% shared footprint, chase pattern, lock
    traffic — so upgrades, downgrades, and directory fan-out dominate."""
    config = westmere(num_cores=4)
    best = None
    for _ in range(repeats):
        workload = mt_workload("canneal", scale=1 / 32, num_threads=4)
        threads = workload.make_threads(target_instrs=target_instrs,
                                        num_threads=4)
        sim = ZSim(with_core_model(config, "ooo"), threads=threads,
                   contention_model="weave", flight=False)
        result = sim.run()
        if best is None or result.mips > best[0].mips:
            best = (result, _dbt_stats(result))
    result, dbt = best
    return [{
        "name": "pingpong/canneal",
        "cores": 4,
        "instrs": result.instrs,
        "cycles": result.cycles,
        "wall_seconds": result.wall_seconds,
        "mips": result.mips,
        "ipc": result.ipc,
        "dbt": dbt,
    }]


def run_fingerprint(target_instrs, repeats):
    """Fingerprint-chain overhead column: the pinned 16-core scenario
    with the integrity sentinel absent vs fingerprint-only (audit
    stride 0 — chain every barrier, never audit), best of ``repeats``
    each.

    The on/off MIPS columns are wall-clock and therefore noisy on
    shared runners (the scenario runs ~0.1s; host jitter alone swings
    it past any few-percent gate).  The *asserted* number is measured
    deterministically instead: the cheap per-barrier digest is timed
    directly on the run's final (largest) state, multiplied by the
    barrier count, and taken as a fraction of the fastest baseline
    wall time.  ``--assert-fingerprint-overhead`` gates that budget."""
    from repro.resilience.integrity import (IntegritySentinel,
                                            fingerprint_components)

    config = tiled_chip(num_tiles=1, cores_per_tile=16)

    def one_run(with_sentinel):
        workload = mt_workload("blackscholes", scale=1 / 32,
                               num_threads=16)
        threads = workload.make_threads(target_instrs=target_instrs,
                                        num_threads=16)
        sim = ZSim(config, threads=threads, contention_model="weave",
                   flight=False)
        if with_sentinel:
            sim.integrity = IntegritySentinel(audit_every=0)
        return sim.run(), sim

    def best_of(with_sentinel):
        best = sim = None
        for _ in range(repeats):
            result, ran = one_run(with_sentinel)
            if best is None or result.mips > best.mips:
                best, sim = result, ran
        return best, sim

    one_run(False)  # warm-up: don't charge cold caches to either column
    off, _ = best_of(False)
    on, on_sim = best_of(True)
    # Deterministic per-barrier cost: time the digest the sentinel runs
    # at every barrier, on the final state (the largest it ever covers).
    probes = 50
    start = time.perf_counter()
    for _ in range(probes):
        fingerprint_components(on_sim)
    per_barrier = (time.perf_counter() - start) / probes
    barriers = on_sim.bound.intervals
    overhead = 100.0 * (per_barrier * barriers) / off.wall_seconds
    return {
        "scenario": "16core/blackscholes",
        "instrs": on.instrs,
        "barriers": barriers,
        "mips_off": off.mips,
        "mips_on": on.mips,
        "fingerprint_ms": per_barrier * 1e3,
        "overhead_pct": overhead,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", default="run",
                        help="label recorded in the JSON and used in "
                             "the default output filename")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="output path (default: benchmarks/results/"
                             "bench_hotpath_<label>.json)")
    parser.add_argument("--scenario",
                        choices=("single", "16core", "pingpong",
                                 "fingerprint", "all"),
                        default="all")
    parser.add_argument("--instrs", type=int, default=60_000,
                        help="single-thread instruction target "
                             "(the 16-core run uses instrs/4 per thread)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="take the best MIPS of N runs (default 2)")
    parser.add_argument("--assert-mips", type=float, default=None,
                        metavar="FLOOR",
                        help="exit 1 unless hmean single-thread MIPS "
                             ">= FLOOR (CI perf-smoke gate)")
    parser.add_argument("--assert-pingpong-mips", type=float,
                        default=None, metavar="FLOOR",
                        help="exit 1 unless the coherence-heavy pingpong "
                             "MIPS >= FLOOR (CI perf-smoke gate)")
    parser.add_argument("--assert-fingerprint-overhead", type=float,
                        default=None, metavar="PCT",
                        help="exit 1 if the fingerprint chain costs "
                             "more than PCT%% MIPS on the 16-core "
                             "scenario (integrity-sentinel budget)")
    args = parser.parse_args(argv)

    runs = []
    fingerprint = None
    start = time.perf_counter()
    if args.scenario in ("single", "all"):
        runs.extend(run_single(args.instrs, args.repeats))
    if args.scenario in ("16core", "all"):
        runs.extend(run_16core(max(2_000, args.instrs // 4),
                               args.repeats))
    if args.scenario in ("pingpong", "all"):
        runs.extend(run_pingpong(max(2_000, args.instrs // 2),
                                 args.repeats))
    if args.scenario in ("fingerprint", "all"):
        fingerprint = run_fingerprint(max(2_000, args.instrs // 4),
                                      args.repeats)
    elapsed = time.perf_counter() - start

    single = [r["mips"] for r in runs if r["name"].startswith("single/")]
    multi = [r["mips"] for r in runs if r["name"].startswith("16core/")]
    pingpong = [r["mips"] for r in runs
                if r["name"].startswith("pingpong/")]
    payload = {
        "schema": SCHEMA_VERSION,
        "bench": "hotpath",
        "label": args.label,
        "python": platform.python_version(),
        "instrs_target": args.instrs,
        "repeats": args.repeats,
        "wall_seconds_total": elapsed,
        "runs": runs,
        "fingerprint": fingerprint,
        "summary": {
            "single_thread_hmean_mips": hmean(single) if single else None,
            "multicore_mips": multi[0] if multi else None,
            "pingpong_mips": pingpong[0] if pingpong else None,
            "fingerprint_overhead_pct": (fingerprint["overhead_pct"]
                                         if fingerprint else None),
        },
    }

    out = args.json
    if out is None:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / ("bench_hotpath_%s.json" % args.label)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for run in runs:
        print("%-22s %8.4f MIPS  (%d instrs, %.2fs)"
              % (run["name"], run["mips"], run["instrs"],
                 run["wall_seconds"]))
    if single:
        print("single-thread hmean : %.4f MIPS" % payload["summary"][
            "single_thread_hmean_mips"])
    if multi:
        print("16-core end-to-end  : %.4f MIPS" % multi[0])
    if pingpong:
        print("pingpong coherence  : %.4f MIPS" % pingpong[0])
    if fingerprint:
        print("fingerprint off/on  : %.4f / %.4f MIPS  (overhead %+.2f%%)"
              % (fingerprint["mips_off"], fingerprint["mips_on"],
                 fingerprint["overhead_pct"]))
    print("json written to %s" % out)

    if args.assert_mips is not None:
        got = payload["summary"]["single_thread_hmean_mips"] or 0.0
        if got < args.assert_mips:
            print("FAIL: hmean single-thread MIPS %.4f below floor %.4f"
                  % (got, args.assert_mips), file=sys.stderr)
            return 1
        print("perf-smoke floor OK (%.4f >= %.4f)"
              % (got, args.assert_mips))
    if args.assert_pingpong_mips is not None:
        got = payload["summary"]["pingpong_mips"] or 0.0
        if got < args.assert_pingpong_mips:
            print("FAIL: pingpong MIPS %.4f below floor %.4f"
                  % (got, args.assert_pingpong_mips), file=sys.stderr)
            return 1
        print("pingpong floor OK (%.4f >= %.4f)"
              % (got, args.assert_pingpong_mips))
    if args.assert_fingerprint_overhead is not None and fingerprint:
        got = fingerprint["overhead_pct"]
        if got > args.assert_fingerprint_overhead:
            print("FAIL: fingerprint overhead %+.2f%% above budget %.2f%%"
                  % (got, args.assert_fingerprint_overhead),
                  file=sys.stderr)
            return 1
        print("fingerprint budget OK (%+.2f%% <= %.2f%%)"
              % (got, args.assert_fingerprint_overhead))
    return 0


if __name__ == "__main__":
    os.environ.setdefault("PYTHONHASHSEED", "0")
    sys.exit(main())

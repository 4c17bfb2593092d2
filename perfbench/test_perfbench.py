"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402

#: namd-1c cut short: every check and instrument, in well under a second.
#: Its own name, so no recorded reference applies to it.
TINY = dataclasses.replace(harness.SCENARIOS["namd-1c"], name="namd-tiny",
                           target_instrs=5_000, ledger_intervals=3)


def _tiny_tree(seed=0):
    sim = harness.setup(TINY, seed)
    return harness.simulated_tree(sim.run().stats().to_dict())


def test_matching_reference_passes(monkeypatch):
    tree = _tiny_tree()
    monkeypatch.setattr(harness, "load_reference", lambda *_: tree)
    tally = run.Tally()
    runs = run.timed_runs(TINY, 0, 0, tally, min_runs=2)
    assert len(runs) == 2 and tally.attempted == 2
    assert tally.failures == []


def test_wrong_reference_counts_as_failure(monkeypatch):
    wrong = copy.deepcopy(_tiny_tree())
    wrong["cycles"] += 1
    monkeypatch.setattr(harness, "load_reference", lambda *_: wrong)
    tally = run.Tally()
    runs = run.timed_runs(TINY, 0, 0, tally, min_runs=2)
    # Failed runs are kept (their timing is still reported) and counted.
    assert len(runs) == 2
    assert len(tally.failures) == tally.attempted == 2
    assert all("cycles" in reason for reason in tally.failures)


def test_recorded_references_hold_for_namd():
    scenario = harness.SCENARIOS["namd-1c"]
    for seed in (harness.DEFAULT_SEED, harness.HELD_OUT_SEED):
        reference = harness.load_reference(scenario, seed)
        assert reference is not None
        assert harness.run_once(scenario, seed, reference).problems == []


def test_nominal_pace_rescales_host_seconds():
    with pace.PaceSampler() as sampler:
        pass
    assert len(sampler.slices) == 1 and sampler.kernel_s > 0
    run_ = harness.Run(setup_s=0.5, run_s=2.0, instrs=1_000_000, counts={},
                       problems=[], kernel_s=2 * pace.NOMINAL_S)
    # The kernel ran at half the nominal pace: so did the host.
    assert run_.raw_mips == pytest.approx(0.5)
    assert run_.sim_mips == pytest.approx(1.0)
    assert run_.paced_setup_s == pytest.approx(0.25)


def test_opcode_ledger_repeats_exactly():
    tally = run.Tally()
    (first, instrs), (second, _) = (run.counted_run(TINY, 0, tally)
                                    for _ in range(2))
    assert tally.failures == []
    assert first.counts == second.counts
    assert first.counts["cpu"] > 0 and instrs > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {s.name: s.why for s in harness.SCENARIOS.values()}
    tally = run.Tally()
    metrics = run.measure_layers(TINY, 0, 0, tally)
    assert tally.failures == []
    assert set(metrics) == set(run.PER_LAYER)
    assert set(run.measure(TINY, 0, 0, tally)) == set(run.END_TO_END)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "namd-1c",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(harness.SCENARIOS))
def test_scenarios_have_references(name):
    scenario = harness.SCENARIOS[name]
    for seed in (harness.DEFAULT_SEED, harness.HELD_OUT_SEED):
        assert harness.reference_path(scenario, seed).exists()

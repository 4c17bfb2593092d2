#!/usr/bin/env python3
"""Record the reference stats trees the benchmark checks runs against.

    python3 perfbench/record_refs.py

Writes ``perfbench/refs/<workload>.seed<N>.json.gz`` for the default
and the held-out seed: the simulated stats tree (``host`` removed) of
one checked run per workload.  Record only from a commit whose simulated
results are known good; later runs of the same seed must reproduce the
reference exactly.
"""

from __future__ import annotations

import gzip
import json

import harness


def main():
    harness.REFS.mkdir(exist_ok=True)
    for seed in (harness.DEFAULT_SEED, harness.HELD_OUT_SEED):
        for scenario in harness.SCENARIOS.values():
            sim = harness.setup(scenario, seed)
            tree = sim.run().stats().to_dict()
            problems = harness.check_outputs(scenario, sim, tree, None)
            if problems:
                raise SystemExit("%s seed %d: %s"
                                 % (scenario.name, seed, problems))
            path = harness.reference_path(scenario, seed)
            # mtime=0: the same tree always compresses to the same bytes.
            with open(path, "wb") as raw, \
                    gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(json.dumps(harness.simulated_tree(tree),
                                    sort_keys=True, indent=0).encode())
            print("wrote", path)


if __name__ == "__main__":
    main()

"""Rewrite pins.json with the digest of every growth result the benchmark
checks: each rng seed in the pools of grow-n3 and grow-n4, and the graphs
the queries workload grows in setup.

    python3 bench/pins.py

The digests pin byte-level determinism per rng seed, so rewrite them only
when growth output is meant to change.
"""

import json

from run import import_package
from workloads import PINS, WORKLOADS, grow_digest


def main():
    ngons = import_package()
    pins = {}
    for name, workload in WORKLOADS.items():
        if name.startswith("grow-"):
            state = {"ngons": ngons}
            pins[name] = {str(r): grow_digest(ngons, *workload.run(state, r))
                          for r in workload.pool}
    queries = WORKLOADS["queries"]
    pins["queries"] = {
        str(r): grow_digest(ngons, *ngons.grow(ngons.make_cycle(3, 8),
                                               queries.graph_steps, r))
        for r in queries.graph_rngs}
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

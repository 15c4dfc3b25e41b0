"""Record reference digests of point records for the shipped seeds.

Run from the repository root::

    python3 perfbench/record_digests.py --workload spinal_awgn --rounds 3 0 1 2

For each seed, computes the first ``--rounds`` rounds of the workload's
points and stores the canonical-JSON digest of every point record in
``perfbench/digests.json`` under its point hash, in place of the
workload's earlier digests (so give every shipped seed at once).  A
benchmark run then compares each record it produces with the stored
digest; re-record only when a change is meant to alter the simulation's
results or a workload's rounds.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)

    from repro.experiments import ExperimentSpec, point_hash, run_experiment
    from workloads import WORKLOADS

    digests: dict[str, str] = {}
    for seed in args.seeds:
        for rnd in range(args.rounds):
            for point in WORKLOADS[args.workload](seed, rnd, False):
                spec = ExperimentSpec("perfbench", point.series, "quick",
                                      (point,))
                record = run_experiment(spec, n_workers=1).record_for(point)
                digests[point_hash(point)] = bench.record_digest(record)
        print(f"{args.workload} seed {seed}: {len(digests)} digests",
              flush=True)
    # read late: another workload may have been recorded meanwhile
    table = (json.loads(bench.DIGESTS.read_text())
             if bench.DIGESTS.exists() else {})
    table[args.workload] = digests
    bench.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point for neurosmc.

    python3 nsbench/run.py --workload mc_weak --seed 0 --seconds 36 --trace 0

Runs one workload (see ``README.md``) in this process for ``--seconds``
seconds of whole rounds, checks every output, and prints one JSON object as
the last line of standard output: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Progress and failed checks go to
standard error.  Exits 2 without a result when the checkout holds no
``src/neurosmc``.
"""

import argparse
import json
import sys

import bootstrap


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_weak", "pmmh_leak", "syn_large_n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not bootstrap.prepare():
        print(f"error: no neurosmc sources under {bootstrap.SRC}", file=sys.stderr)
        return 2

    import workloads

    result, _ = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

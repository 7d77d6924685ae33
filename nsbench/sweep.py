"""Seed sweep: every output check and oracle side check, on many seeds.

    python3 nsbench/sweep.py --seeds 0:50

Runs one round of each workload per seed, exactly as a benchmark run does,
and prints each check's worst margin (value / limit; a check passes below 1)
with the seed where it occurred.  Exits 1 if any check failed on any seed.
"""

import argparse
import sys

import bootstrap


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0:50", help="half-open range START:STOP")
    args = parser.parse_args(argv)
    start, stop = (int(x) for x in args.seeds.split(":"))
    if not bootstrap.prepare():
        print(f"error: no neurosmc sources under {bootstrap.SRC}", file=sys.stderr)
        return 2

    import workloads

    out_root = workloads.OUT_ROOT / f"sweep-{start}-{stop}"
    worst = {}
    failures = []
    for seed in range(start, stop):
        for workload in workloads.WORKLOADS:
            result, rep = workloads.run(workload, seed, 1e-9, False, out_root=out_root)
            if result["failed"]:
                failures.append(f"seed {seed}: {workload} command failed")
            failures += [f"seed {seed}: {msg}" for msg in rep.failures]
            for name, margin in rep.margins.items():
                if name not in worst or margin > worst[name][0]:
                    worst[name] = (margin, seed)
    print(f"seeds {start}..{stop - 1}: {len(failures)} failures")
    for message in failures:
        print(f"  {message}")
    print(f"{'check':48s} {'worst margin':>12s}  seed")
    for name in sorted(worst):
        margin, seed = worst[name]
        print(f"{name:48s} {margin:12.4g}  {seed}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Write reference.json: the outcomes every benchmark run is compared with.

    python3 perfbench/make_reference.py --seeds 0 1 2 [--workload NAME ...]

Runs each config of each named workload (default: all) once per seed and
records its outcomes (see worker.outcomes).  It refuses to write when two
seeds disagree, since the gate compares runs of any seed with one
reference.  Regenerate only from a commit whose outcomes are known to be
right: the gate trusts this file.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--workload", nargs="*", choices=sorted(run.WORKLOADS), default=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)

    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for workload in args.workload:
        table = {}
        for entry in run.WORKLOADS[workload]:
            seen = None
            for seed in args.seeds:
                worker = run.spawn(entry, seed, time.monotonic() + 600)
                if worker.result is None:
                    print(f"{workload} {entry[0]} seed {seed}: worker died\n{worker.stderr}", file=sys.stderr)
                    return 1
                got = worker.result["outcomes"]
                if seen is not None and got != seen:
                    diff = sorted(k for k in set(got) | set(seen) if got.get(k) != seen.get(k))
                    print(f"{workload} {entry[0]}: seed {seed} disagrees on {diff}", file=sys.stderr)
                    return 1
                seen = got
                print(f"{workload} {entry[0]} seed {seed}: {len(got)} outcomes, exit {got['exit_code']}")
            table[entry[0]] = seen
        reference[workload] = table
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

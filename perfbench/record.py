"""Record the golden digests and reference costs of every grid point.

    python3 perfbench/record.py

Runs each grid point of every workload cold, twice (with two different
hash seeds), from the repository root.
It refuses to write if the two runs of a point disagree on exit code or
digest, or if a run times out or prints a traceback.  It writes
``perfbench/golden.json``: for each argv, the exit code, the digest of the
normalized output, and the faster of the two wall times in ms, which orders
the grid for stratified sampling.  Rerun it only when the expected outputs
change on purpose.
"""

from __future__ import annotations

import json
import os
import sys

import measure
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def main() -> int:
    scratch = os.path.abspath(".perfbench-out")
    os.makedirs(scratch, exist_ok=True)
    golden: dict[str, dict] = {}
    problems = []
    points = [("--help",)] + workloads.grid_points()
    for number, argv in enumerate(points, 1):
        outcomes = [measure.run_cold(measure.CLI, argv, 600, scratch, hash_seed)
                    for hash_seed in (2 * number, 2 * number + 1)]
        digests = {measure.digest(o.exit_code, o.stdout) for o in outcomes}
        bad = [o for o in outcomes
               if o.timed_out or "Traceback (most recent call last)" in o.stderr]
        name = workloads.key(argv)
        if bad or len(digests) != 1 or outcomes[0].exit_code != outcomes[1].exit_code:
            problems.append(name)
        golden[name] = {
            "exit": outcomes[0].exit_code,
            "digest": measure.digest(outcomes[0].exit_code, outcomes[0].stdout),
            "ref_ms": round(1000 * min(o.seconds for o in outcomes), 1),
        }
        print(f"[{number}/{len(points)}] {golden[name]['ref_ms']:9.1f} ms "
              f"exit {golden[name]['exit']}  {name}", file=sys.stderr, flush=True)
    if problems:
        print("not written; unstable or failing points:", *problems, sep="\n  ",
              file=sys.stderr)
        return 1
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

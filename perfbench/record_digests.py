"""Write digests.json: the sha256 of every op's JSON stdout at the default seed.

    python3 perfbench/record_digests.py

Run from the root of a source checkout whose answers are known to be
right.  Every op must pass checks.py before its digest is recorded.
run.py then counts any op whose argv appears here and whose output
differs as failed, whatever the seed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    table = {"default_seed": run.DEFAULT_SEED, "runs": {}, "ops": {}}
    for name in sorted(workloads.GENERATORS):
        ops = workloads.generate(name, run.DEFAULT_SEED)
        result = run.score(ops, [run.spawn(ops, False, True, run.DEADLINE_S)], {})
        if result["failed"]:
            print(f"{name}: {result['failed']} ops fail their checks: {result['reasons']}", file=sys.stderr)
            return 1
        records = result["ref"]["records"]
        table["ops"][name] = {" ".join(op): rec["sha256"] for op, rec in zip(ops, records)}
        table["runs"][name] = run.run_digest(ops, result["ref"])
        print(f"{name}: {len(ops)} ops, run digest {table['runs'][name]}")
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

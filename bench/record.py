"""Record the status digest of every workload for a range of seeds in
bench/baseline.json, after verifying every answer of each pass.

    python3 bench/record.py --seeds 0-63 [--workload finite_scan]

run.py checks the digest of a seed against this record and fails on a
difference; a seed without a record is reported and not checked.  Record
again only when a change is meant to alter verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import worker

BASELINE = Path(__file__).resolve().parent / "baseline.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    worker._import_library()
    import queries
    import workloads

    queries.arm_deadlines()
    data = json.loads(BASELINE.read_text())
    for name in args.workload or list(workloads.PASSES):
        table = data["status_digests"].setdefault(name, {})
        done = {}  # the core of a pass is the same for every seed
        for seed in range(first, last + 1):
            items = workloads.PASSES[name](seed)
            new = [it for it in items if it not in done]
            recs = worker.run_pass(queries, name, new)[0]
            for rec in recs:
                rec.problems.extend(queries.verify(rec))
                done[rec.item] = rec
            recs = [done[it] for it in items]
            if name == "finite_scan":
                queries.verify_groups(recs)
            bad = [r for r in recs if r.error or r.problems]
            if bad:
                print(f"{name} seed {seed}: {len(bad)} failed operations", file=sys.stderr)
                return 1
            table[str(seed)] = worker.digest(r.statuses() for r in recs)
            print(name, seed, table[str(seed)], flush=True)
        data["status_digests"][name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        BASELINE.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``reference.json``: the digest of every job of every seed.

Run from the root of a checkout after a change that is meant to alter
simulated results (a model change)::

    python3 perfbench/record_reference.py

Every workload's whole job universe -- every kernel at every design
point -- runs once (about two minutes) and its result digests replace
the table.  The same output checks as a benchmark run apply
(instruction counts, chip stall conservation); recording stops if one
fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS, job_key, job_universe  # noqa: E402


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        jobs = job_universe(workload)
        p = harness.run_pass(workload, jobs, ROOT, {})
        problems = [x for x in p.problems if not x.endswith(": no reference digest")]
        if problems:
            print("\n".join(problems[:10]), file=sys.stderr)
            return 1
        digests.update({job_key(j): d for j, d in zip(jobs, p.digests)})
        print(f"{workload}: {len(jobs)} jobs recorded in {p.raw_wall_s:.1f} s")
    harness.REFERENCE.write_text(
        json.dumps({"format": 1, "digests": dict(sorted(digests.items()))}, indent=0) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

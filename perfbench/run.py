"""Repository benchmark: one-shot CLI requests, capacity sweeps, chip runs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload capacity-sweep --seed 1 --seconds 15 --trace 0

It imports ``repro`` from the checkout's ``src/`` (pure Python, nothing
to build), runs one workload in this process, and prints a report
followed, as the last line of standard output, by one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same jobs
untraced and then traced and reports the per-layer metrics.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    spans_out = None
    if args.trace:
        spans_out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
    result, lines = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, spans_out
    )
    for line in lines:
        print(line)
    print(f"correct: {result['correct']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""skillops benchmark: one workload, one seed, one process.

Run from the root of a skillops checkout:

    python3 skillbench/run.py --workload maintain-2k --seed 42 --seconds 30 --trace 0

Workloads: maintain-2k, diagnose-wide-8k, plan-queries-1k (see
workloads.py); all three in turn:

    for w in maintain-2k diagnose-wide-8k plan-queries-1k; do
        python3 skillbench/run.py --workload $w; done

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see bench.py).  Library directories are
written under skillbench/_work and removed at the end; a traced run leaves
its spans in skillbench/_spans.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it, prefixed "# detail",
holds sample counts, the error rate, digests and the run environment.  The
program is imported from src/ of the checkout; without it the run fails
with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "skillops" / "__init__.py").is_file():
        print(f"error: no skillops sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import skillops

    if not Path(skillops.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: skillops was imported from {skillops.__file__}", file=sys.stderr)
        return 2
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:14.6f} {m['unit']}")
    print(f"{'error_rate':34s} {detail['error_rate']:14.6f} ratio"
          f"  ({result['failed']}/{result['attempted']} operations)")
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

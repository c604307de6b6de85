#!/usr/bin/env python3
"""Run one sparsetc benchmark workload and print its metrics.

    python3 benchmark/run.py --workload rowwise-dense --seed 1 --seconds 20 --trace 0

Builds the program from ``src/`` of the checkout this file sits in. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A full record
(environment, input digests, plans, spans) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed pass seconds to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sparsetc", "__init__.py")):
        print(f"error: no sparsetc source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bench  # imports sparsetc, so only once src/ is on the path

    result = bench.measure(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
        os.path.join(ROOT, ".bench_out"),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child process behind the peak_rss_mb metric.

Reads a pickled (workload, seed, outdir) from standard input, generates the
inputs, sets them up and runs one pass, then prints its own peak resident
set in MB. It starts no process of its own.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import generate  # noqa: E402


def main() -> int:
    w, seed, outdir = pickle.load(sys.stdin.buffer)
    with tempfile.TemporaryDirectory(dir=outdir) as work:
        inputs = generate(w, seed, work)
        program = bench.Program(NullTracer())
        bench.run_pass(w, bench.construct(w, inputs, program), program, work, replay=False)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())

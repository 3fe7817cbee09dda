"""Benchmark for tide: one workload per invocation, result as JSON.

Run from the root of a checkout of the repository:

    python3 tidebench/run.py --workload compare-joint --seed 0 --seconds 25 --trace 0

Workloads are compare-joint, cli-large and check-grad (see workloads.py
and README.md). The program is run from ``src/`` of the working
directory with BLAS pinned to one thread. Progress goes to stderr; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Files go to ``.tidebench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("compare-joint", "cli-large", "check-grad")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="tidebench", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "tide" / "__init__.py").is_file():
        print(f"tidebench: no src/tide under {root}; run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    # Before numpy loads here or in any child process.
    os.environ["TIDE_THREADS"] = "1"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(src)]

    import tide
    if Path(tide.__file__).resolve().parent != (src / "tide").resolve():
        print(f"tidebench: imported tide from {tide.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads
    ctx = workloads.Context(root, args.seed, args.seconds, bool(args.trace))
    result = workloads.run(args.workload, ctx)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

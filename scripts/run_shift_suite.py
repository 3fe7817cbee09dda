#!/usr/bin/env python3
"""Run the objective comparison across all synthetic shift fixtures.

Loops ``tide compare`` over the fixture kinds in one invocation::

    python scripts/run_shift_suite.py --out results/ --seeds 0,1,2,3,4

writes results/<fixture>/{compare.csv,compare.md,summary.json} per
fixture and prints the markdown tables. Each fixture goes through
``tide.cli.main``, so the TIDE_THREADS cap and the exit codes are the
CLI's; the first failing fixture's exit code is returned.
"""

import argparse
import sys
from pathlib import Path

from tide.cli import main as tide_main

FIXTURES = ("feature", "structure", "joint")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("results"))
    ap.add_argument("--fixtures", default=",".join(FIXTURES),
                    help="comma-separated subset of feature,structure,joint")
    for flag in ("--modes", "--seeds", "--epochs"):
        ap.add_argument(flag, help=f"passed to tide compare {flag}")
    args = ap.parse_args(argv)

    extra = [arg for flag in ("modes", "seeds", "epochs")
             if getattr(args, flag) is not None
             for arg in (f"--{flag}", getattr(args, flag))]
    for fixture in (f.strip() for f in args.fixtures.split(",") if f.strip()):
        print(f"== {fixture} ==", flush=True)
        code = tide_main(["compare", "--fixture", fixture,
                          "--out", str(args.out / fixture), *extra])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

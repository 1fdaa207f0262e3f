"""CLI: ``python -m repro.experiments [ids...] [--scale N]``.

Runs the requested experiment harnesses (default: every table and
figure) and prints each paper-vs-measured report.
"""

from __future__ import annotations

import argparse
import sys
import time

from .registry import EXPERIMENTS, run_experiments


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        choices=[*EXPERIMENTS, []],
        help=f"experiments to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=10_000,
        help="population scale divisor for scan experiments (default 1:10000;"
        " the paper-faithful run uses 1000)",
    )
    args = parser.parse_args(argv)

    started = time.time()  # CLI progress timing, not simulated time
    reports = run_experiments(args.ids or None, scan_scale=args.scale)
    failures = 0
    for report in reports:
        print(report.render())
        print()
        if not report.all_ok:
            failures += 1
    elapsed = time.time() - started
    print(
        f"{len(reports)} experiments, "
        f"{len(reports) - failures} fully matching, in {elapsed:.1f}s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

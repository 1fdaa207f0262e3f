"""``python -m repro.tools.lint`` — offline zone verification.

Lints one of the testbed's zones (by subdomain label) or a zone file on
disk, printing every finding.  The offline counterpart of the EDE-based
online diagnosis: an operator who runs this before publishing would
never appear in the paper's 17.7M.

Exits 1 when any ``Severity.ERROR`` finding is reported (validation
would fail for clients), 2 on usage errors, 0 on a clean or
warnings-only zone.

Examples::

    python -m repro.tools.lint rrsig-exp-all      # testbed case by label
    python -m repro.tools.lint --file zone.db --now 1684108800
"""

from __future__ import annotations

import argparse
import sys
import time

from ..zones.lint import Severity, lint_zone
from ..zones.zonefile import parse_zone


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("label", nargs="?", help="testbed subdomain label")
    parser.add_argument("--file", help="lint a master-format zone file instead")
    parser.add_argument("--origin", help="zone origin for --file (when no SOA)")
    parser.add_argument(
        "--now", type=int, default=None,
        help="validation timestamp (default: wall clock, or the testbed's epoch)",
    )
    args = parser.parse_args(argv)

    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            zone = parse_zone(handle.read(), origin=args.origin)
        # Operator-facing CLI default: "is this zone valid right now".
        now = args.now if args.now is not None else int(time.time())
        findings = lint_zone(zone, now=now)
    elif args.label:
        from ..testbed.infra import build_testbed
        from ..testbed.subdomains import CASES_BY_LABEL

        if args.label not in CASES_BY_LABEL:
            print(f"unknown testbed label {args.label!r}", file=sys.stderr)
            return 2
        print("building the testbed...", file=sys.stderr)
        testbed = build_testbed()
        deployed = testbed.cases[args.label]
        if deployed.built is None:
            print(f"{args.label} hosts no zone (bad-glue case); nothing to lint")
            return 0
        now = args.now if args.now is not None else int(testbed.fabric.clock.now())
        findings = lint_zone(
            deployed.built.zone, now=now, parent_ds=deployed.built.ds_rdatas
        )
    else:
        parser.print_usage(sys.stderr)
        return 2

    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    if not findings:
        print("clean: no findings")
        return 0
    for finding in findings:
        print(finding)
    print(f"\n{len(findings)} finding(s), {errors} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
